#include "sql/ast.h"

#include <cctype>

#include "util/strings.h"

namespace qserv::sql {

std::string quoteIdentIfNeeded(const std::string& name) {
  bool plain = !name.empty() &&
               (std::isalpha(static_cast<unsigned char>(name[0])) ||
                name[0] == '_');
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
      plain = false;
      break;
    }
  }
  if (plain) return name;
  return "`" + name + "`";
}

const char* binOpSql(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kEq: return "=";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "AND";
    case BinOp::kOr: return "OR";
  }
  return "?";
}

std::string ColumnRef::toSql() const {
  if (qualifier.empty()) return quoteIdentIfNeeded(column);
  return quoteIdentIfNeeded(qualifier) + "." + quoteIdentIfNeeded(column);
}

std::string BinaryExpr::toSql() const {
  // Fully parenthesized output keeps round-trips precedence-safe.
  return "(" + lhs->toSql() + " " + binOpSql(op) + " " + rhs->toSql() + ")";
}

ExprPtr FuncCall::clone() const {
  std::vector<ExprPtr> clonedArgs;
  clonedArgs.reserve(args.size());
  for (const auto& a : args) clonedArgs.push_back(a->clone());
  return std::make_unique<FuncCall>(name, std::move(clonedArgs));
}

std::string FuncCall::toSql() const {
  std::vector<std::string> parts;
  parts.reserve(args.size());
  for (const auto& a : args) parts.push_back(a->toSql());
  return name + "(" + util::join(parts, ", ") + ")";
}

bool FuncCall::isAggregate() const {
  return util::iequals(name, "COUNT") || util::iequals(name, "SUM") ||
         util::iequals(name, "AVG") || util::iequals(name, "MIN") ||
         util::iequals(name, "MAX");
}

std::string BetweenExpr::toSql() const {
  return "(" + expr->toSql() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
         lo->toSql() + " AND " + hi->toSql() + ")";
}

ExprPtr InExpr::clone() const {
  std::vector<ExprPtr> clonedList;
  clonedList.reserve(list.size());
  for (const auto& e : list) clonedList.push_back(e->clone());
  return std::make_unique<InExpr>(expr->clone(), std::move(clonedList),
                                  negated);
}

std::string InExpr::toSql() const {
  std::vector<std::string> parts;
  parts.reserve(list.size());
  for (const auto& e : list) parts.push_back(e->toSql());
  return "(" + expr->toSql() + (negated ? " NOT IN (" : " IN (") +
         util::join(parts, ", ") + "))";
}

std::string SelectItem::toSql() const {
  if (alias.empty()) return expr->toSql();
  return expr->toSql() + " AS " + quoteIdentIfNeeded(alias);
}

SelectStmt SelectStmt::clone() const {
  SelectStmt out;
  out.distinct = distinct;
  out.items.reserve(items.size());
  for (const auto& i : items) out.items.push_back(i.clone());
  out.from = from;
  if (where) out.where = where->clone();
  out.groupBy.reserve(groupBy.size());
  for (const auto& g : groupBy) out.groupBy.push_back(g->clone());
  if (having) out.having = having->clone();
  out.orderBy.reserve(orderBy.size());
  for (const auto& o : orderBy) out.orderBy.push_back(o.clone());
  out.limit = limit;
  return out;
}

std::string SelectStmt::toSql() const {
  std::vector<std::string> pieces = toSqlAroundTables();
  std::string out = std::move(pieces[0]);
  for (std::size_t i = 0; i < from.size(); ++i) {
    out += from[i].table;
    out += pieces[i + 1];
  }
  return out;
}

std::vector<std::string> SelectStmt::toSqlAroundTables() const {
  std::vector<std::string> pieces;
  pieces.reserve(from.size() + 1);
  std::vector<std::string> itemSql;
  itemSql.reserve(items.size());
  for (const auto& i : items) itemSql.push_back(i.toSql());
  std::string out =
      (distinct ? "SELECT DISTINCT " : "SELECT ") + util::join(itemSql, ", ");
  for (std::size_t i = 0; i < from.size(); ++i) {
    out += i == 0 ? " FROM " : ", ";
    if (!from[i].database.empty()) out += from[i].database + ".";
    pieces.push_back(std::move(out));
    out.clear();
    if (!from[i].alias.empty()) out += " AS " + from[i].alias;
  }
  if (where) out += " WHERE " + where->toSql();
  if (!groupBy.empty()) {
    std::vector<std::string> g;
    g.reserve(groupBy.size());
    for (const auto& e : groupBy) g.push_back(e->toSql());
    out += " GROUP BY " + util::join(g, ", ");
  }
  if (having) out += " HAVING " + having->toSql();
  if (!orderBy.empty()) {
    std::vector<std::string> o;
    o.reserve(orderBy.size());
    for (const auto& item : orderBy) {
      o.push_back(item.expr->toSql() + (item.descending ? " DESC" : ""));
    }
    out += " ORDER BY " + util::join(o, ", ");
  }
  if (limit) out += " LIMIT " + std::to_string(*limit);
  pieces.push_back(std::move(out));
  return pieces;
}

std::string CreateTableStmt::toSql() const {
  std::string out = "CREATE TABLE ";
  if (ifNotExists) out += "IF NOT EXISTS ";
  out += table;
  if (asSelect) {
    out += " AS " + asSelect->toSql();
  } else {
    out += " " + schema.toSql();
  }
  return out;
}

std::string InsertStmt::toSql() const {
  std::string out = "INSERT INTO " + table;
  if (select) {
    out += " " + select->toSql();
    return out;
  }
  out += " VALUES ";
  std::vector<std::string> rowSql;
  rowSql.reserve(rows.size());
  for (const auto& row : rows) {
    std::vector<std::string> vals;
    vals.reserve(row.size());
    for (const auto& v : row) vals.push_back(v.toSqlLiteral());
    rowSql.push_back("(" + util::join(vals, ", ") + ")");
  }
  out += util::join(rowSql, ", ");
  return out;
}

std::string DropTableStmt::toSql() const {
  std::string out = "DROP TABLE ";
  if (ifExists) out += "IF EXISTS ";
  out += table;
  return out;
}

std::string ExplainStmt::toSql() const {
  std::string out = "EXPLAIN ";
  if (analyze) out += "ANALYZE ";
  if (select) out += select->toSql();
  return out;
}

std::string statementToSql(const Statement& stmt) {
  return std::visit([](const auto& s) { return s.toSql(); }, stmt);
}

}  // namespace qserv::sql
