/// \file ast.h
/// \brief SQL abstract syntax tree.
///
/// All nodes support deep clone() and toSql() serialization: the Qserv
/// frontend rewrites user queries by cloning the parsed tree, mutating table
/// references / aggregates / spatial pseudo-functions, and re-serializing
/// one query per chunk (paper §5.3).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "sql/schema.h"
#include "sql/value.h"

namespace qserv::sql {

// ---------------------------------------------------------------- expressions

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kStar,
  kUnary,
  kBinary,
  kFuncCall,
  kBetween,
  kIn,
  kIsNull,
  kSlotRef,
};

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};
enum class UnOp { kNeg, kNot };

const char* binOpSql(BinOp op);

/// Backquote \p name unless it is a plain identifier ([A-Za-z_][A-Za-z0-9_]*).
std::string quoteIdentIfNeeded(const std::string& name);

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

class Expr {
 public:
  explicit Expr(ExprKind kind) : kind_(kind) {}
  virtual ~Expr() = default;

  ExprKind kind() const { return kind_; }
  virtual ExprPtr clone() const = 0;
  virtual std::string toSql() const = 0;

 private:
  ExprKind kind_;
};

/// Literal constant.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value v) : Expr(ExprKind::kLiteral), value(std::move(v)) {}
  ExprPtr clone() const override { return std::make_unique<LiteralExpr>(value); }
  std::string toSql() const override { return value.toSqlLiteral(); }

  Value value;
};

/// Column reference, optionally qualified: column | qualifier.column.
/// The qualifier is a table name or alias (Qserv does not use db.table.col
/// column references; database qualifiers appear only in table refs).
class ColumnRef final : public Expr {
 public:
  ColumnRef(std::string qualifier, std::string column)
      : Expr(ExprKind::kColumnRef),
        qualifier(std::move(qualifier)),
        column(std::move(column)) {}
  ExprPtr clone() const override {
    return std::make_unique<ColumnRef>(qualifier, column);
  }
  std::string toSql() const override;

  std::string qualifier;  // may be empty
  std::string column;
};

/// `*` or `alias.*` in a select list or COUNT(*).
class StarExpr final : public Expr {
 public:
  explicit StarExpr(std::string qualifier = {})
      : Expr(ExprKind::kStar), qualifier(std::move(qualifier)) {}
  ExprPtr clone() const override { return std::make_unique<StarExpr>(qualifier); }
  std::string toSql() const override {
    return qualifier.empty() ? "*" : qualifier + ".*";
  }

  std::string qualifier;
};

class UnaryExpr final : public Expr {
 public:
  UnaryExpr(UnOp op, ExprPtr operand)
      : Expr(ExprKind::kUnary), op(op), operand(std::move(operand)) {}
  ExprPtr clone() const override {
    return std::make_unique<UnaryExpr>(op, operand->clone());
  }
  std::string toSql() const override {
    return (op == UnOp::kNeg ? "-" : "NOT ") + std::string("(") +
           operand->toSql() + ")";
  }

  UnOp op;
  ExprPtr operand;
};

class BinaryExpr final : public Expr {
 public:
  BinaryExpr(BinOp op, ExprPtr lhs, ExprPtr rhs)
      : Expr(ExprKind::kBinary), op(op), lhs(std::move(lhs)), rhs(std::move(rhs)) {}
  ExprPtr clone() const override {
    return std::make_unique<BinaryExpr>(op, lhs->clone(), rhs->clone());
  }
  std::string toSql() const override;

  BinOp op;
  ExprPtr lhs;
  ExprPtr rhs;
};

/// Function call: scalar UDFs, Qserv pseudo-functions (qserv_areaspec_box),
/// and aggregates (COUNT/SUM/AVG/MIN/MAX — recognized by name).
class FuncCall final : public Expr {
 public:
  FuncCall(std::string name, std::vector<ExprPtr> args)
      : Expr(ExprKind::kFuncCall), name(std::move(name)), args(std::move(args)) {}
  ExprPtr clone() const override;
  std::string toSql() const override;

  /// True when `name` is an aggregate function.
  bool isAggregate() const;

  std::string name;
  std::vector<ExprPtr> args;
};

class BetweenExpr final : public Expr {
 public:
  BetweenExpr(ExprPtr expr, ExprPtr lo, ExprPtr hi, bool negated)
      : Expr(ExprKind::kBetween),
        expr(std::move(expr)), lo(std::move(lo)), hi(std::move(hi)),
        negated(negated) {}
  ExprPtr clone() const override {
    return std::make_unique<BetweenExpr>(expr->clone(), lo->clone(),
                                         hi->clone(), negated);
  }
  std::string toSql() const override;

  ExprPtr expr, lo, hi;
  bool negated;
};

class InExpr final : public Expr {
 public:
  InExpr(ExprPtr expr, std::vector<ExprPtr> list, bool negated)
      : Expr(ExprKind::kIn), expr(std::move(expr)), list(std::move(list)),
        negated(negated) {}
  ExprPtr clone() const override;
  std::string toSql() const override;

  ExprPtr expr;
  std::vector<ExprPtr> list;
  bool negated;
};

/// Internal node: reads slot \p slot of the EvalCtx `extra` span. The
/// executor substitutes aggregate calls with slot refs so outer expressions
/// (e.g. the merger's SUM(a)/SUM(b)) can be evaluated over per-group
/// aggregate results. Never produced by the parser; toSql() output is for
/// diagnostics only.
class SlotRefExpr final : public Expr {
 public:
  explicit SlotRefExpr(std::size_t slot) : Expr(ExprKind::kSlotRef), slot(slot) {}
  ExprPtr clone() const override { return std::make_unique<SlotRefExpr>(slot); }
  std::string toSql() const override {
    return "$slot" + std::to_string(slot);
  }

  std::size_t slot;
};

class IsNullExpr final : public Expr {
 public:
  IsNullExpr(ExprPtr expr, bool negated)
      : Expr(ExprKind::kIsNull), expr(std::move(expr)), negated(negated) {}
  ExprPtr clone() const override {
    return std::make_unique<IsNullExpr>(expr->clone(), negated);
  }
  std::string toSql() const override {
    return "(" + expr->toSql() + (negated ? " IS NOT NULL)" : " IS NULL)");
  }

  ExprPtr expr;
  bool negated;
};

// ---------------------------------------------------------------- statements

/// One select-list item: expression with optional alias.
struct SelectItem {
  ExprPtr expr;
  std::string alias;  // empty if none

  SelectItem clone() const { return {expr->clone(), alias}; }
  std::string toSql() const;
};

/// A table in the FROM clause: [db.]table [AS] alias.
struct TableRef {
  std::string database;  // empty if unqualified
  std::string table;
  std::string alias;     // empty if none

  /// Alias if present, else table name — the name columns bind against.
  const std::string& bindingName() const { return alias.empty() ? table : alias; }
};

struct OrderByItem {
  ExprPtr expr;
  bool descending = false;

  OrderByItem clone() const { return {expr->clone(), descending}; }
};

struct SelectStmt {
  bool distinct = false;  ///< SELECT DISTINCT: result rows deduplicated
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;                     // null if absent
  std::vector<ExprPtr> groupBy;
  ExprPtr having;                    // null if absent; may contain aggregates
  std::vector<OrderByItem> orderBy;
  std::optional<std::int64_t> limit;

  SelectStmt clone() const;
  std::string toSql() const;
  /// toSql() cut at each FROM table name: the result has from.size() + 1
  /// pieces, and toSql() == pieces[0] + from[0].table + pieces[1] + ... +
  /// from[n-1].table + pieces[n]. A chunk query template renders once and
  /// splices per-chunk table names into these pieces.
  std::vector<std::string> toSqlAroundTables() const;
};

struct CreateTableStmt {
  std::string table;
  bool ifNotExists = false;
  Schema schema;                           // used when asSelect is absent
  std::unique_ptr<SelectStmt> asSelect;    // CREATE TABLE ... AS SELECT

  std::string toSql() const;
};

struct InsertStmt {
  std::string table;
  std::vector<std::vector<Value>> rows;    // VALUES form (literals only)
  std::unique_ptr<SelectStmt> select;      // INSERT ... SELECT form

  std::string toSql() const;
};

struct DropTableStmt {
  std::string table;
  bool ifExists = false;

  std::string toSql() const;
};

/// EXPLAIN [ANALYZE] <select>: plan introspection. Handled entirely by the
/// frontend (czar) — the chunk executor rejects it, since workers only ever
/// see rewritten chunk SELECTs.
struct ExplainStmt {
  bool analyze = false;              ///< EXPLAIN ANALYZE: execute + profile
  std::unique_ptr<SelectStmt> select;

  std::string toSql() const;
};

using Statement = std::variant<SelectStmt, CreateTableStmt, InsertStmt,
                               DropTableStmt, ExplainStmt>;

std::string statementToSql(const Statement& stmt);

}  // namespace qserv::sql
