#include "sql/plan.h"

#include <algorithm>

#include "util/strings.h"

namespace qserv::sql {

namespace {

using util::Result;
using util::Status;

/// Replace aggregate FuncCall nodes in \p expr with SlotRefExpr nodes,
/// appending their specs to \p aggs. Fails on nested aggregates.
Result<ExprPtr> extractAggregates(ExprPtr expr, std::vector<AggSpec>& aggs,
                                  bool insideAggregate = false) {
  switch (expr->kind()) {
    case ExprKind::kFuncCall: {
      auto* f = static_cast<FuncCall*>(expr.get());
      if (f->isAggregate()) {
        if (insideAggregate) {
          return Status::invalidArgument("nested aggregate functions");
        }
        if (f->args.size() != 1) {
          return Status::invalidArgument(
              util::format("%s() takes exactly one argument", f->name.c_str()));
        }
        AggSpec spec;
        bool star = f->args[0]->kind() == ExprKind::kStar;
        if (util::iequals(f->name, "COUNT")) {
          spec.kind = star ? AggKind::kCountStar : AggKind::kCount;
        } else if (star) {
          return Status::invalidArgument(
              util::format("%s(*) is not valid", f->name.c_str()));
        } else if (util::iequals(f->name, "SUM")) {
          spec.kind = AggKind::kSum;
        } else if (util::iequals(f->name, "AVG")) {
          spec.kind = AggKind::kAvg;
        } else if (util::iequals(f->name, "MIN")) {
          spec.kind = AggKind::kMin;
        } else {
          spec.kind = AggKind::kMax;
        }
        if (!star) {
          QSERV_ASSIGN_OR_RETURN(
              spec.arg,
              extractAggregates(std::move(f->args[0]), aggs, true));
          // A column must appear somewhere inside an aggregate arg; a pure
          // nested aggregate was already rejected above.
        }
        aggs.push_back(std::move(spec));
        return ExprPtr(std::make_unique<SlotRefExpr>(aggs.size() - 1));
      }
      for (auto& a : f->args) {
        QSERV_ASSIGN_OR_RETURN(a,
                               extractAggregates(std::move(a), aggs,
                                                 insideAggregate));
      }
      return expr;
    }
    case ExprKind::kUnary: {
      auto* u = static_cast<UnaryExpr*>(expr.get());
      QSERV_ASSIGN_OR_RETURN(
          u->operand, extractAggregates(std::move(u->operand), aggs,
                                        insideAggregate));
      return expr;
    }
    case ExprKind::kBinary: {
      auto* b = static_cast<BinaryExpr*>(expr.get());
      QSERV_ASSIGN_OR_RETURN(
          b->lhs, extractAggregates(std::move(b->lhs), aggs, insideAggregate));
      QSERV_ASSIGN_OR_RETURN(
          b->rhs, extractAggregates(std::move(b->rhs), aggs, insideAggregate));
      return expr;
    }
    case ExprKind::kBetween: {
      auto* b = static_cast<BetweenExpr*>(expr.get());
      QSERV_ASSIGN_OR_RETURN(
          b->expr, extractAggregates(std::move(b->expr), aggs, insideAggregate));
      QSERV_ASSIGN_OR_RETURN(
          b->lo, extractAggregates(std::move(b->lo), aggs, insideAggregate));
      QSERV_ASSIGN_OR_RETURN(
          b->hi, extractAggregates(std::move(b->hi), aggs, insideAggregate));
      return expr;
    }
    case ExprKind::kIn: {
      auto* i = static_cast<InExpr*>(expr.get());
      QSERV_ASSIGN_OR_RETURN(
          i->expr, extractAggregates(std::move(i->expr), aggs, insideAggregate));
      for (auto& item : i->list) {
        QSERV_ASSIGN_OR_RETURN(
            item, extractAggregates(std::move(item), aggs, insideAggregate));
      }
      return expr;
    }
    case ExprKind::kIsNull: {
      auto* n = static_cast<IsNullExpr*>(expr.get());
      QSERV_ASSIGN_OR_RETURN(
          n->expr, extractAggregates(std::move(n->expr), aggs, insideAggregate));
      return expr;
    }
    default:
      return expr;
  }
}

bool containsAggregate(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCall&>(expr);
      if (f.isAggregate()) return true;
      for (const auto& a : f.args) {
        if (containsAggregate(*a)) return true;
      }
      return false;
    }
    case ExprKind::kUnary:
      return containsAggregate(*static_cast<const UnaryExpr&>(expr).operand);
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return containsAggregate(*b.lhs) || containsAggregate(*b.rhs);
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      return containsAggregate(*b.expr) || containsAggregate(*b.lo) ||
             containsAggregate(*b.hi);
    }
    case ExprKind::kIn: {
      const auto& i = static_cast<const InExpr&>(expr);
      if (containsAggregate(*i.expr)) return true;
      for (const auto& e : i.list) {
        if (containsAggregate(*e)) return true;
      }
      return false;
    }
    case ExprKind::kIsNull:
      return containsAggregate(*static_cast<const IsNullExpr&>(expr).expr);
    default:
      return false;
  }
}

/// Flatten an AND tree into conjuncts (borrowed pointers into the tree).
void flattenConjuncts(const Expr* expr, std::vector<const Expr*>& out) {
  if (expr->kind() == ExprKind::kBinary) {
    const auto* b = static_cast<const BinaryExpr*>(expr);
    if (b->op == BinOp::kAnd) {
      flattenConjuncts(b->lhs.get(), out);
      flattenConjuncts(b->rhs.get(), out);
      return;
    }
  }
  out.push_back(expr);
}

struct Conjunct {
  const Expr* expr = nullptr;
  std::vector<int> tables;  // referenced scope-table indices, ascending
};

/// An index-probe shape: col = const | col IN (consts) | col BETWEEN consts.
/// A null column means \p e has none of these shapes.
struct ProbeShape {
  const ColumnRef* col = nullptr;
  std::vector<const Expr*> keys;  // the constants; BETWEEN: lo, hi
  bool range = false;
};

ProbeShape probeShape(const Expr& e) {
  auto column = [](const Expr& x) {
    return x.kind() == ExprKind::kColumnRef
               ? static_cast<const ColumnRef*>(&x) : nullptr;
  };
  ProbeShape s;
  if (e.kind() == ExprKind::kBinary) {
    const auto& b = static_cast<const BinaryExpr&>(e);
    if (b.op != BinOp::kEq) return s;
    if (column(*b.lhs) && isConstExpr(*b.rhs)) {
      s.keys = {b.rhs.get()};
      s.col = column(*b.lhs);
    } else if (column(*b.rhs) && isConstExpr(*b.lhs)) {
      s.keys = {b.lhs.get()};
      s.col = column(*b.rhs);
    }
  } else if (e.kind() == ExprKind::kIn) {
    const auto& in = static_cast<const InExpr&>(e);
    if (in.negated) return s;
    for (const auto& item : in.list) {
      if (!isConstExpr(*item)) return s;
      s.keys.push_back(item.get());
    }
    s.col = column(*in.expr);
  } else if (e.kind() == ExprKind::kBetween) {
    const auto& bt = static_cast<const BetweenExpr&>(e);
    if (!bt.negated && isConstExpr(*bt.lo) && isConstExpr(*bt.hi)) {
      s.keys = {bt.lo.get(), bt.hi.get()};
      s.range = true;
      s.col = column(*bt.expr);
    }
  }
  return s;
}

class Planner {
 public:
  Planner(const Database& db, const SelectStmt& sel)
      : db_(db), sel_(sel), registry_(db.functions()) {
    p_.stmt = &sel;
  }

  Result<SelectPlan> run() {
    QSERV_RETURN_IF_ERROR(resolveFrom());
    QSERV_RETURN_IF_ERROR(expandItems());
    QSERV_RETURN_IF_ERROR(splitWhere());
    QSERV_RETURN_IF_ERROR(planOrder());
    const bool countStarOnly =
        p_.aggregate && p_.scope.size() == 1 && sel_.groupBy.empty() &&
        p_.aggs.size() == 1 && p_.aggs[0].kind == AggKind::kCountStar &&
        p_.items.size() == 1 &&
        p_.items[0].expr->kind() == ExprKind::kSlotRef;
    // MyISAM-style shortcut: unrestricted COUNT(*) on one table answers
    // from row-count metadata without a scan (paper relies on this for the
    // cheap full-sky HV1 count; see DESIGN.md).
    if (countStarOnly && !sel_.where) {
      p_.shortcut = SelectPlan::Shortcut::kMetadataCount;
      return std::move(p_);
    }
    // Column-free conjuncts are bound here, surfacing unknown-function
    // errors (e.g. an unrewritten qserv_areaspec_box).
    for (const auto& c : conjuncts_) {
      if (!c.tables.empty()) continue;
      QSERV_ASSIGN_OR_RETURN(auto compiled,
                             bindExpr(*c.expr, p_.scope, registry_));
      p_.constantConjuncts.push_back(std::move(compiled));
    }
    for (std::size_t t = 0; t < p_.scope.size(); ++t) {
      QSERV_RETURN_IF_ERROR(planAccess(t));
    }
    for (std::size_t t = 1; t < p_.scope.size(); ++t) {
      QSERV_RETURN_IF_ERROR(planJoin(t));
    }
    // Filtered COUNT(*) over a kernel scan with no residuals: count
    // survivors straight off the selection vectors, skipping tuple
    // materialization and the aggregate hash (the scan-heavy paper queries
    // are mostly of this shape).
    if (countStarOnly && p_.constantConjuncts.empty() &&
        p_.access[0].kind == TableAccess::Kind::kKernelScan &&
        p_.access[0].rowFilters.empty()) {
      p_.shortcut = SelectPlan::Shortcut::kCountPushdown;
    }
    return std::move(p_);
  }

 private:
  /// Static output type of \p expr, or nullopt when undeterminable.
  /// Keeps empty result sets carrying correct column types — essential for
  /// dump/replay (an empty chunk result must not demote BIGINT columns).
  std::optional<ColumnType> inferType(const Expr& expr) const {
    switch (expr.kind()) {
      case ExprKind::kLiteral: {
        const auto& v = static_cast<const LiteralExpr&>(expr).value;
        switch (v.type()) {
          case ValueType::kInt: return ColumnType::kInt;
          case ValueType::kDouble: return ColumnType::kDouble;
          case ValueType::kString: return ColumnType::kString;
          case ValueType::kNull: return std::nullopt;
        }
        return std::nullopt;
      }
      case ExprKind::kColumnRef: {
        auto slot =
            resolveColumn(static_cast<const ColumnRef&>(expr), p_.scope);
        if (!slot.isOk()) return std::nullopt;
        return p_.scope[slot->tableIdx].table->schema()
            .column(slot->columnIdx).type;
      }
      case ExprKind::kSlotRef: {
        std::size_t k = static_cast<const SlotRefExpr&>(expr).slot;
        if (k >= p_.aggs.size()) return std::nullopt;
        switch (p_.aggs[k].kind) {
          case AggKind::kCountStar:
          case AggKind::kCount:
            return ColumnType::kInt;
          case AggKind::kAvg:
            return ColumnType::kDouble;
          case AggKind::kSum:
          case AggKind::kMin:
          case AggKind::kMax:
            return p_.aggs[k].arg ? inferType(*p_.aggs[k].arg) : std::nullopt;
        }
        return std::nullopt;
      }
      case ExprKind::kUnary: {
        const auto& u = static_cast<const UnaryExpr&>(expr);
        if (u.op == UnOp::kNot) return ColumnType::kInt;
        return inferType(*u.operand);
      }
      case ExprKind::kBinary: {
        const auto& b = static_cast<const BinaryExpr&>(expr);
        switch (b.op) {
          case BinOp::kEq: case BinOp::kNe: case BinOp::kLt: case BinOp::kLe:
          case BinOp::kGt: case BinOp::kGe: case BinOp::kAnd: case BinOp::kOr:
            return ColumnType::kInt;
          case BinOp::kDiv:
            return ColumnType::kDouble;
          case BinOp::kAdd: case BinOp::kSub: case BinOp::kMul:
          case BinOp::kMod: {
            auto l = inferType(*b.lhs);
            auto r = inferType(*b.rhs);
            if (l == ColumnType::kInt && r == ColumnType::kInt) {
              return ColumnType::kInt;
            }
            if (l && r) return ColumnType::kDouble;
            return std::nullopt;
          }
        }
        return std::nullopt;
      }
      case ExprKind::kBetween:
      case ExprKind::kIn:
      case ExprKind::kIsNull:
        return ColumnType::kInt;
      case ExprKind::kFuncCall:
        // Scalar functions are numeric; all builtins return doubles (the
        // boolean-ish qserv_ptInSphericalBox yields 0/1 ints, which a
        // DOUBLE column accepts).
        return ColumnType::kDouble;
      default:
        return std::nullopt;
    }
  }

  Status resolveFrom() {
    for (const TableRef& ref : sel_.from) {
      std::string key =
          ref.database.empty() ? ref.table : ref.database + "." + ref.table;
      TablePtr t = db_.findTable(key);
      if (!t && !ref.database.empty()) t = db_.findTable(ref.table);
      if (!t) {
        return Status::notFound(
            util::format("unknown table %s", key.c_str()));
      }
      p_.tableKeys.push_back(key);
      p_.scope.push_back(ScopeTable{ref.bindingName(), t.get()});
      p_.tables.push_back(t.get());
      p_.pins.push_back(std::move(t));
    }
    return Status::ok();
  }

  Status expandItems() {
    for (const SelectItem& item : sel_.items) {
      if (item.expr->kind() == ExprKind::kStar) {
        const auto& star = static_cast<const StarExpr&>(*item.expr);
        if (!item.alias.empty()) {
          return Status::invalidArgument("'*' cannot be aliased");
        }
        bool matched = false;
        for (const auto& st : p_.scope) {
          if (!star.qualifier.empty() &&
              !util::iequals(star.qualifier, st.bindingName)) {
            continue;
          }
          matched = true;
          for (const auto& col : st.table->schema().columns()) {
            SelectItem expanded;
            expanded.expr = std::make_unique<ColumnRef>(
                p_.scope.size() > 1 ? st.bindingName : "", col.name);
            expanded.alias = col.name;
            p_.items.push_back(std::move(expanded));
          }
        }
        if (!matched) {
          return Status::notFound(util::format(
              "'%s.*' does not match any table", star.qualifier.c_str()));
        }
        continue;
      }
      p_.items.push_back(item.clone());
    }
    if (p_.items.empty()) {
      return Status::invalidArgument("empty select list");
    }

    // Output column names.
    for (const auto& item : p_.items) {
      p_.outputNames.push_back(item.alias.empty() ? item.expr->toSql()
                                                  : item.alias);
    }

    // Aggregate extraction.
    bool anyAgg = false;
    for (const auto& item : p_.items) {
      if (containsAggregate(*item.expr)) anyAgg = true;
    }
    p_.aggregate = anyAgg || !sel_.groupBy.empty();
    ExprPtr havingExpr;  // aggregate calls replaced with slot refs
    if (sel_.having && !p_.aggregate) {
      return Status::invalidArgument("HAVING requires GROUP BY");
    }
    if (p_.aggregate) {
      for (auto& item : p_.items) {
        QSERV_ASSIGN_OR_RETURN(
            item.expr, extractAggregates(std::move(item.expr), p_.aggs));
      }
      // HAVING may reference aggregates; its calls share the same slot list
      // so they accumulate alongside the select items'.
      if (sel_.having) {
        QSERV_ASSIGN_OR_RETURN(
            havingExpr, extractAggregates(sel_.having->clone(), p_.aggs));
      }
      // Compile aggregate args and group-by keys.
      for (const auto& spec : p_.aggs) {
        if (spec.arg) {
          QSERV_ASSIGN_OR_RETURN(auto compiled,
                                 bindExpr(*spec.arg, p_.scope, registry_));
          p_.aggArgs.push_back(std::move(compiled));
        } else {
          p_.aggArgs.push_back(nullptr);
        }
      }
      for (const auto& g : sel_.groupBy) {
        if (containsAggregate(*g)) {
          return Status::invalidArgument("aggregate in GROUP BY");
        }
        QSERV_ASSIGN_OR_RETURN(auto compiled,
                               bindExpr(*g, p_.scope, registry_));
        p_.groupKeys.push_back(std::move(compiled));
      }
    }
    // Compile item expressions (slot refs resolve through EvalCtx.extra).
    for (const auto& item : p_.items) {
      QSERV_ASSIGN_OR_RETURN(auto compiled,
                             bindExpr(*item.expr, p_.scope, registry_));
      p_.itemExprs.push_back(std::move(compiled));
      p_.declaredTypes.push_back(inferType(*item.expr));
    }
    if (havingExpr) {
      QSERV_ASSIGN_OR_RETURN(p_.having,
                             bindExpr(*havingExpr, p_.scope, registry_));
    }
    return Status::ok();
  }

  /// Scope tables referenced by \p e, ascending.
  Result<std::vector<int>> tablesOf(const Expr& e) const {
    std::vector<bool> used(p_.scope.size(), false);
    QSERV_RETURN_IF_ERROR(collectReferencedTables(e, p_.scope, used));
    std::vector<int> out;
    for (std::size_t i = 0; i < used.size(); ++i) {
      if (used[i]) out.push_back(static_cast<int>(i));
    }
    return out;
  }

  Status splitWhere() {
    if (!sel_.where) return Status::ok();
    if (containsAggregate(*sel_.where)) {
      return Status::invalidArgument("aggregates are not allowed in WHERE");
    }
    std::vector<const Expr*> flat;
    flattenConjuncts(sel_.where.get(), flat);
    for (const Expr* e : flat) {
      QSERV_ASSIGN_OR_RETURN(auto tables, tablesOf(*e));
      conjuncts_.push_back(Conjunct{e, std::move(tables)});
    }
    return Status::ok();
  }

  /// Resolve each ORDER BY expression to an output column: by alias, by
  /// output name, or by serialized expression text.
  Status planOrder() {
    for (const auto& ob : sel_.orderBy) {
      std::string want = ob.expr->toSql();
      std::optional<std::size_t> found;
      for (std::size_t i = 0; i < p_.outputNames.size(); ++i) {
        if (util::iequals(p_.outputNames[i], want) ||
            util::iequals(p_.items[i].alias, want)) {
          found = i;
          break;
        }
      }
      if (!found) {
        return Status::unimplemented(util::format(
            "ORDER BY expression %s must appear in the select list",
            want.c_str()));
      }
      p_.orderKeys.emplace_back(*found, ob.descending);
    }
    return Status::ok();
  }

  /// Table \p t's access path over its single-table conjuncts: an ordered
  /// index on a probe-shaped conjunct wins (it reads fewer rows than even a
  /// vectorized scan), then a kernel scan, then a row-at-a-time scan.
  Status planAccess(std::size_t t) {
    using Kind = TableAccess::Kind;
    TableAccess a;
    for (const auto& c : conjuncts_) {
      if (c.tables.size() == 1 && c.tables[0] == static_cast<int>(t)) {
        a.conjuncts.push_back(c.expr);
      }
    }
    if (vectorizedFilterEnabled()) {
      QSERV_ASSIGN_OR_RETURN(
          ScanFilter sf,
          compileScanFilter(a.conjuncts, p_.scope, t, registry_));
      if (sf.hasKernels()) a.filter = std::move(sf);
    }
    for (std::size_t ci = 0; ci < a.conjuncts.size(); ++ci) {
      ProbeShape s = probeShape(*a.conjuncts[ci]);
      if (s.col == nullptr) continue;
      auto slot = resolveColumn(*s.col, p_.scope);
      if (!slot.isOk() || slot->tableIdx != t) continue;
      a.index = db_.findIndex(p_.tableKeys[t], s.col->column);
      if (!a.index) continue;
      std::vector<Value> keys;
      for (const Expr* k : s.keys) {
        QSERV_ASSIGN_OR_RETURN(Value v, evalConstExpr(*k, registry_));
        keys.push_back(std::move(v));
      }
      if (s.range) {
        a.range.emplace(std::move(keys[0]), std::move(keys[1]));
      } else {
        a.keys = std::move(keys);
      }
      a.kind = Kind::kIndexProbe;
      a.probeConjunct = ci;
      break;
    }
    if (a.kind != Kind::kIndexProbe && a.filter) a.kind = Kind::kKernelScan;
    for (std::size_t ci = 0; ci < a.conjuncts.size(); ++ci) {
      if (a.kind == Kind::kIndexProbe && ci == a.probeConjunct) continue;
      if (a.kind == Kind::kKernelScan &&
          !std::binary_search(a.filter->residuals().begin(),
                              a.filter->residuals().end(), ci)) {
        continue;
      }
      QSERV_ASSIGN_OR_RETURN(auto compiled,
                             bindExpr(*a.conjuncts[ci], p_.scope, registry_));
      a.rowFilters.push_back(std::move(compiled));
    }
    p_.access.push_back(std::move(a));
    return Status::ok();
  }

  /// Join stage \p t over the conjuncts whose highest table is t: hash on
  /// equi keys `expr(tables < t) = expr(t)`, else a zone join on a
  /// near-neighbor conjunct, else a nested loop. The remaining conjuncts
  /// are the stage's residuals.
  Status planJoin(std::size_t t) {
    const int ti = static_cast<int>(t);
    JoinStage j;
    std::vector<const Expr*> stage;
    for (const auto& c : conjuncts_) {
      if (c.tables.size() >= 2 && c.tables.back() == ti) {
        stage.push_back(c.expr);
      }
    }
    std::vector<bool> consumed(stage.size(), false);
    auto onlyT = [&](const std::vector<int>& v) {
      return v.size() == 1 && v[0] == ti;
    };
    auto allBelowT = [&](const std::vector<int>& v) {
      return !v.empty() && v.back() < ti;
    };
    for (std::size_t i = 0; i < stage.size(); ++i) {
      if (stage[i]->kind() != ExprKind::kBinary) continue;
      const auto* b = static_cast<const BinaryExpr*>(stage[i]);
      if (b->op != BinOp::kEq) continue;
      QSERV_ASSIGN_OR_RETURN(auto lhsTables, tablesOf(*b->lhs));
      QSERV_ASSIGN_OR_RETURN(auto rhsTables, tablesOf(*b->rhs));
      const Expr *probe = b->lhs.get(), *build = b->rhs.get();
      if (onlyT(lhsTables) && allBelowT(rhsTables)) {
        std::swap(probe, build);
      } else if (!(onlyT(rhsTables) && allBelowT(lhsTables))) {
        continue;
      }
      QSERV_ASSIGN_OR_RETURN(auto bk, bindExpr(*build, p_.scope, registry_));
      QSERV_ASSIGN_OR_RETURN(auto pk, bindExpr(*probe, p_.scope, registry_));
      j.buildKeys.push_back(std::move(bk));
      j.probeKeys.push_back(std::move(pk));
      j.keyConjuncts.push_back(stage[i]);
      consumed[i] = true;
    }
    if (!j.probeKeys.empty()) {
      j.kind = JoinStage::Kind::kHash;
    } else if (spatialJoinEnabled()) {
      for (std::size_t i = 0; i < stage.size(); ++i) {
        QSERV_ASSIGN_OR_RETURN(
            auto m, matchSpatialJoin(*stage[i], p_.scope, t, registry_));
        if (!m) continue;
        QSERV_ASSIGN_OR_RETURN(j.outerRa,
                               bindExpr(*m->outerRa, p_.scope, registry_));
        QSERV_ASSIGN_OR_RETURN(j.outerDec,
                               bindExpr(*m->outerDec, p_.scope, registry_));
        j.kind = JoinStage::Kind::kZone;
        j.keyConjuncts.push_back(stage[i]);
        j.spatial = std::move(m);
        consumed[i] = true;
        break;
      }
    }
    for (std::size_t i = 0; i < stage.size(); ++i) {
      if (consumed[i]) continue;
      QSERV_ASSIGN_OR_RETURN(auto compiled,
                             bindExpr(*stage[i], p_.scope, registry_));
      j.residuals.push_back(std::move(compiled));
    }
    p_.joins.push_back(std::move(j));
    return Status::ok();
  }

  const Database& db_;
  const SelectStmt& sel_;
  const FunctionRegistry& registry_;
  std::vector<Conjunct> conjuncts_;
  SelectPlan p_;
};

}  // namespace

Result<SelectPlan> planSelect(const Database& db, const SelectStmt& sel) {
  return Planner(db, sel).run();
}

PlanDescription SelectPlan::describe() const {
  // Per-table parts, named when the query has several tables.
  auto perTable = [&](const std::vector<std::string>& parts,
                      const char* none) {
    std::vector<std::string> named;
    for (std::size_t t = 0; t < parts.size(); ++t) {
      if (parts[t].empty()) continue;
      named.push_back(scope.size() > 1 ? scope[t].bindingName + ": " + parts[t]
                                       : parts[t]);
    }
    return named.empty() ? std::string(none) : util::join(named, "; ");
  };
  std::vector<std::string> reads, filters, zones;
  for (std::size_t t = 0; t < access.size(); ++t) {
    const TableAccess& a = access[t];
    const std::size_t perRow = a.rowFilters.size();
    switch (a.kind) {
      case TableAccess::Kind::kIndexProbe:
        reads.push_back("index probe on " +
                        a.conjuncts[a.probeConjunct]->toSql());
        filters.push_back(
            util::format("index probe + %zu scalar residuals", perRow));
        break;
      case TableAccess::Kind::kKernelScan:
        reads.push_back(shortcut == Shortcut::kCountPushdown
                            ? "kernel scan (COUNT(*) pushdown)"
                            : "kernel scan");
        filters.push_back(
            util::format("vectorized (%zu kernel conjuncts, %zu scalar "
                         "residuals)", a.filter->numKernels(), perRow));
        break;
      case TableAccess::Kind::kRowScan:
        reads.push_back("row scan");
        filters.push_back(
            perRow == 0 ? "" : util::format("scalar (%zu conjuncts)", perRow));
        break;
    }
    std::vector<std::string> cols;
    if (a.filter) {
      for (std::size_t c : a.filter->kernelColumns()) {
        cols.push_back(tables[t]->schema().column(c).name);
      }
    }
    zones.push_back(a.filter ? "eligible (" + util::join(cols, ", ") + ")"
                             : "");
  }
  PlanDescription d;
  d.access = shortcut == Shortcut::kMetadataCount
                 ? "row-count metadata (no scan)"
                 : perTable(reads, "none (no FROM clause)");
  d.filter = perTable(filters, stmt->where ? "none (no single-table conjunct)"
                                           : "none (no WHERE clause)");
  d.zoneMap = perTable(zones, "not eligible (no kernel conjunct)");
  std::vector<std::string> stages;
  for (const JoinStage& j : joins) {
    std::vector<std::string> keys;
    for (const Expr* k : j.keyConjuncts) keys.push_back(k->toSql());
    std::string s = "nested loop (no equi or spatial join key)";
    if (j.kind == JoinStage::Kind::kHash) {
      s = "hash join on " + util::join(keys, " AND ");
    } else if (j.kind == JoinStage::Kind::kZone) {
      s = "zone join on " + util::join(keys, " AND ");
    }
    if (!j.residuals.empty()) {
      s += util::format(" + %zu residual conjuncts", j.residuals.size());
    }
    stages.push_back(std::move(s));
  }
  d.join = scope.size() < 2 ? "none (single table)" : util::join(stages, "; ");
  return d;
}

}  // namespace qserv::sql
