#include "sql/executor.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "sql/plan.h"
#include "util/strings.h"

namespace qserv::sql {

namespace {

using util::Result;
using util::Status;

/// Running accumulator for one aggregate over one group.
struct AggAccumulator {
  std::int64_t count = 0;
  std::int64_t intSum = 0;
  double doubleSum = 0.0;
  bool sawDouble = false;
  Value extreme;  // MIN/MAX

  void accumulate(AggKind kind, const Value& v) {
    switch (kind) {
      case AggKind::kCountStar:
        ++count;
        return;
      case AggKind::kCount:
        if (!v.isNull()) ++count;
        return;
      case AggKind::kSum:
      case AggKind::kAvg:
        if (v.isNull() || !v.isNumeric()) return;
        ++count;
        if (v.isInt() && !sawDouble) {
          intSum += v.asInt();
        } else {
          if (!sawDouble) {
            doubleSum = static_cast<double>(intSum);
            sawDouble = true;
          }
          doubleSum += v.toDouble();
        }
        return;
      case AggKind::kMin:
        if (v.isNull()) return;
        if (extreme.isNull() || v.compare(extreme) < 0) extreme = v;
        return;
      case AggKind::kMax:
        if (v.isNull()) return;
        if (extreme.isNull() || v.compare(extreme) > 0) extreme = v;
        return;
    }
  }

  Value finalize(AggKind kind) const {
    switch (kind) {
      case AggKind::kCountStar:
      case AggKind::kCount:
        return Value(count);
      case AggKind::kSum:
        if (count == 0) return Value::null();
        return sawDouble ? Value(doubleSum) : Value(intSum);
      case AggKind::kAvg: {
        if (count == 0) return Value::null();
        double s = sawDouble ? doubleSum : static_cast<double>(intSum);
        return Value(s / static_cast<double>(count));
      }
      case AggKind::kMin:
      case AggKind::kMax:
        return extreme;
    }
    return Value::null();
  }
};

// --------------------------------------------------------------- group key

struct GroupKey {
  std::vector<Value> values;

  bool operator==(const GroupKey& o) const {
    if (values.size() != o.values.size()) return false;
    for (std::size_t i = 0; i < values.size(); ++i) {
      bool an = values[i].isNull(), bn = o.values[i].isNull();
      if (an != bn) return false;
      if (!an && values[i].compare(o.values[i]) != 0) return false;
    }
    return true;
  }
};

struct GroupKeyHash {
  std::size_t operator()(const GroupKey& k) const {
    std::size_t h = 1469598103934665603ULL;
    for (const auto& v : k.values) {
      h ^= v.hash();
      h *= 1099511628211ULL;
    }
    return h;
  }
};

/// Replace every ColumnRef in a clone of \p expr with NULL — used to
/// evaluate select items over an empty group (global aggregates on empty
/// input behave like MySQL: COUNT=0, other columns NULL).
ExprPtr cloneWithColumnsAsNull(const Expr& expr) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef:
      return std::make_unique<LiteralExpr>(Value::null());
    case ExprKind::kUnary: {
      const auto& u = static_cast<const UnaryExpr&>(expr);
      return std::make_unique<UnaryExpr>(u.op, cloneWithColumnsAsNull(*u.operand));
    }
    case ExprKind::kBinary: {
      const auto& b = static_cast<const BinaryExpr&>(expr);
      return std::make_unique<BinaryExpr>(b.op, cloneWithColumnsAsNull(*b.lhs),
                                          cloneWithColumnsAsNull(*b.rhs));
    }
    case ExprKind::kFuncCall: {
      const auto& f = static_cast<const FuncCall&>(expr);
      std::vector<ExprPtr> args;
      args.reserve(f.args.size());
      for (const auto& a : f.args) args.push_back(cloneWithColumnsAsNull(*a));
      return std::make_unique<FuncCall>(f.name, std::move(args));
    }
    case ExprKind::kBetween: {
      const auto& b = static_cast<const BetweenExpr&>(expr);
      return std::make_unique<BetweenExpr>(
          cloneWithColumnsAsNull(*b.expr), cloneWithColumnsAsNull(*b.lo),
          cloneWithColumnsAsNull(*b.hi), b.negated);
    }
    case ExprKind::kIn: {
      const auto& i = static_cast<const InExpr&>(expr);
      std::vector<ExprPtr> list;
      list.reserve(i.list.size());
      for (const auto& e : i.list) list.push_back(cloneWithColumnsAsNull(*e));
      return std::make_unique<InExpr>(cloneWithColumnsAsNull(*i.expr),
                                      std::move(list), i.negated);
    }
    case ExprKind::kIsNull: {
      const auto& n = static_cast<const IsNullExpr&>(expr);
      return std::make_unique<IsNullExpr>(cloneWithColumnsAsNull(*n.expr),
                                          n.negated);
    }
    default:
      return expr.clone();
  }
}

// ------------------------------------------------------------------ runner

/// Runs a SelectPlan: every strategy was chosen by planSelect, so this
/// only reads rows, counts ExecStats and builds the result.
class PlanRunner {
 public:
  PlanRunner(SelectPlan& plan, ExecStats& stats, const FunctionRegistry& reg)
      : p_(plan), stats_(stats), registry_(reg) {}

  Result<TablePtr> run() {
    switch (p_.shortcut) {
      case SelectPlan::Shortcut::kMetadataCount:
        resultRows_.push_back(
            {Value(static_cast<std::int64_t>(p_.tables[0]->numRows()))});
        break;
      case SelectPlan::Shortcut::kCountPushdown:
        countPushdown();
        break;
      case SelectPlan::Shortcut::kNone:
        QSERV_RETURN_IF_ERROR(enumerateTuples());
        QSERV_RETURN_IF_ERROR(p_.aggregate ? consumeAggregate()
                                           : consumeProjection());
        break;
    }
    orderAndLimit();
    return buildResultTable();
  }

 private:
  /// A zone-map contradiction (predicate range outside the column's
  /// [min,max], or a NULL test the null counts rule out) skips table \p t's
  /// access path — index probe included — without touching a row.
  bool zonePruned(std::size_t t) {
    const TableAccess& a = p_.access[t];
    if (!a.filter || !a.filter->prunes(*p_.tables[t])) return false;
    ++stats_.zoneMapPrunes;
    stats_.zoneMapRowsSkipped += p_.tables[t]->numRows();
    return true;
  }

  void countScan(std::size_t t) {
    const std::size_t n = p_.tables[t]->numRows();
    stats_.rowsScanned += n;
    stats_.rowsScannedByTable[p_.tableKeys[t]] += n;
  }

  void countPushdown() {
    std::int64_t count = 0;
    if (!zonePruned(0)) {
      const Table& table = *p_.tables[0];
      countScan(0);
      ++stats_.vectorizedScans;
      stats_.vectorRowsIn += table.numRows();
      count = static_cast<std::int64_t>(p_.access[0].filter->count(table));
      stats_.vectorRowsOut += static_cast<std::uint64_t>(count);
    }
    resultRows_.push_back({Value(count)});
  }

  /// Candidate rows of table \p t: its access path, then its per-row
  /// conjuncts.
  std::vector<std::size_t> candidateRows(std::size_t t) {
    TableAccess& a = p_.access[t];
    const Table& table = *p_.tables[t];
    if (zonePruned(t)) return {};
    std::vector<std::size_t> rows;
    switch (a.kind) {
      case TableAccess::Kind::kIndexProbe:
        // Index-probed rows are point reads, not part of a sequential scan;
        // they are charged through indexLookups in the cost model and are
        // deliberately absent from rowsScannedByTable (which feeds
        // density-scaled scan-bandwidth accounting). The remaining
        // conjuncts run row-at-a-time (probes return few rows).
        if (a.range) {
          rows = a.index->lookupRange(a.range->first, a.range->second);
        } else {
          for (const auto& k : a.keys) {
            auto hits = a.index->lookup(k);
            rows.insert(rows.end(), hits.begin(), hits.end());
          }
          std::sort(rows.begin(), rows.end());
          rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        }
        ++stats_.indexLookups;
        stats_.rowsScanned += rows.size();
        break;
      case TableAccess::Kind::kKernelScan:
        // Kernels compact a selection vector over the typed columns; the
        // residuals run per surviving row through the scalar path
        // (identical semantics, see vector_eval.h).
        countScan(t);
        ++stats_.vectorizedScans;
        stats_.vectorRowsIn += table.numRows();
        a.filter->run(table, rows);
        stats_.vectorRowsOut += rows.size();
        if (!a.rowFilters.empty()) stats_.fallbackRows += rows.size();
        break;
      case TableAccess::Kind::kRowScan:
        countScan(t);
        rows.resize(table.numRows());
        std::iota(rows.begin(), rows.end(), std::size_t{0});
        break;
    }
    if (a.rowFilters.empty()) return rows;
    std::vector<std::size_t> rowCursor(p_.scope.size(), 0);
    EvalCtx ctx{p_.tables, rowCursor, {}};
    std::size_t kept = 0;
    for (std::size_t r : rows) {
      rowCursor[t] = r;
      bool keep = true;
      for (const auto& f : a.rowFilters) {
        if (!f->eval(ctx).isTrue()) {
          keep = false;
          break;
        }
      }
      if (keep) rows[kept++] = r;
    }
    rows.resize(kept);
    return rows;
  }

  Status enumerateTuples() {
    const std::size_t k = p_.scope.size();
    // Constant conjuncts are evaluated once; a non-true constant predicate
    // empties the result.
    for (const auto& c : p_.constantConjuncts) {
      EvalCtx ctx{{}, {}, {}};
      if (!c->eval(ctx).isTrue()) return Status::ok();
    }
    if (k == 0) {
      tuples_.push_back({});  // SELECT without FROM: one empty tuple
      return Status::ok();
    }

    auto rows0 = candidateRows(0);
    tuples_.reserve(rows0.size());
    for (std::size_t r : rows0) tuples_.push_back({r});

    for (std::size_t t = 1; t < k && !tuples_.empty(); ++t) {
      auto rows = candidateRows(t);
      JoinStage& stage = p_.joins[t - 1];
      std::vector<std::vector<std::size_t>> next;
      std::vector<std::size_t> rowCursor(k, 0);
      EvalCtx ctx{p_.tables, rowCursor, {}};
      // Residuals stream per pair: emit() completes the cursor (the caller
      // has set rowCursor[0..t-1] from the tuple), runs the filters, and
      // materializes the extended tuple only when every one passes — peak
      // memory is O(surviving pairs), never the O(n^2) cross product.
      auto setTupleCursor = [&](const std::vector<std::size_t>& tup) {
        for (std::size_t i = 0; i < tup.size(); ++i) rowCursor[i] = tup[i];
      };
      auto emit = [&](const std::vector<std::size_t>& tup, std::size_t r) {
        rowCursor[t] = r;
        for (const auto& f : stage.residuals) {
          if (!f->eval(ctx).isTrue()) return;
        }
        auto extended = tup;
        extended.push_back(r);
        next.push_back(std::move(extended));
      };

      switch (stage.kind) {
        case JoinStage::Kind::kHash: {
          // Build on table t's candidates.
          std::unordered_map<GroupKey, std::vector<std::size_t>, GroupKeyHash>
              hash;
          auto keyOf = [&](const std::vector<CompiledExprPtr>& exprs,
                           GroupKey& key) {
            for (const auto& e : exprs) {
              key.values.push_back(e->eval(ctx));
              if (key.values.back().isNull()) return false;  // NULL never joins
            }
            return true;
          };
          for (std::size_t r : rows) {
            rowCursor[t] = r;
            GroupKey key;
            if (keyOf(stage.buildKeys, key)) hash[std::move(key)].push_back(r);
          }
          for (const auto& tup : tuples_) {
            setTupleCursor(tup);
            GroupKey key;
            if (!keyOf(stage.probeKeys, key)) continue;
            auto it = hash.find(key);
            if (it == hash.end()) continue;
            for (std::size_t r : it->second) {
              ++stats_.joinMatches;
              emit(tup, r);
            }
          }
          break;
        }
        case JoinStage::Kind::kZone: {
          // Dec-banded index over table t's candidates, probed with an RA
          // window per outer tuple; the exact angSep comparison runs on
          // every candidate so results match the nested loop bit-for-bit
          // (candidates are re-sorted by row id so even the emission order
          // is identical).
          const SpatialJoinSpec& spatial = *stage.spatial;
          ++stats_.spatialJoins;
          QSERV_ASSIGN_OR_RETURN(
              ZoneIndex zindex,
              ZoneIndex::build(spatial, p_.scope, t, p_.tables, rows,
                               registry_));
          stats_.zoneJoinZonesBuilt += zindex.numZones();
          const std::uint64_t totalPairs =
              static_cast<std::uint64_t>(tuples_.size()) * rows.size();
          std::uint64_t candidates = 0;
          std::vector<std::uint32_t> hits;
          for (const auto& tup : tuples_) {
            setTupleCursor(tup);
            Value raV = stage.outerRa->eval(ctx);
            Value decV = stage.outerDec->eval(ctx);
            // NULL/non-numeric/non-finite outer coordinates never join.
            if (!raV.isNumeric() || !decV.isNumeric()) continue;
            double ra = raV.toDouble();
            double dec = decV.toDouble();
            if (!std::isfinite(ra) || !std::isfinite(dec)) continue;
            hits.clear();
            zindex.probe(ra, dec, hits, stats_.zoneJoinZonesProbed);
            candidates += hits.size();
            std::sort(hits.begin(), hits.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                        return zindex.entry(a).row < zindex.entry(b).row;
                      });
            for (std::uint32_t h : hits) {
              const ZoneIndex::Entry& e = zindex.entry(h);
              if (!spatial.matches(ra, dec, e.raOrig, e.dec)) continue;
              emit(tup, e.row);
            }
          }
          // The cost model charges pairs actually examined; the pruned
          // remainder of the cross product is the zone algorithm's win.
          stats_.pairsEvaluated += candidates;
          stats_.zoneJoinCandidates += candidates;
          stats_.zoneJoinPairsPruned += totalPairs - candidates;
          break;
        }
        case JoinStage::Kind::kNestedLoop:
          stats_.pairsEvaluated += tuples_.size() * rows.size();
          for (const auto& tup : tuples_) {
            setTupleCursor(tup);
            for (std::size_t r : rows) emit(tup, r);
          }
          break;
      }
      tuples_ = std::move(next);
    }
    return Status::ok();
  }

  Status consumeProjection() {
    std::vector<std::size_t> rowCursor(p_.scope.size(), 0);
    EvalCtx ctx{p_.tables, rowCursor, {}};
    bool canShortCircuit = p_.stmt->limit && p_.stmt->orderBy.empty();
    for (const auto& tup : tuples_) {
      if (canShortCircuit &&
          static_cast<std::int64_t>(resultRows_.size()) >= *p_.stmt->limit) {
        break;
      }
      for (std::size_t i = 0; i < tup.size(); ++i) rowCursor[i] = tup[i];
      std::vector<Value> row;
      row.reserve(p_.itemExprs.size());
      for (const auto& item : p_.itemExprs) row.push_back(item->eval(ctx));
      resultRows_.push_back(std::move(row));
    }
    return Status::ok();
  }

  Status consumeAggregate() {
    struct Group {
      std::vector<AggAccumulator> accs;
      std::vector<std::size_t> representative;
    };
    std::unordered_map<GroupKey, Group, GroupKeyHash> groups;
    std::vector<GroupKey> order;  // first-seen group order

    std::vector<std::size_t> rowCursor(p_.scope.size(), 0);
    EvalCtx ctx{p_.tables, rowCursor, {}};
    for (const auto& tup : tuples_) {
      for (std::size_t i = 0; i < tup.size(); ++i) rowCursor[i] = tup[i];
      GroupKey key;
      for (const auto& g : p_.groupKeys) {
        key.values.push_back(g->eval(ctx));
      }
      auto it = groups.find(key);
      if (it == groups.end()) {
        Group g;
        g.accs.resize(p_.aggs.size());
        g.representative = tup;
        it = groups.emplace(key, std::move(g)).first;
        order.push_back(key);
      }
      Group& g = it->second;
      for (std::size_t a = 0; a < p_.aggs.size(); ++a) {
        Value v;
        if (p_.aggArgs[a]) v = p_.aggArgs[a]->eval(ctx);
        g.accs[a].accumulate(p_.aggs[a].kind, v);
      }
    }

    if (groups.empty() && p_.stmt->groupBy.empty()) {
      // Global aggregate over empty input: one row; COUNT()=0, others NULL.
      std::vector<Value> aggValues;
      AggAccumulator empty;
      for (const auto& spec : p_.aggs) {
        aggValues.push_back(empty.finalize(spec.kind));
      }
      std::vector<Value> row;
      for (const auto& item : p_.items) {
        ExprPtr nulled = cloneWithColumnsAsNull(*item.expr);
        QSERV_ASSIGN_OR_RETURN(auto compiled,
                               bindExpr(*nulled, {}, registry_));
        EvalCtx ectx{{}, {}, aggValues};
        row.push_back(compiled->eval(ectx));
      }
      resultRows_.push_back(std::move(row));
      return Status::ok();
    }

    for (const GroupKey& key : order) {
      const Group& g = groups.at(key);
      std::vector<Value> aggValues;
      aggValues.reserve(p_.aggs.size());
      for (std::size_t a = 0; a < p_.aggs.size(); ++a) {
        aggValues.push_back(g.accs[a].finalize(p_.aggs[a].kind));
      }
      for (std::size_t i = 0; i < g.representative.size(); ++i) {
        rowCursor[i] = g.representative[i];
      }
      EvalCtx gctx{p_.tables, rowCursor, aggValues};
      if (p_.having && !p_.having->eval(gctx).isTrue()) continue;
      std::vector<Value> row;
      row.reserve(p_.itemExprs.size());
      for (const auto& item : p_.itemExprs) row.push_back(item->eval(gctx));
      resultRows_.push_back(std::move(row));
    }
    return Status::ok();
  }

  void orderAndLimit() {
    if (p_.stmt->distinct) {
      // Deduplicate rows (sqlEquals semantics via the group-key hash),
      // keeping first occurrences.
      std::unordered_map<GroupKey, bool, GroupKeyHash> seen;
      std::vector<std::vector<Value>> unique;
      unique.reserve(resultRows_.size());
      for (auto& row : resultRows_) {
        GroupKey key;
        key.values = row;
        if (seen.emplace(std::move(key), true).second) {
          unique.push_back(std::move(row));
        }
      }
      resultRows_ = std::move(unique);
    }
    if (!p_.orderKeys.empty()) {
      std::stable_sort(resultRows_.begin(), resultRows_.end(),
                       [&](const auto& a, const auto& b) {
                         for (auto [col, desc] : p_.orderKeys) {
                           int c = a[col].compare(b[col]);
                           if (c != 0) return desc ? c > 0 : c < 0;
                         }
                         return false;
                       });
    }
    if (p_.stmt->limit &&
        static_cast<std::int64_t>(resultRows_.size()) > *p_.stmt->limit) {
      resultRows_.resize(static_cast<std::size_t>(*p_.stmt->limit));
    }
  }

  Result<TablePtr> buildResultTable() {
    // Column types come from static inference where possible (so empty
    // results keep correct declared types across dump/replay); actual
    // values can only widen INT to DOUBLE. A column mixing strings with
    // numerics is an error; a fully undeterminable all-NULL column defaults
    // to DOUBLE.
    Schema schema;
    const std::size_t ncols = p_.outputNames.size();
    for (std::size_t c = 0; c < ncols; ++c) {
      bool hasInt = false, hasDouble = false, hasString = false;
      for (const auto& row : resultRows_) {
        switch (row[c].type()) {
          case ValueType::kInt: hasInt = true; break;
          case ValueType::kDouble: hasDouble = true; break;
          case ValueType::kString: hasString = true; break;
          case ValueType::kNull: break;
        }
      }
      if (hasString && (hasInt || hasDouble)) {
        return Status::internal(util::format(
            "column %s mixes string and numeric values",
            p_.outputNames[c].c_str()));
      }
      std::optional<ColumnType> declared =
          c < p_.declaredTypes.size() ? p_.declaredTypes[c] : std::nullopt;
      ColumnType t;
      if (declared) {
        t = *declared;
        if (t == ColumnType::kInt && hasDouble) t = ColumnType::kDouble;
        if (t != ColumnType::kString && hasString) t = ColumnType::kString;
      } else {
        t = hasString ? ColumnType::kString
            : hasDouble ? ColumnType::kDouble
            : hasInt    ? ColumnType::kInt
                        : ColumnType::kDouble;
      }
      schema.addColumn(ColumnDef{p_.outputNames[c], t});
    }
    auto table = std::make_shared<Table>("result", std::move(schema));
    for (const auto& row : resultRows_) {
      QSERV_RETURN_IF_ERROR(table->appendRow(row));
    }
    stats_.rowsOutput += resultRows_.size();
    return table;
  }

  SelectPlan& p_;
  ExecStats& stats_;
  const FunctionRegistry& registry_;
  std::vector<std::vector<std::size_t>> tuples_;
  std::vector<std::vector<Value>> resultRows_;
};

Result<TablePtr> emptyResult() {
  return std::make_shared<Table>("result", Schema{});
}

}  // namespace

Result<TablePtr> executeSelect(Database& db, const SelectStmt& sel,
                               ExecStats& stats) {
  ++stats.statements;
  QSERV_ASSIGN_OR_RETURN(SelectPlan plan, planSelect(db, sel));
  return PlanRunner(plan, stats, db.functions()).run();
}

Result<TablePtr> executeStatement(Database& db, const Statement& stmt,
                                  ExecStats& stats) {
  if (const auto* sel = std::get_if<SelectStmt>(&stmt)) {
    return executeSelect(db, *sel, stats);
  }
  ++stats.statements;
  if (const auto* create = std::get_if<CreateTableStmt>(&stmt)) {
    if (db.hasTable(create->table)) {
      if (create->ifNotExists) return emptyResult();
      return Status::alreadyExists(
          util::format("table %s already exists", create->table.c_str()));
    }
    if (create->asSelect) {
      ExecStats inner;
      QSERV_ASSIGN_OR_RETURN(TablePtr result,
                             executeSelect(db, *create->asSelect, inner));
      stats.add(inner);
      stats.rowsInserted += result->numRows();
      auto table = std::make_shared<Table>(create->table, result->schema());
      QSERV_RETURN_IF_ERROR(table->appendFrom(*result));
      QSERV_RETURN_IF_ERROR(db.registerTable(std::move(table)));
      return emptyResult();
    }
    if (create->schema.numColumns() == 0) {
      return Status::invalidArgument("CREATE TABLE with no columns");
    }
    QSERV_RETURN_IF_ERROR(db.registerTable(
        std::make_shared<Table>(create->table, create->schema)));
    return emptyResult();
  }
  if (const auto* insert = std::get_if<InsertStmt>(&stmt)) {
    TablePtr table = db.findTable(insert->table);
    if (!table) {
      return Status::notFound(
          util::format("unknown table %s", insert->table.c_str()));
    }
    if (insert->select) {
      ExecStats inner;
      QSERV_ASSIGN_OR_RETURN(TablePtr result,
                             executeSelect(db, *insert->select, inner));
      stats.add(inner);
      if (result->numColumns() != table->numColumns()) {
        return Status::invalidArgument(util::format(
            "INSERT ... SELECT: %zu columns into %zu-column table",
            result->numColumns(), table->numColumns()));
      }
      QSERV_RETURN_IF_ERROR(table->appendFrom(*result));
      stats.rowsInserted += result->numRows();
    } else {
      // Bulk append: one validate+reserve pass over the whole VALUES list
      // (this is the dump-replay hot path, see sql/dump.cc).
      QSERV_RETURN_IF_ERROR(table->appendRows(insert->rows));
      stats.rowsInserted += insert->rows.size();
    }
    db.refreshIndexes(insert->table);
    return emptyResult();
  }
  if (const auto* drop = std::get_if<DropTableStmt>(&stmt)) {
    QSERV_RETURN_IF_ERROR(db.dropTable(drop->table, drop->ifExists));
    return emptyResult();
  }
  if (std::get_if<ExplainStmt>(&stmt)) {
    // Plan introspection is a frontend concern; chunk executors only ever
    // receive rewritten SELECTs.
    return Status::invalidArgument(
        "EXPLAIN is handled by the frontend, not the chunk executor");
  }
  return Status::internal("unhandled statement type");
}

}  // namespace qserv::sql
