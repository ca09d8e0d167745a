/// \file plan.h
/// \brief The physical plan of one SELECT: every structural decision, once.
///
/// planSelect() resolves the FROM tables, expands `*`, extracts aggregates
/// into slots, splits WHERE into conjuncts, and decides from table schemas
/// and indexes alone (never from row contents):
///  - the shortcuts: row-count metadata for an unrestricted COUNT(*), and a
///    COUNT(*) pushdown onto a kernel scan that has no residual conjuncts;
///  - each table's access path: an ordered-index probe on one conjunct, a
///    kernel scan (a ScanFilter, sql/vector_eval.h, plus residual conjuncts
///    applied per surviving row), or a row-at-a-time scan;
///  - each join stage: hash keys, a zone join (sql/spatial_join.h) or a
///    nested loop, plus the conjuncts that stage filters;
///  - aggregation/grouping, ORDER BY columns and LIMIT.
///
/// executeSelect() (sql/executor.h) runs the plan; EXPLAIN renders it with
/// describe(), so the plan it prints is the plan that runs. Only the data
/// itself decides at run time: a zone map that rules out every row skips
/// the table's access path, and an empty join stage ends the join. The
/// process-wide vectorization and zone-join switches are read here.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sql/ast.h"
#include "sql/database.h"
#include "sql/expr_eval.h"
#include "sql/spatial_join.h"
#include "sql/vector_eval.h"

namespace qserv::sql {

enum class AggKind { kCountStar, kCount, kSum, kAvg, kMin, kMax };

struct AggSpec {
  AggKind kind;
  ExprPtr arg;  // null for COUNT(*)
};

/// How one FROM table's candidate rows are produced.
struct TableAccess {
  enum class Kind { kIndexProbe, kKernelScan, kRowScan };
  Kind kind = Kind::kRowScan;
  std::vector<const Expr*> conjuncts;  ///< the table's single-table conjuncts
  /// Kernels compiled from conjuncts (vectorization on and at least one
  /// kernel). Its zone-map test runs before any access path.
  std::optional<ScanFilter> filter;
  // kIndexProbe: the probed conjunct and its constant keys.
  std::shared_ptr<const OrderedIndex> index;
  std::size_t probeConjunct = 0;               ///< index into conjuncts
  std::vector<Value> keys;                     ///< `=` / IN keys
  std::optional<std::pair<Value, Value>> range;  ///< BETWEEN bounds
  /// Applied per candidate row: every conjunct but the probe (index probe),
  /// the filter's residuals (kernel scan), or every conjunct (row scan).
  std::vector<CompiledExprPtr> rowFilters;
};

/// How table t joins the tuples over tables < t.
struct JoinStage {
  enum class Kind { kHash, kZone, kNestedLoop };
  Kind kind = Kind::kNestedLoop;
  std::vector<const Expr*> keyConjuncts;  ///< equi keys, or the angSep test
  std::vector<CompiledExprPtr> probeKeys, buildKeys;  // kHash
  std::optional<SpatialJoinSpec> spatial;             // kZone
  CompiledExprPtr outerRa, outerDec;                  // kZone
  /// The other multi-table conjuncts whose highest table is t.
  std::vector<CompiledExprPtr> residuals;
};

/// The EXPLAIN rows of a plan, one string per property.
struct PlanDescription {
  std::string access;   ///< per table: index probe / kernel scan / row scan
  std::string join;     ///< per stage: hash / zone / nested loop
  std::string filter;   ///< per table: kernel conjuncts vs scalar residuals
  std::string zoneMap;  ///< columns whose zone maps can skip a table
};

struct SelectPlan {
  enum class Shortcut { kNone, kMetadataCount, kCountPushdown };

  const SelectStmt* stmt = nullptr;
  std::vector<std::string> tableKeys;
  std::vector<TablePtr> pins;
  std::vector<ScopeTable> scope;
  std::vector<const Table*> tables;

  std::vector<SelectItem> items;  ///< `*` expanded, aggregates as slots
  std::vector<std::string> outputNames;
  std::vector<CompiledExprPtr> itemExprs;
  std::vector<std::optional<ColumnType>> declaredTypes;

  bool aggregate = false;
  std::vector<AggSpec> aggs;
  std::vector<CompiledExprPtr> aggArgs;  ///< null for COUNT(*)
  std::vector<CompiledExprPtr> groupKeys;
  CompiledExprPtr having;  ///< aggregate calls bound as slot refs

  Shortcut shortcut = Shortcut::kNone;
  /// Column-free conjuncts, evaluated once; a non-true one empties the result.
  std::vector<CompiledExprPtr> constantConjuncts;
  std::vector<TableAccess> access;  ///< one per FROM table
  std::vector<JoinStage> joins;     ///< joins[t - 1] joins table t
  std::vector<std::pair<std::size_t, bool>> orderKeys;  ///< (column, desc)

  /// Render the access, join, filter and zone-map rows (EXPLAIN only).
  PlanDescription describe() const;
};

/// Plan \p sel against the tables, schemas and indexes of \p db. The plan
/// borrows expressions from \p sel, which must outlive it.
util::Result<SelectPlan> planSelect(const Database& db, const SelectStmt& sel);

}  // namespace qserv::sql
