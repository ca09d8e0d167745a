/// \file explain.h
/// \brief Plan introspection for `EXPLAIN <select>` (no execution).
///
/// The frontend reports its own decisions — pruning (secondary index /
/// spatial cover / full sky), chunk count, the rewritten chunk template, the
/// merge plan, dispatch and scheduler class — and the workers' decisions by
/// planning the chunk template's first statement with sql::planSelect, the
/// planner the worker's executor runs. That plan is built against empty
/// tables carrying the catalog schemas (PartitionedTable::schema) and the
/// worker's index rule (datagen::indexChunkTable), so its access, join,
/// filter and zone-map rows are the strategies a worker runs. Only the data
/// decides beyond that: a zone map may still skip a chunk at run time.
#pragma once

#include <span>
#include <string>

#include "qserv/query_analysis.h"
#include "qserv/query_rewriter.h"
#include "sql/plan.h"
#include "sql/table.h"

namespace qserv::core {

/// The plan `EXPLAIN` renders, one classified property per field.
struct ExplainPlan {
  std::string statement;      ///< normalized (re-serialized) SELECT
  std::string pruning;        ///< secondary-index / spatial cover / full sky
  std::int64_t chunkCount = 0;
  std::string chunkTemplate;  ///< first rewritten chunk query ("" if none)
  sql::PlanDescription worker;  ///< the chunk query's plan (sql/plan.h)
  std::string merge;          ///< merge/final-aggregation plan
  std::string dispatch;       ///< batched-vs-per-chunk strategy and shape
  std::string scheduler;      ///< worker scheduler class (interactive/scan)

  /// Two-column (property, value) result table.
  sql::TablePtr toTable() const;
};

/// Build the plan for \p analyzed. \p chunks is the pruned chunk set and
/// \p rewrite the rewrite result; pass rewrite == nullptr for frontend-only
/// queries (no partitioned table). \p dispatchDesc describes the dispatch
/// strategy (mode, batches per worker, chunks per batch); empty when the
/// query never reaches the dispatcher.
ExplainPlan buildExplainPlan(const AnalyzedQuery& analyzed,
                             std::span<const std::int32_t> chunks,
                             const RewriteResult* rewrite,
                             std::string dispatchDesc = {});

}  // namespace qserv::core
