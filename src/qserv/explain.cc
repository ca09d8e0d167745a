#include "qserv/explain.h"

#include "datagen/partitioner.h"
#include "sql/parser.h"
#include "util/strings.h"

namespace qserv::core {

namespace {

std::string classifyPruning(const AnalyzedQuery& analyzed,
                            std::span<const std::int32_t> chunks) {
  if (!analyzed.touchesPartitioned()) {
    return "none (frontend-only: no partitioned table)";
  }
  if (!analyzed.restrictedObjectIds.empty()) {
    return util::format("secondary-index (%zu objectIds -> %zu chunks)",
                        analyzed.restrictedObjectIds.size(), chunks.size());
  }
  if (analyzed.areaRestriction) {
    return util::format(
        "spatial cover (%s restriction -> %zu chunks)",
        analyzed.areaRestrictionIsImplicit ? "implicit predicate"
                                           : "qserv_areaspec_box",
        chunks.size());
  }
  return util::format("full sky (%zu chunks)", chunks.size());
}

/// Plan the first statement of \p chunkTemplate the way a worker does,
/// against empty tables that carry the catalog schemas and the indexes a
/// worker builds (subchunk tables, built per task, have none).
sql::PlanDescription describeChunkPlan(const AnalyzedQuery& analyzed,
                                       const std::string& chunkTemplate) {
  auto all = [](const std::string& why) {
    return sql::PlanDescription{why, why, why, why};
  };
  auto unavailable = [&](const util::Status& status) {
    return all("unavailable (" + status.toString() + ")");
  };
  if (chunkTemplate.empty()) return all("none (no chunk query)");
  auto script = sql::parseScript(chunkTemplate);
  if (!script.isOk()) return unavailable(script.status());
  const auto* sel = script->empty()
                        ? nullptr
                        : std::get_if<sql::SelectStmt>(&script->front());
  if (sel == nullptr) return all("unavailable (no SELECT in chunk query)");
  sql::Database schemas("explain");
  for (std::size_t i = 0; i < sel->from.size() && i < analyzed.from.size();
       ++i) {
    const PartitionedTable* table = analyzed.from[i].partitioned;
    const std::string& name = sel->from[i].table;
    if (table == nullptr || schemas.hasTable(name)) continue;
    (void)schemas.registerTable(
        std::make_shared<sql::Table>(name, table->schema));
    if (!analyzed.isNearNeighbor) {
      (void)datagen::indexChunkTable(schemas, name, table->idColumn,
                                     table->hasOverlap);
    }
  }
  auto plan = sql::planSelect(schemas, *sel);
  if (!plan.isOk()) return unavailable(plan.status());
  return plan->describe();
}

}  // namespace

ExplainPlan buildExplainPlan(const AnalyzedQuery& analyzed,
                             std::span<const std::int32_t> chunks,
                             const RewriteResult* rewrite,
                             std::string dispatchDesc) {
  ExplainPlan plan;
  plan.dispatch = std::move(dispatchDesc);
  plan.statement = analyzed.stmt.toSql();
  plan.pruning = classifyPruning(analyzed, chunks);
  plan.chunkCount = static_cast<std::int64_t>(chunks.size());
  if (rewrite && !rewrite->chunkQueries.empty()) {
    plan.chunkTemplate = rewrite->chunkQueries.front().text;
  }
  plan.worker = describeChunkPlan(analyzed, plan.chunkTemplate);
  QueryClass cls = deriveQueryClass(analyzed, chunks.size());
  plan.scheduler =
      cls == QueryClass::kInteractive
          ? "interactive (priority lane, bypasses scan groups)"
          : "scan (shared-scan lane: same-chunk passes, memory budget)";
  if (!analyzed.touchesPartitioned()) {
    plan.merge = "none (executes on the frontend metadata DB)";
  } else if (rewrite) {
    plan.merge = util::format(
        "%s: %s", rewrite->merge.hasAggregation ? "aggregate merge"
                                                : "union merge",
        rewrite->merge.finalSelectSql.c_str());
  }
  return plan;
}

sql::TablePtr ExplainPlan::toTable() const {
  sql::Schema schema({{"property", sql::ColumnType::kString},
                      {"value", sql::ColumnType::kString}});
  auto table = std::make_shared<sql::Table>("explain", schema);
  auto add = [&](const std::string& property, const std::string& value) {
    sql::Value row[] = {property, value};
    (void)table->appendRow(row);
  };
  add("statement", statement);
  add("pruning", pruning);
  add("chunks", util::format("%lld", static_cast<long long>(chunkCount)));
  add("chunk template", chunkTemplate);
  add("access", worker.access);
  add("join strategy", worker.join);
  add("filter", worker.filter);
  add("zone map", worker.zoneMap);
  add("merge", merge);
  if (!dispatch.empty()) add("dispatch", dispatch);
  add("scheduler", scheduler);
  return table;
}

}  // namespace qserv::core
