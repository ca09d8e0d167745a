#include "layers.h"

#include <algorithm>
#include <map>
#include <optional>
#include <thread>

#include "qserv/merger.h"
#include "qserv/query_analysis.h"
#include "qserv/query_rewriter.h"
#include "sql/dump.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/rowcodec.h"
#include "util/mpmc_queue.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace perfbench {

using qserv::util::Result;
using qserv::util::Status;
using qserv::util::Stopwatch;
namespace core = qserv::core;
namespace sql = qserv::sql;

double LayerTimes::prune() const {
  return std::max(0.0, chunksFor - parse - analyze);
}

double LayerTimes::wall() const { return elapsed - (chunksFor - prune()); }

double LayerTimes::layerSum() const {
  return parse + analyze + prune() + rewrite + (dispatchWall - mergeSelf) +
         mergeSelf + finalize;
}

namespace {

/// The dispatcher the czar builds from its FrontendConfig (czar.cc), so the
/// driven path dispatches exactly as query() does under library defaults.
core::DispatcherConfig czarDispatcherConfig(const core::FrontendConfig& f) {
  return core::DispatcherConfig{f.dispatchParallelism,
                                f.dispatchMaxAttempts,
                                f.dispatchBackoff,
                                /*retrySeed=*/0x5eedULL,
                                /*requireDumpChecksum=*/true,
                                f.dispatchMode,
                                f.dispatchStreamWindow};
}

}  // namespace

LayerRunner::LayerRunner(core::MiniCluster& cluster)
    : cluster_(cluster),
      chunker_(cluster.frontend().catalog().makeChunker()),
      dispatcher_(cluster.redirector(),
                  czarDispatcherConfig(frontendDefaults_)) {}

Result<sql::TablePtr> LayerRunner::run(const std::string& text,
                                       bool foreground) {
  core::QservFrontend& frontend = cluster_.frontend();
  const core::CatalogConfig& catalog = frontend.catalog();
  LayerTimes t;
  t.foreground = foreground;
  Stopwatch total;
  // Like the czar: a registered trace per query, whose id workers see.
  qserv::util::TracePtr trace =
      qserv::util::TraceRegistry::instance().create(text);
  struct Release {
    std::uint64_t id;
    ~Release() { qserv::util::TraceRegistry::instance().release(id); }
  } release{trace->id()};

  Stopwatch watch;
  QSERV_ASSIGN_OR_RETURN(sql::SelectStmt stmt, sql::parseSelect(text));
  t.parse = watch.elapsedMillis();
  watch.reset();
  QSERV_ASSIGN_OR_RETURN(core::AnalyzedQuery analyzed,
                         core::analyzeQuery(stmt, catalog));
  t.analyze = watch.elapsedMillis();
  if (!analyzed.touchesPartitioned()) {
    return Status::invalidArgument(
        "benchmark queries touch partitioned tables");
  }
  watch.reset();
  QSERV_ASSIGN_OR_RETURN(std::vector<std::int32_t> chunks,
                         frontend.chunksFor(text));
  t.chunksFor = watch.elapsedMillis();
  t.chunks = chunks.size();

  watch.reset();
  // ResultMerger merges into a private database, so one name serves all.
  const std::string mergeTable = "qm_driven";
  core::QueryRewriter rewriter(catalog, chunker_);
  QSERV_ASSIGN_OR_RETURN(core::RewriteResult rewrite,
                         rewriter.rewrite(analyzed, chunks, mergeTable));
  core::QueryClass cls = core::deriveQueryClass(analyzed, chunks.size());
  for (auto& spec : rewrite.chunkQueries) spec.queryClass = cls;
  t.rewrite = watch.elapsedMillis();

  core::ResultMerger merger(mergeTable, trace);
  Result<core::DispatchReport> report = Status::internal("dispatch never ran");
  Status mergeStatus = Status::ok();
  watch.reset();
  {
    core::DispatchOptions options;
    qserv::util::MpmcQueue<core::ChunkResult> queue(static_cast<std::size_t>(
        std::max(1, frontendDefaults_.mergeQueueDepth)));
    std::thread dispatch([&] {
      report = dispatcher_.runStreamed(rewrite.chunkQueries, queue, trace,
                                       nullptr, options);
      queue.close();
    });
    bool first = true;
    while (std::optional<core::ChunkResult> r = queue.pop()) {
      if (first) {
        t.firstResult = watch.elapsedMillis();
        first = false;
      }
      t.resultBytes += r->dump.size();
      t.rowsExamined += r->observables.rowsExamined;
      t.rowsReturned += r->observables.resultRows;
      if (mergeStatus.isOk()) {
        Stopwatch mergeWatch;
        mergeStatus = merger.mergeDump(r->dump);
        t.mergeSelf += mergeWatch.elapsedMillis();
        if (!mergeStatus.isOk()) options.cancel.cancel(mergeStatus);
      }
    }
    dispatch.join();
  }
  t.dispatchWall = watch.elapsedMillis();
  QSERV_RETURN_IF_ERROR(mergeStatus);
  QSERV_RETURN_IF_ERROR(report.status());
  t.batches = report->batches;
  t.fallbackChunks = report->fallbackChunks;

  watch.reset();
  QSERV_ASSIGN_OR_RETURN(sql::TablePtr result,
                         merger.finalize(rewrite.merge.finalSelectSql));
  t.finalize = watch.elapsedMillis();
  t.rowsMerged = merger.rowsMerged();
  t.elapsed = total.elapsedMillis();
  {
    std::lock_guard lock(mutex_);
    records_.push_back(t);
  }
  return result;
}

std::vector<LayerTimes> LayerRunner::records() const {
  std::lock_guard lock(mutex_);
  return records_;
}

Result<ReplayTimes> replayChunkQueries(core::MiniCluster& cluster,
                                       const std::string& text,
                                       std::size_t maxChunks,
                                       std::uint64_t seed) {
  core::QservFrontend& frontend = cluster.frontend();
  QSERV_ASSIGN_OR_RETURN(core::AnalyzedQuery analyzed,
                         core::analyzeQuery(text, frontend.catalog()));
  QSERV_ASSIGN_OR_RETURN(std::vector<std::int32_t> chunks,
                         frontend.chunksFor(text));
  qserv::sphgeom::Chunker chunker = frontend.catalog().makeChunker();
  core::QueryRewriter rewriter(frontend.catalog(), chunker);
  QSERV_ASSIGN_OR_RETURN(core::RewriteResult rewrite,
                         rewriter.rewrite(analyzed, chunks, "qm_replay"));
  std::vector<core::ChunkQuerySpec>& specs = rewrite.chunkQueries;
  if (specs.empty()) return ReplayTimes{};

  std::map<std::int32_t, std::size_t> owner;
  for (std::size_t w = 0; w < cluster.numWorkers(); ++w) {
    for (std::int32_t c : cluster.chunksOfWorker(w)) owner.emplace(c, w);
  }
  qserv::util::Rng rng(seed);
  std::shuffle(specs.begin(), specs.end(), rng);
  const std::size_t sampled = std::min(maxChunks, specs.size());
  // The worker encodes in its configured format; follow the library default.
  const bool binary =
      core::WorkerConfig{}.transfer == core::TransferFormat::kBinary;

  ReplayTimes sum;
  for (std::size_t i = 0; i < sampled; ++i) {
    const core::ChunkQuerySpec& spec = specs[i];
    auto it = owner.find(spec.chunkId);
    if (it == owner.end()) {
      return Status::notFound("no worker owns chunk " +
                              std::to_string(spec.chunkId));
    }
    sql::Database& db = cluster.worker(it->second).database();
    Stopwatch watch;
    QSERV_ASSIGN_OR_RETURN(std::vector<sql::Statement> script,
                           sql::parseScript(spec.text));
    sql::TablePtr table;
    sql::ExecStats stats;
    for (const sql::Statement& stmt : script) {
      QSERV_ASSIGN_OR_RETURN(table, sql::executeStatement(db, stmt, stats));
    }
    if (!table) return Status::internal("chunk query returned no table");
    sum.execute += watch.elapsedMillis();

    watch.reset();
    std::string payload = binary ? sql::encodeTableBinary(*table, "r_replay")
                                 : sql::dumpTable(*table, "r_replay");
    sum.encode += watch.elapsedMillis();

    sql::Database mergeSide("replay");
    watch.reset();
    auto decoded = binary ? sql::loadBinaryTable(mergeSide, payload)
                          : sql::loadDump(mergeSide, payload);
    sum.decode += watch.elapsedMillis();
    QSERV_RETURN_IF_ERROR(decoded.status());
  }
  const double perQuery =
      static_cast<double>(specs.size()) / static_cast<double>(sampled);
  return ReplayTimes{sum.execute * perQuery, sum.encode * perQuery,
                     sum.decode * perQuery};
}

}  // namespace perfbench
