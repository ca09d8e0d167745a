/// \file layers.h
/// \brief The traced run's query path: the czar's steps re-driven through
/// each layer's public functions, every call timed from outside.
///
/// QservFrontend::query() runs parse -> analyze -> chunk prune -> rewrite ->
/// pipelined dispatch + merge -> finalize. LayerRunner makes the same calls
/// (parseSelect, analyzeQuery, chunksFor, QueryRewriter::rewrite, a
/// Dispatcher of its own on the cluster's redirector, ResultMerger) so each
/// layer gets its own clock without a span or counter inside the program.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "qserv/cluster.h"
#include "qserv/dispatcher.h"
#include "sql/table.h"
#include "util/status.h"

namespace perfbench {

/// One driven query, times in milliseconds.
struct LayerTimes {
  bool foreground = true;
  double parse = 0, analyze = 0;
  double chunksFor = 0;     ///< QservFrontend::chunksFor: parse+analyze+prune
  double rewrite = 0;
  double dispatchWall = 0;  ///< runStreamed start to its last result merged
  double firstResult = 0;   ///< runStreamed start to the first ChunkResult
  double mergeSelf = 0;     ///< summed ResultMerger::mergeDump time
  double finalize = 0;
  double elapsed = 0;       ///< the whole driven call
  std::size_t chunks = 0, batches = 0, fallbackChunks = 0;
  std::uint64_t rowsMerged = 0, resultBytes = 0;
  std::uint64_t rowsExamined = 0, rowsReturned = 0;

  /// chunksFor re-parses and re-analyzes; the prune layer is what is left.
  double prune() const;
  /// The driven call's own wall without that double-counted parse+analyze.
  double wall() const;
  /// Sum of the driven layers (dispatch wait excludes merge self time).
  double layerSum() const;
};

class LayerRunner {
 public:
  explicit LayerRunner(qserv::core::MiniCluster& cluster);

  /// Drive \p sql through the layers; on success returns the final table
  /// and appends its LayerTimes to records().
  qserv::util::Result<qserv::sql::TablePtr> run(const std::string& sql,
                                                bool foreground);

  std::vector<LayerTimes> records() const;

 private:
  qserv::core::MiniCluster& cluster_;
  qserv::core::FrontendConfig frontendDefaults_;
  qserv::sphgeom::Chunker chunker_;
  qserv::core::Dispatcher dispatcher_;
  mutable std::mutex mutex_;
  std::vector<LayerTimes> records_;
};

/// Worker-side costs of one sampled chunk query, replayed outside the
/// cluster on the owning worker's database.
struct ReplayTimes {
  double execute = 0;  ///< parseScript + executeStatement, ms
  double encode = 0;   ///< result -> default transfer format, ms
  double decode = 0;   ///< transfer format -> merge-side table, ms
};

/// Replay up to \p maxChunks of \p sql's rewritten chunk queries (a seeded
/// sample) and return per-query estimates: each sampled chunk's mean cost
/// times the query's chunk count.
qserv::util::Result<ReplayTimes> replayChunkQueries(
    qserv::core::MiniCluster& cluster, const std::string& sql,
    std::size_t maxChunks, std::uint64_t seed);

}  // namespace perfbench
