/// \file cluster.h
/// \brief In-process Qserv cluster assembly (workers + redirector + frontend)
/// and synthetic sky-catalog construction — shared by integration tests,
/// examples, and the paper-reproduction benches.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "datagen/catalog_gen.h"
#include "datagen/partitioner.h"
#include "qserv/czar.h"
#include "qserv/repair_controller.h"
#include "qserv/worker.h"
#include "xrd/data_server.h"
#include "xrd/fault_injector.h"
#include "xrd/redirector.h"

namespace qserv::core {

/// Synthetic-sky construction parameters.
struct SkyDataOptions {
  std::int64_t basePatchObjects = 2000;
  bool withSources = true;
  /// Only duplicator copies intersecting this region are materialized.
  sphgeom::SphericalBox region = sphgeom::SphericalBox::fullSky();
  /// Sources are generated only for copies intersecting this region
  /// (empty = same as `region`). Mirrors the paper's Source clipping to
  /// +-54 deg declination for disk-space reasons.
  std::optional<sphgeom::SphericalBox> sourceRegion;
  datagen::Duplicator::Options duplicator;
  datagen::BasePatchOptions basePatch;
};

/// Generate a PT1.1-style duplicated sky and partition it (paper §6.1.2).
util::Result<datagen::PartitionedCatalog> buildSkyCatalog(
    const CatalogConfig& catalog, const SkyDataOptions& options);

struct ClusterOptions {
  int numWorkers = 4;
  int replication = 1;  ///< copies of each chunk across distinct workers
  WorkerConfig worker;
  FrontendConfig frontend;
  /// Fault plan injected into every worker's ofs plugin (empty = no
  /// injection, workers run bare). Per-server RNG streams are decorrelated
  /// from the plan seed, so one plan exercises different faults per worker.
  xrd::FaultPlan faults;
  /// Per-worker overrides by worker index; a worker listed here gets this
  /// plan instead of `faults` (use an empty plan to exempt a worker).
  std::map<int, xrd::FaultPlan> workerFaults;
  /// Circuit-breaker tuning for the redirector's per-server breakers.
  util::CircuitBreakerPolicy breaker;
  /// Self-healing control-plane tuning. The controller is always
  /// constructed (repairController()); its monitor thread only runs after
  /// an explicit start() — tests drive probeOnce()/repairOnce() directly.
  RepairConfig repair;
};

/// A whole Qserv deployment in one process: N workers (each an Xrootd data
/// server running the Qserv ofs plugin over its own database), a redirector,
/// and a frontend. Chunks are placed round-robin over workers in chunkId
/// order — consecutive chunks land on different nodes, spreading
/// density-induced skew (paper §4.4).
class MiniCluster {
 public:
  static util::Result<std::unique_ptr<MiniCluster>> create(
      ClusterOptions options, const datagen::PartitionedCatalog& catalog);

  QservFrontend& frontend() { return *frontend_; }
  xrd::RedirectorPtr redirector() { return redirector_; }
  /// The self-healing control plane, wired to this cluster's redirector and
  /// frontend. Not monitoring until start() is called.
  RepairController& repairController() { return *repair_; }

  std::size_t numWorkers() const { return workers_.size(); }
  Worker& worker(std::size_t i) { return *workers_[i]; }
  xrd::DataServer& server(std::size_t i) { return *servers_[i]; }
  /// Worker \p i's fault injector, or nullptr when it runs without one
  /// (tests poke injected-fault counters and isDown()/revive() through it).
  xrd::FaultyOfsPlugin* injector(std::size_t i) {
    return injectors_[i].get();
  }

  /// All chunk ids holding data, ascending.
  const std::vector<std::int32_t>& chunkIds() const { return chunkIds_; }

  /// Chunks owned (primary copy) by worker \p i.
  const std::vector<std::int32_t>& chunksOfWorker(std::size_t i) const {
    return primaryChunks_[i];
  }

  ~MiniCluster();
  MiniCluster(const MiniCluster&) = delete;
  MiniCluster& operator=(const MiniCluster&) = delete;

 private:
  MiniCluster() = default;

  ClusterOptions options_;
  std::vector<std::shared_ptr<sql::Database>> databases_;
  std::vector<std::shared_ptr<Worker>> workers_;
  std::vector<std::shared_ptr<xrd::FaultyOfsPlugin>> injectors_;
  std::vector<xrd::DataServerPtr> servers_;
  xrd::RedirectorPtr redirector_;
  std::unique_ptr<QservFrontend> frontend_;
  std::unique_ptr<RepairController> repair_;
  std::vector<std::int32_t> chunkIds_;
  std::vector<std::vector<std::int32_t>> primaryChunks_;
};

}  // namespace qserv::core
