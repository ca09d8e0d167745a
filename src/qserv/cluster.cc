#include "qserv/cluster.h"

#include "util/logging.h"
#include "util/strings.h"

namespace qserv::core {

using util::Result;
using util::Status;

Result<datagen::PartitionedCatalog> buildSkyCatalog(
    const CatalogConfig& catalog, const SkyDataOptions& options) {
  datagen::BasePatchOptions patchOpts = options.basePatch;
  patchOpts.objectCount = options.basePatchObjects;
  datagen::BasePatchGenerator gen(patchOpts);
  std::vector<datagen::ObjectRow> baseObjects = gen.objects();
  std::vector<datagen::SourceRow> baseSources;
  if (options.withSources) baseSources = gen.sourcesFor(baseObjects);

  datagen::Duplicator dup(options.duplicator);
  auto copies = dup.copiesIntersecting(options.region);

  std::vector<datagen::ObjectRow> objects;
  std::vector<datagen::SourceRow> sources;
  objects.reserve(copies.size() * baseObjects.size());
  sources.reserve(copies.size() * baseSources.size());
  const auto baseObjectCount = static_cast<std::int64_t>(baseObjects.size());
  const auto baseSourceCount = static_cast<std::int64_t>(baseSources.size());
  const sphgeom::SphericalBox sourceRegion =
      options.sourceRegion.value_or(options.region);
  for (const auto& copy : copies) {
    std::int64_t objOffset = dup.idOffset(copy, baseObjectCount);
    std::int64_t srcOffset = dup.idOffset(copy, baseSourceCount);
    for (const auto& base : baseObjects) {
      auto p = dup.transform(copy, base.ra, base.decl);
      if (p.lat > 90.0) continue;  // top-band spill
      datagen::ObjectRow row = base;
      row.objectId = base.objectId + objOffset;
      row.ra = p.lon;
      row.decl = p.lat;
      objects.push_back(row);
    }
    if (!dup.copyBox(copy).intersects(sourceRegion)) continue;
    for (const auto& base : baseSources) {
      auto p = dup.transform(copy, base.ra, base.decl);
      if (p.lat > 90.0) continue;
      datagen::SourceRow row = base;
      row.sourceId = base.sourceId + srcOffset;
      row.objectId = base.objectId + objOffset;
      row.ra = p.lon;
      row.decl = p.lat;
      sources.push_back(row);
    }
  }

  sphgeom::Chunker chunker = catalog.makeChunker();
  return datagen::partitionCatalog(chunker, objects, sources);
}

MiniCluster::~MiniCluster() {
  // Stop the control plane before tearing workers down: a monitor or repair
  // thread must not probe/copy against half-destroyed workers.
  if (repair_) repair_->stop();
  for (auto& w : workers_) {
    if (w) w->shutdown();
  }
}

Result<std::unique_ptr<MiniCluster>> MiniCluster::create(
    ClusterOptions options, const datagen::PartitionedCatalog& catalog) {
  if (options.numWorkers < 1) {
    return Status::invalidArgument("cluster needs at least one worker");
  }
  if (options.replication < 1 ||
      options.replication > options.numWorkers) {
    return Status::invalidArgument("replication must be in [1, numWorkers]");
  }
  auto cluster = std::unique_ptr<MiniCluster>(new MiniCluster());
  cluster->options_ = options;
  const int n = options.numWorkers;

  cluster->databases_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    cluster->databases_.push_back(
        std::make_shared<sql::Database>(util::format("worker%d", w)));
  }

  // Round-robin placement in chunkId order with `replication` copies.
  std::vector<std::vector<std::int32_t>> exported(static_cast<std::size_t>(n));
  cluster->primaryChunks_.resize(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < catalog.chunks.size(); ++i) {
    const auto& chunk = catalog.chunks[i];
    cluster->chunkIds_.push_back(chunk.chunkId);
    for (int r = 0; r < options.replication; ++r) {
      auto w = static_cast<std::size_t>((i + static_cast<std::size_t>(r)) %
                                        static_cast<std::size_t>(n));
      QSERV_RETURN_IF_ERROR(
          datagen::loadChunkIntoDatabase(*cluster->databases_[w], chunk));
      exported[w].push_back(chunk.chunkId);
      if (r == 0) cluster->primaryChunks_[w].push_back(chunk.chunkId);
    }
  }

  cluster->redirector_ = std::make_shared<xrd::Redirector>(options.breaker);
  for (int w = 0; w < n; ++w) {
    auto worker = std::make_shared<Worker>(
        util::format("w%d", w), cluster->databases_[static_cast<std::size_t>(w)],
        cluster->options_.frontend.catalog,
        exported[static_cast<std::size_t>(w)], options.worker);
    // Optionally decorate the worker with a fault injector (per-worker plan
    // overrides the cluster-wide one; an empty plan leaves the worker bare).
    std::shared_ptr<xrd::OfsPlugin> plugin = worker;
    std::shared_ptr<xrd::FaultyOfsPlugin> injector;
    const xrd::FaultPlan* plan = &options.faults;
    if (auto it = options.workerFaults.find(w);
        it != options.workerFaults.end()) {
      plan = &it->second;
    }
    if (!plan->empty()) {
      injector =
          std::make_shared<xrd::FaultyOfsPlugin>(worker, *plan, worker->id());
      plugin = injector;
    }
    auto server = std::make_shared<xrd::DataServer>(worker->id(), plugin);
    cluster->redirector_->registerServer(server);
    cluster->workers_.push_back(std::move(worker));
    cluster->injectors_.push_back(std::move(injector));
    cluster->servers_.push_back(std::move(server));
  }

  cluster->frontend_ = std::make_unique<QservFrontend>(
      cluster->options_.frontend, cluster->redirector_, cluster->chunkIds_);
  QSERV_RETURN_IF_ERROR(
      cluster->frontend_->secondaryIndex().load(catalog.index));
  cluster->repair_ = std::make_unique<RepairController>(
      cluster->options_.repair, cluster->redirector_,
      cluster->options_.frontend.catalog);
  cluster->repair_->attachFrontend(cluster->frontend_.get());
  return cluster;
}

}  // namespace qserv::core
