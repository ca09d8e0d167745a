#include "qserv/cluster.h"

#include <gtest/gtest.h>

#include <map>

#include "datagen/schemas.h"
#include "util/strings.h"

namespace qserv::core {
namespace {

/// Small shared dataset for cluster-level tests.
struct SmallSky {
  CatalogConfig catalog = CatalogConfig::lsst(18, 6, 0.05);
  datagen::PartitionedCatalog data;

  SmallSky() {
    SkyDataOptions opts;
    opts.basePatchObjects = 600;
    opts.withSources = false;
    opts.region = sphgeom::SphericalBox(0, -7, 14, 7);
    auto r = buildSkyCatalog(catalog, opts);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    data = std::move(r).value();
  }
};

TEST(MiniCluster, RejectsBadOptions) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 0;
  EXPECT_FALSE(MiniCluster::create(opts, sky.data).isOk());
  opts.numWorkers = 2;
  opts.replication = 3;  // > workers
  EXPECT_FALSE(MiniCluster::create(opts, sky.data).isOk());
}

TEST(MiniCluster, ReplicationPlacesChunksOnDistinctWorkers) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  opts.replication = 2;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  for (std::int32_t chunk : (*cluster)->chunkIds()) {
    auto replicas = (*cluster)->redirector()->replicasOf(chunk);
    ASSERT_EQ(replicas.size(), 2u) << "chunk " << chunk;
    EXPECT_NE(replicas[0]->id(), replicas[1]->id());
  }
}

TEST(MiniCluster, PrimaryChunksPartitionTheChunkSet) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 4;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  std::size_t total = 0;
  for (std::size_t w = 0; w < (*cluster)->numWorkers(); ++w) {
    total += (*cluster)->chunksOfWorker(w).size();
  }
  EXPECT_EQ(total, (*cluster)->chunkIds().size());
}

TEST(MiniCluster, BinaryTransferClusterMatchesDumpCluster) {
  SmallSky sky;
  auto run = [&](TransferFormat format) {
    ClusterOptions opts;
    opts.frontend.catalog = sky.catalog;
    opts.numWorkers = 3;
    opts.worker.transfer = format;
    auto cluster = MiniCluster::create(opts, sky.data);
    EXPECT_TRUE(cluster.isOk());
    auto r = (*cluster)->frontend().query(
        "SELECT objectId, ra_PS FROM Object WHERE decl_PS > 0 "
        "ORDER BY objectId LIMIT 20");
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    return std::move(r).value().result;
  };
  auto viaDump = run(TransferFormat::kSqlDump);
  auto viaBinary = run(TransferFormat::kBinary);
  ASSERT_TRUE(viaDump && viaBinary);
  ASSERT_EQ(viaDump->numRows(), viaBinary->numRows());
  for (std::size_t r = 0; r < viaDump->numRows(); ++r) {
    for (std::size_t c = 0; c < viaDump->numColumns(); ++c) {
      EXPECT_EQ(viaDump->cell(r, c).compare(viaBinary->cell(r, c)), 0);
    }
  }
}

TEST(MiniCluster, BinaryTransferAggregates) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  opts.worker.transfer = TransferFormat::kBinary;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  auto r = (*cluster)->frontend().query(
      "SELECT COUNT(*), AVG(ra_PS) FROM Object");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  std::int64_t total = 0;
  for (const auto& chunk : sky.data.chunks) {
    total += static_cast<std::int64_t>(chunk.objects->numRows());
  }
  EXPECT_EQ(r->result->cell(0, 0).asInt(), total);
}

TEST(MiniCluster, DistributedDistinctMatchesOracle) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  // subChunkId values repeat across chunks: chunk-local dedup alone would
  // be wrong; the merge must re-dedup the union.
  auto r = (*cluster)->frontend().query(
      "SELECT DISTINCT subChunkId FROM Object ORDER BY subChunkId");
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  std::set<std::int64_t> expect;
  for (const auto& chunk : sky.data.chunks) {
    for (std::size_t i = 0; i < chunk.objects->numRows(); ++i) {
      expect.insert(chunk.objects->cell(i, datagen::kObjSubChunkId).asInt());
    }
  }
  ASSERT_EQ(r->result->numRows(), expect.size());
  std::size_t i = 0;
  for (std::int64_t v : expect) {
    EXPECT_EQ(r->result->cell(i++, 0).asInt(), v);
  }
  // Chunk-local dedup shrinks traffic: fewer rows merged than total rows.
  EXPECT_LT(r->rowsMerged, 600u * 2u);
}

TEST(MiniCluster, DistributedHavingFiltersMergedGroups) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 3;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());

  // Oracle: per-subChunkId counts over the raw rows (keys span chunks, so
  // HAVING on partial chunk groups would give a different — wrong — set).
  std::map<std::int64_t, std::int64_t> counts;
  for (const auto& chunk : sky.data.chunks) {
    for (std::size_t i = 0; i < chunk.objects->numRows(); ++i) {
      counts[chunk.objects->cell(i, datagen::kObjSubChunkId).asInt()]++;
    }
  }
  std::int64_t threshold = 0;
  for (const auto& [k, n] : counts) threshold = std::max(threshold, n);
  threshold = threshold / 2;
  std::size_t expect = 0;
  for (const auto& [k, n] : counts) {
    if (n > threshold) ++expect;
  }
  ASSERT_GT(expect, 0u);

  auto r = (*cluster)->frontend().query(util::format(
      "SELECT subChunkId, COUNT(*) AS n FROM Object GROUP BY subChunkId "
      "HAVING COUNT(*) > %lld ORDER BY subChunkId",
      static_cast<long long>(threshold)));
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  ASSERT_EQ(r->result->numRows(), expect);
  for (std::size_t i = 0; i < r->result->numRows(); ++i) {
    std::int64_t key = r->result->cell(i, 0).asInt();
    EXPECT_EQ(r->result->cell(i, 1).asInt(), counts.at(key));
    EXPECT_GT(counts.at(key), threshold);
  }
}

TEST(MiniCluster, DistinctWithAggregatesRejected) {
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 2;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  auto r = (*cluster)->frontend().query("SELECT DISTINCT COUNT(*) FROM Object");
  EXPECT_EQ(r.status().code(), util::ErrorCode::kUnimplemented);
}

TEST(MiniCluster, DatabaseQualifiedTableNames) {
  // §5.3: queries may arrive with a database qualifier ("LSST.Object");
  // analysis and rewriting must treat it as the partitioned Object table.
  SmallSky sky;
  ClusterOptions opts;
  opts.frontend.catalog = sky.catalog;
  opts.numWorkers = 2;
  auto cluster = MiniCluster::create(opts, sky.data);
  ASSERT_TRUE(cluster.isOk());
  auto qualified =
      (*cluster)->frontend().query("SELECT COUNT(*) FROM LSST.Object");
  auto bare = (*cluster)->frontend().query("SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(qualified.isOk()) << qualified.status().toString();
  ASSERT_TRUE(bare.isOk());
  EXPECT_EQ(qualified->result->cell(0, 0).asInt(),
            bare->result->cell(0, 0).asInt());
  EXPECT_EQ(qualified->chunksDispatched, bare->chunksDispatched);
}

// -------- parameterized overlap-radius correctness sweep -----------------
// Property: for any join radius strictly below the overlap margin, the
// distributed near-neighbor count equals a brute-force count over the raw
// rows (no pair is lost at chunk or subchunk borders).
class OverlapSweep : public ::testing::TestWithParam<double> {};

TEST_P(OverlapSweep, DistributedPairCountIsExact) {
  const double radius = GetParam();
  CatalogConfig catalog = CatalogConfig::lsst(18, 6, /*overlapDeg=*/0.06);
  SkyDataOptions opts;
  opts.basePatchObjects = 900;
  opts.withSources = false;
  opts.region = sphgeom::SphericalBox(0, -7, 8, 7);
  auto sky = buildSkyCatalog(catalog, opts);
  ASSERT_TRUE(sky.isOk());

  ClusterOptions copts;
  copts.frontend.catalog = catalog;
  copts.numWorkers = 3;
  auto cluster = MiniCluster::create(copts, *sky);
  ASSERT_TRUE(cluster.isOk());

  std::string sql = util::format(
      "SELECT count(*) FROM Object o1, Object o2 "
      "WHERE qserv_areaspec_box(1, -4, 6, 3) "
      "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < %.17g",
      radius);
  auto exec = (*cluster)->frontend().query(sql);
  ASSERT_TRUE(exec.isOk()) << exec.status().toString();
  std::int64_t got = exec->result->cell(0, 0).asInt();

  // Brute force.
  sphgeom::SphericalBox box(1, -4, 6, 3);
  std::vector<std::pair<double, double>> all, inBox;
  for (const auto& chunk : sky->chunks) {
    for (std::size_t r = 0; r < chunk.objects->numRows(); ++r) {
      double ra = chunk.objects->cell(r, datagen::kObjRaPs).asDouble();
      double dec = chunk.objects->cell(r, datagen::kObjDeclPs).asDouble();
      all.emplace_back(ra, dec);
      if (box.contains(ra, dec)) inBox.emplace_back(ra, dec);
    }
  }
  std::int64_t want = 0;
  for (const auto& [ra1, dec1] : inBox) {
    for (const auto& [ra2, dec2] : all) {
      if (sphgeom::angSepDeg(ra1, dec1, ra2, dec2) < radius) ++want;
    }
  }
  EXPECT_EQ(got, want) << "radius " << radius;
  EXPECT_GT(got, 0);
}

INSTANTIATE_TEST_SUITE_P(Radii, OverlapSweep,
                         ::testing::Values(0.005, 0.02, 0.04, 0.059));

}  // namespace
}  // namespace qserv::core
