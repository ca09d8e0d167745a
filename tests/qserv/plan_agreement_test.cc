/// EXPLAIN prints the plan the worker runs: for each query, EXPLAIN's
/// worker rows equal sql::planSelect(...).describe() on the loaded worker
/// database of the first chunk, and executing that chunk query yields
/// ExecStats that match the printed strategy. Also pins the one index rule
/// for chunk tables (datagen::indexChunkTable) across initial placement and
/// replica installs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "qserv/cluster.h"
#include "qserv/secondary_index.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/plan.h"
#include "util/strings.h"
#include "xrd/paths.h"

namespace qserv::core {
namespace {

class PlanAgreementTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CatalogConfig catalog = CatalogConfig::lsst(18, 6, 0.05);
    SkyDataOptions data;
    data.basePatchObjects = 500;
    data.withSources = true;
    data.region = sphgeom::SphericalBox(0, -7, 14, 7);
    auto sky = buildSkyCatalog(catalog, data);
    ASSERT_TRUE(sky.isOk());
    sky_ = new datagen::PartitionedCatalog(std::move(*sky));
    ClusterOptions opts;
    opts.numWorkers = 2;
    opts.frontend.catalog = catalog;
    auto cluster = MiniCluster::create(opts, *sky_);
    ASSERT_TRUE(cluster.isOk());
    cluster_ = cluster->release();
  }
  static void TearDownTestSuite() {
    delete cluster_;
    cluster_ = nullptr;
    delete sky_;
    sky_ = nullptr;
  }
  void TearDown() override { sql::setSpatialJoinEnabled(true); }

  std::int64_t someObjectId() {
    auto table = cluster_->frontend().metadata().findTable(
        SecondaryIndex::kTableName);
    EXPECT_TRUE(table && table->numRows() > 0);
    return table->intColumn(0)[0];
  }

  struct Explained {
    sql::PlanDescription worker;
    std::string chunkTemplate;
  };

  static Explained explain(const std::string& query) {
    Explained out;
    auto r = cluster_->frontend().query("EXPLAIN " + query);
    EXPECT_TRUE(r.isOk()) << r.status().toString();
    if (!r.isOk()) return out;
    const sql::Table& plan = *r->result;
    auto row = [&](const std::string& property) {
      for (std::size_t i = 0; i < plan.numRows(); ++i) {
        if (plan.stringColumn(0)[i] == property) return plan.stringColumn(1)[i];
      }
      return std::string();
    };
    out.worker = {row("access"), row("join strategy"), row("filter"),
                  row("zone map")};
    out.chunkTemplate = row("chunk template");
    return out;
  }

  /// The worker database holding the chunk of \p table (a chunk table
  /// Base_CC or a subchunk table Base_CC_SS), and that chunk table's name.
  static std::pair<sql::Database*, std::string> chunkHome(
      const std::string& table) {
    for (std::int32_t id : cluster_->chunkIds()) {
      for (const char* base : {"Object", "Source"}) {
        std::string chunkTable = datagen::chunkTableName(base, id);
        if (table != chunkTable && !util::startsWith(table, chunkTable + "_")) {
          continue;
        }
        for (std::size_t w = 0; w < cluster_->numWorkers(); ++w) {
          sql::Database& db = cluster_->worker(w).database();
          if (db.hasTable(chunkTable)) return {&db, chunkTable};
        }
      }
    }
    return {nullptr, {}};
  }

  /// Check EXPLAIN against the plan and the ExecStats of the first chunk.
  void expectAgreement(const std::string& query) {
    SCOPED_TRACE(query);
    Explained shown = explain(query);
    auto script = sql::parseScript(shown.chunkTemplate);
    ASSERT_TRUE(script.isOk()) << shown.chunkTemplate;
    ASSERT_FALSE(script->empty());
    const auto& first = std::get<sql::SelectStmt>(script->front());
    auto [db, chunkTable] = chunkHome(first.from[0].table);
    ASSERT_NE(db, nullptr) << first.from[0].table;

    // Near-neighbor statements read subchunk tables a worker builds per
    // task; build them here from the chunk table (own rows only).
    std::vector<std::string> built;
    for (const auto& stmt : *script) {
      for (const auto& ref : std::get<sql::SelectStmt>(stmt).from) {
        if (db->hasTable(ref.table)) continue;
        std::string sc = ref.table.substr(ref.table.rfind('_') + 1);
        std::string sql =
            util::startsWith(ref.table, "ObjectFullOverlap_")
                ? "CREATE TABLE " + ref.table + " AS SELECT * FROM " +
                      chunkTable + "_" + sc
                : "CREATE TABLE " + ref.table + " AS SELECT * FROM " +
                      chunkTable + " WHERE subChunkId = " + sc;
        ASSERT_TRUE(db->execute(sql).isOk()) << sql;
        built.push_back(ref.table);
      }
    }

    auto plan = sql::planSelect(*db, first);
    ASSERT_TRUE(plan.isOk()) << plan.status().toString();
    const sql::PlanDescription planned = plan->describe();
    EXPECT_EQ(shown.worker.access, planned.access);
    EXPECT_EQ(shown.worker.join, planned.join);
    EXPECT_EQ(shown.worker.filter, planned.filter);
    EXPECT_EQ(shown.worker.zoneMap, planned.zoneMap);

    sql::ExecStats stats;
    for (const auto& stmt : *script) {
      ASSERT_TRUE(sql::executeStatement(*db, stmt, stats).isOk());
    }
    for (auto it = built.rbegin(); it != built.rend(); ++it) {
      ASSERT_TRUE(db->execute("DROP TABLE " + *it).isOk());
    }
    auto says = [&](const std::string& row, const char* strategy) {
      return row.find(strategy) != std::string::npos;
    };
    EXPECT_EQ(says(shown.worker.access, "index probe"), stats.indexLookups > 0)
        << shown.worker.access;
    EXPECT_EQ(says(shown.worker.access, "kernel scan"),
              stats.vectorizedScans + stats.zoneMapPrunes > 0)
        << shown.worker.access;
    EXPECT_EQ(says(shown.worker.join, "zone join"), stats.spatialJoins > 0)
        << shown.worker.join;
  }

  static MiniCluster* cluster_;
  static datagen::PartitionedCatalog* sky_;
};

MiniCluster* PlanAgreementTest::cluster_ = nullptr;
datagen::PartitionedCatalog* PlanAgreementTest::sky_ = nullptr;

TEST_F(PlanAgreementTest, ExplainPrintsTheStrategyTheWorkerRuns) {
  const std::string id = std::to_string(someObjectId());
  const std::string queries[] = {
      // Shapes an AST-mirroring EXPLAIN misreported: the objectId index
      // probe wins over the kernel; NOT is stripped into a kernel; bounds
      // are const-folded; the areaspec box becomes a UDF residual.
      "SELECT * FROM Object WHERE objectId = " + id,
      "SELECT COUNT(*) FROM Object WHERE NOT (rFlux_PS > 1e-30)",
      "SELECT COUNT(*) FROM Object WHERE rFlux_PS > 2*1e-30",
      "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(1, -2, 3, 2) "
      "AND rFlux_PS > 1e-30",
      // The paper's LV1-3, HV1-3 and SHV1-2 shapes.
      "SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), "
      "ra, decl FROM Source WHERE objectId = " + id,
      "SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 5 AND 6 AND decl_PS "
      "BETWEEN 0 AND 1 AND fluxToAbMag(zFlux_PS) BETWEEN 15 AND 25",
      "SELECT COUNT(*) FROM Object",
      "SELECT objectId, ra_PS, decl_PS FROM Object "
      "WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 4",
      "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object "
      "GROUP BY chunkId",
      "SELECT count(*) FROM Object o1, Object o2 "
      "WHERE qserv_areaspec_box(4, -3, 10, 3) "
      "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
      "SELECT o.objectId, s.sourceId FROM Object o, Source s "
      "WHERE qserv_areaspec_box(4, -3, 10, 3) AND o.objectId = s.objectId "
      "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045",
      // Negated kernels, a column compared with a string, and a constant
      // conjunct (which keeps COUNT(*) off the pushdown).
      "SELECT COUNT(*) FROM Object WHERE rFlux_PS NOT BETWEEN 1e-31 AND 1e-29",
      "SELECT COUNT(*) FROM Object WHERE chunkId NOT IN (1, 2, 3)",
      "SELECT COUNT(*) FROM Object WHERE rFlux_PS < 'faint'",
      "SELECT COUNT(*) FROM Object WHERE 'a' < 'b' AND uFlux_PS > 0",
  };
  for (const std::string& q : queries) expectAgreement(q);
}

TEST_F(PlanAgreementTest, ExplainFollowsTheSpatialJoinSwitch) {
  const std::string nn =
      "SELECT count(*) FROM Object o1, Object o2 "
      "WHERE qserv_areaspec_box(4, -3, 10, 3) "
      "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1";
  EXPECT_EQ(explain(nn).worker.join.rfind("zone join", 0), 0u);
  sql::setSpatialJoinEnabled(false);
  EXPECT_EQ(explain(nn).worker.join.rfind("nested loop", 0), 0u)
      << explain(nn).worker.join;
  expectAgreement(nn);
}

TEST_F(PlanAgreementTest, InstalledReplicaIndexesLikeInitialPlacement) {
  std::int32_t chunk = cluster_->chunksOfWorker(0).front();
  Worker& source = cluster_->worker(0);
  Worker& dest = cluster_->worker(1);
  ASSERT_FALSE(
      dest.database().hasTable(datagen::chunkTableName("Object", chunk)));
  auto snapshot = source.readFile(xrd::makeChunkPath(chunk));
  ASSERT_TRUE(snapshot.isOk()) << snapshot.status().toString();
  ASSERT_TRUE(dest.writeFile(xrd::makeChunkLoadPath(chunk), *snapshot).isOk());

  auto indexed = [&](sql::Database& db, const std::string& table) {
    std::vector<std::string> cols;
    auto t = db.findTable(table);
    if (!t) return cols;
    for (const auto& c : t->schema().columns()) {
      if (db.findIndex(table, c.name)) cols.push_back(c.name);
    }
    return cols;
  };
  using Cols = std::vector<std::string>;
  for (const auto& [base, expected] :
       {std::pair<std::string, Cols>{"Object", {"objectId", "subChunkId"}},
        std::pair<std::string, Cols>{"Source", {"objectId"}}}) {
    std::string table = datagen::chunkTableName(base, chunk);
    if (!source.database().hasTable(table)) continue;
    EXPECT_EQ(indexed(source.database(), table), expected) << table;
    EXPECT_EQ(indexed(dest.database(), table), expected) << table;
  }
}

}  // namespace
}  // namespace qserv::core
