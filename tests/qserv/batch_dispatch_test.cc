/// \file batch_dispatch_test.cc
/// \brief Batched per-worker dispatch (§7.6 remedy): wire-codec roundtrips,
/// batch accounting and observability, and a seeded randomized parity sweep
/// asserting that batched dispatch + binary transfer returns results
/// identical to the paper's per-chunk dispatch + SQL-dump transfer across
/// LV / HV / SHV query shapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "qserv/batch_codec.h"
#include "qserv/cluster.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/strings.h"

namespace qserv::core {
namespace {

// --------------------------------------------------------------- wire codec

BatchRequest sampleRequest() {
  BatchRequest request;
  request.streamWindow = 8;
  request.traceId = 1234567;
  request.queryClass = QueryClass::kInteractive;
  request.aggregate = true;
  request.bindings = {TableBinding::kSubChunk, TableBinding::kFullOverlap};
  // Template text that embeds NUL bytes, newlines and text that looks like
  // the framing itself: the byte count, not delimiters, drives the decoder.
  request.templateSql =
      std::string("SELECT 'a\0b\n--#CHUNK 9\n' FROM Object AS o1, Object", 50);
  request.chunks.push_back(BatchChunk{101, {1, 2, 30}});
  request.chunks.push_back(BatchChunk{202, {}});
  request.chunks.push_back(BatchChunk{0, {7}});
  return request;
}

TEST(BatchCodec, RequestRoundTrip) {
  const BatchRequest request = sampleRequest();
  std::string wire = encodeBatchRequest(request);
  auto decoded = decodeBatchRequest(wire);
  ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
  EXPECT_EQ(decoded->streamWindow, 8);
  EXPECT_EQ(decoded->traceId, request.traceId);
  EXPECT_EQ(decoded->queryClass, QueryClass::kInteractive);
  EXPECT_TRUE(decoded->aggregate);
  EXPECT_EQ(decoded->bindings, request.bindings);
  EXPECT_EQ(decoded->templateSql, request.templateSql);
  ASSERT_EQ(decoded->chunks.size(), request.chunks.size());
  for (std::size_t i = 0; i < request.chunks.size(); ++i) {
    EXPECT_EQ(decoded->chunks[i].chunkId, request.chunks[i].chunkId);
    EXPECT_EQ(decoded->chunks[i].subChunkIds, request.chunks[i].subChunkIds);
  }
  // An untraced scan request with no aggregate round-trips its defaults.
  BatchRequest plain;
  plain.bindings = {TableBinding::kChunk, TableBinding::kKeep};
  plain.templateSql = "SELECT 1 FROM Object AS Object, Filter";
  plain.chunks.push_back(BatchChunk{5, {}});
  auto back = decodeBatchRequest(encodeBatchRequest(plain));
  ASSERT_TRUE(back.isOk()) << back.status().toString();
  EXPECT_EQ(back->traceId, 0u);
  EXPECT_EQ(back->queryClass, QueryClass::kScan);
  EXPECT_FALSE(back->aggregate);
  EXPECT_EQ(back->bindings, plain.bindings);
}

TEST(BatchCodec, RequestRejectsDamage) {
  std::string wire = encodeBatchRequest(sampleRequest());
  // Truncation, trailing garbage, a non-batch header, a chunk count above
  // the entries present, a bad binding and a template longer than the
  // payload are all framing violations, not "best effort" parses.
  std::string moreChunks = wire;
  moreChunks.replace(moreChunks.find(" 8\n"), 0, "0");  // 3 -> 30 chunks
  std::string badBinding = wire;
  badBinding[badBinding.find(" so ") + 1] = 'x';
  std::string longTemplate = wire;
  longTemplate.replace(longTemplate.find(" 50\n"), 3, " 5000");
  for (const std::string& bad :
       {wire.substr(0, wire.size() - 1), wire + "x",
        std::string("-- QSERV-DUMP 2 4\n"), std::string(), moreChunks,
        badBinding, longTemplate}) {
    auto r = decodeBatchRequest(bad);
    ASSERT_FALSE(r.isOk()) << bad;
    EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidArgument)
        << r.status().toString();
  }
}

/// \p wire with its \p line (which must be present) replaced by \p with.
std::string replaceLine(const std::string& wire, const std::string& line,
                        const std::string& with) {
  std::string out = wire;
  std::size_t at = out.find(line);
  EXPECT_NE(at, std::string::npos) << line;
  if (at != std::string::npos) out.replace(at, line.size(), with);
  return out;
}

TEST(BatchCodec, TraceIdSpansTheFullUint64Range) {
  BatchRequest request = sampleRequest();
  for (std::uint64_t id : {std::uint64_t{1}, std::uint64_t{123456789},
                           std::numeric_limits<std::uint64_t>::max()}) {
    request.traceId = id;
    auto decoded = decodeBatchRequest(encodeBatchRequest(request));
    ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
    EXPECT_EQ(decoded->traceId, id);
  }
}

/// The sample request, traced as id 7, with its trace id text replaced by
/// \p id.
std::string withTraceIdText(const std::string& id) {
  BatchRequest request = sampleRequest();
  request.traceId = 7;
  return replaceLine(encodeBatchRequest(request), "-- QSERV-TRACE: 7\n",
                     "-- QSERV-TRACE: " + id + "\n");
}

void expectRejected(const std::string& wire) {
  auto r = decodeBatchRequest(wire);
  ASSERT_FALSE(r.isOk()) << wire;
  EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidArgument)
      << r.status().toString();
}

// The trace header of a chunk request: the line that carries a query's
// trace id to the worker.

TEST(Trace, HeaderParsingRejectsGarbageAndOverflow) {
  // Mixed digits and letters, a sign or a second number reject the request.
  for (const char* id : {"12x4", "-7", "1 2"}) expectRejected(withTraceIdText(id));

  // uint64 max parses; one more (and anything longer) must not wrap around
  // to a small id that would attach spans to an unrelated query.
  auto max = decodeBatchRequest(withTraceIdText("18446744073709551615"));
  ASSERT_TRUE(max.isOk()) << max.status().toString();
  EXPECT_EQ(max->traceId, std::numeric_limits<std::uint64_t>::max());
  expectRejected(withTraceIdText("18446744073709551616"));
  expectRejected(withTraceIdText("99999999999999999999"));
}

TEST(Trace, HeaderParsingRejectsNonHeaders) {
  // An empty id and the reserved untraced id 0 are not trace headers.
  expectRejected(withTraceIdText(""));
  expectRejected(withTraceIdText("0"));

  // A trace marker inside the template SQL (e.g. a string literal) is not a
  // header: an untraced request stays untraced.
  BatchRequest request = sampleRequest();
  request.traceId = 0;
  request.templateSql = "SELECT '\n-- QSERV-TRACE: 7\n' FROM Object";
  auto decoded = decodeBatchRequest(encodeBatchRequest(request));
  ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
  EXPECT_EQ(decoded->traceId, 0u);
  EXPECT_EQ(decoded->templateSql, request.templateSql);
}

TEST(BatchCodec, RejectsDuplicateTraceLine) {
  // Request lines have one fixed order, so a second trace line is a framing
  // violation rather than an id to pick from.
  expectRejected(withTraceIdText("11\n-- QSERV-TRACE: 22"));
}

TEST(BatchCodec, RejectsUnknownQueryClass) {
  const std::string wire = encodeBatchRequest(sampleRequest());
  const std::string line = "-- QSERV-CLASS: interactive\n";
  for (const std::string& with :
       {std::string("-- QSERV-CLASS: warp\n"),
        std::string("-- QSERV-CLASS: Scan\n"),
        std::string("-- QSERV-CLASS: scan \n"),
        std::string("-- QSERV-CLASS: \n"), std::string()}) {
    auto r = decodeBatchRequest(replaceLine(wire, line, with));
    ASSERT_FALSE(r.isOk()) << with;
    EXPECT_EQ(r.status().code(), util::ErrorCode::kInvalidArgument)
        << r.status().toString();
  }
}

TEST(BatchCodec, ResultFrameRoundTrip) {
  std::string body("dump\0with\nbinary bytes --#FRAME 1 ok 0\n", 39);
  std::string frame = encodeResultFrame(42, body);
  auto decoded = decodeResultFrame(frame);
  ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
  EXPECT_EQ(decoded->chunkId, 42);
  EXPECT_TRUE(decoded->status.isOk());
  EXPECT_EQ(decoded->body, body);
}

TEST(BatchCodec, ErrorFrameCarriesWorkerStatus) {
  std::string frame =
      encodeErrorFrame(7, util::Status::unavailable("worker going down"));
  auto decoded = decodeResultFrame(frame);
  ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
  EXPECT_EQ(decoded->chunkId, 7);
  EXPECT_EQ(decoded->status.code(), util::ErrorCode::kUnavailable);
  EXPECT_NE(decoded->status.message().find("worker going down"),
            std::string::npos);
}

TEST(BatchCodec, DamagedFrameIsDataLoss) {
  std::string frame = encodeResultFrame(5, "the result body");
  std::string scrambledHeader = frame;
  scrambledHeader[4] = 'X';  // inside "--#FRAME"
  for (const std::string& bad :
       {scrambledHeader, frame.substr(0, frame.size() - 3), std::string()}) {
    auto r = decodeResultFrame(bad);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), util::ErrorCode::kDataLoss)
        << r.status().toString();
  }
}

// ---------------------------------------------------------- cluster fixture

class BatchDispatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new CatalogConfig(CatalogConfig::lsst(18, 6, 0.05));
    SkyDataOptions data;
    data.basePatchObjects = 700;
    data.withSources = false;
    data.region = sphgeom::SphericalBox(0, -7, 30, 7);
    auto sky = buildSkyCatalog(*catalog_, data);
    ASSERT_TRUE(sky.isOk()) << sky.status().toString();
    catalogData_ = new datagen::PartitionedCatalog(std::move(sky).value());
  }

  static void TearDownTestSuite() {
    delete catalogData_;
    catalogData_ = nullptr;
    delete catalog_;
    catalog_ = nullptr;
  }

  static std::unique_ptr<MiniCluster> makeCluster(DispatchMode mode,
                                                  TransferFormat transfer) {
    ClusterOptions opts;
    opts.numWorkers = 3;
    opts.frontend.catalog = *catalog_;
    opts.frontend.dispatchMode = mode;
    opts.worker.transfer = transfer;
    auto cluster = MiniCluster::create(opts, *catalogData_);
    EXPECT_TRUE(cluster.isOk()) << cluster.status().toString();
    return cluster.isOk() ? std::move(*cluster) : nullptr;
  }

  static QservFrontend::Execution query(MiniCluster& cluster,
                                        const std::string& sql) {
    auto r = cluster.frontend().query(sql);
    EXPECT_TRUE(r.isOk()) << r.status().toString() << " for: " << sql;
    return r.isOk() ? std::move(r).value() : QservFrontend::Execution{};
  }

  /// All rows of \p table, sorted cell-lexicographically so that parity
  /// holds regardless of merge arrival order (pipelined merging consumes
  /// chunks as they stream in; per-chunk mode merged in spec order).
  static std::vector<std::vector<sql::Value>> sortedRows(
      const sql::TablePtr& table) {
    std::vector<std::vector<sql::Value>> rows;
    rows.reserve(table->numRows());
    for (std::size_t r = 0; r < table->numRows(); ++r) {
      std::vector<sql::Value> row;
      row.reserve(table->numColumns());
      for (std::size_t c = 0; c < table->numColumns(); ++c) {
        row.push_back(table->cell(r, c));
      }
      rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const std::vector<sql::Value>& a,
                 const std::vector<sql::Value>& b) {
                for (std::size_t i = 0; i < a.size(); ++i) {
                  int cmp = a[i].compare(b[i]);
                  if (cmp != 0) return cmp < 0;
                }
                return false;
              });
    return rows;
  }

  static CatalogConfig* catalog_;
  static datagen::PartitionedCatalog* catalogData_;
};

CatalogConfig* BatchDispatchTest::catalog_ = nullptr;
datagen::PartitionedCatalog* BatchDispatchTest::catalogData_ = nullptr;

// ----------------------------------------------------------- batched basics

TEST_F(BatchDispatchTest, OneBatchPerWorkerNotPerChunk) {
  auto cluster = makeCluster(DispatchMode::kBatched, TransferFormat::kSqlDump);
  ASSERT_TRUE(cluster);
  auto before = util::MetricsRegistry::instance().snapshot();
  auto exec = query(*cluster, "SELECT COUNT(*) FROM Object");
  auto after = util::MetricsRegistry::instance().snapshot();
  auto delta = [&](const char* name) -> std::uint64_t {
    auto b = before.counters.count(name) ? before.counters.at(name) : 0;
    auto a = after.counters.count(name) ? after.counters.at(name) : 0;
    return a - b;
  };

  ASSERT_TRUE(exec.result);
  EXPECT_EQ(exec.dispatchMode, DispatchMode::kBatched);
  // A full-sky query on 3 workers needs exactly 3 batch requests, not one
  // write per chunk — that is the whole point of the remedy.
  EXPECT_EQ(exec.dispatchBatches, cluster->numWorkers());
  EXPECT_GT(exec.chunksDispatched, cluster->numWorkers());
  EXPECT_EQ(delta("dispatch.batches"), exec.dispatchBatches);
  EXPECT_EQ(delta("xrd.batch_writes"), exec.dispatchBatches);
  EXPECT_EQ(delta("xrd.write_transactions"), exec.dispatchBatches);
  // Every chunk's result arrived as a stream frame, none via fallback.
  EXPECT_GE(delta("xrd.stream_reads"), exec.chunksDispatched);
  EXPECT_EQ(delta("dispatch.batch_fallback_chunks"), 0u);
  EXPECT_EQ(delta("dispatch.batch_chunk_retries"), 0u);
}

TEST_F(BatchDispatchTest, ExplainReportsDispatchStrategy) {
  auto batched = makeCluster(DispatchMode::kBatched, TransferFormat::kSqlDump);
  auto perChunk =
      makeCluster(DispatchMode::kPerChunk, TransferFormat::kSqlDump);
  ASSERT_TRUE(batched && perChunk);
  auto dispatchRow = [&](MiniCluster& cluster) -> std::string {
    auto exec = query(cluster, "EXPLAIN SELECT COUNT(*) FROM Object");
    if (!exec.result) return {};
    for (std::size_t r = 0; r < exec.result->numRows(); ++r) {
      if (exec.result->cell(r, 0).asString() == "dispatch") {
        return exec.result->cell(r, 1).asString();
      }
    }
    return {};
  };
  std::string batchedDesc = dispatchRow(*batched);
  EXPECT_NE(batchedDesc.find("batched"), std::string::npos) << batchedDesc;
  EXPECT_NE(batchedDesc.find("per-worker batches"), std::string::npos)
      << batchedDesc;
  std::string perChunkDesc = dispatchRow(*perChunk);
  EXPECT_NE(perChunkDesc.find("per-chunk"), std::string::npos) << perChunkDesc;
}

TEST_F(BatchDispatchTest, ProfileRecordsBatchTransferDistribution) {
  auto cluster = makeCluster(DispatchMode::kBatched, TransferFormat::kSqlDump);
  ASSERT_TRUE(cluster);
  auto exec = query(*cluster, "SELECT COUNT(*) FROM Object");
  ASSERT_TRUE(exec.result);
  auto profile = cluster->frontend().profileFor(exec.queryId);
  ASSERT_TRUE(profile);
  EXPECT_EQ(profile->batches,
            static_cast<std::int64_t>(exec.dispatchBatches));
  EXPECT_EQ(profile->batchTransfer.count, profile->batches);
  EXPECT_GT(profile->batchTransfer.sum, 0.0);
  EXPECT_EQ(profile->chunks,
            static_cast<std::int64_t>(exec.chunksDispatched));
  EXPECT_EQ(profile->retries, 0);
}

// ------------------------------------------------------------- parity sweep

TEST_F(BatchDispatchTest, RandomizedParityBatchedBinaryVsPerChunkDump) {
  // Paper mode: per-chunk dispatch, mysqldump-style transfer. New fast
  // path: one batch per worker, binary row codec, pipelined merge. Both
  // run the same seeded query mix over the same sky; results must be
  // identical cell for cell.
  auto paper = makeCluster(DispatchMode::kPerChunk, TransferFormat::kSqlDump);
  auto fast = makeCluster(DispatchMode::kBatched, TransferFormat::kBinary);
  ASSERT_TRUE(paper && fast);

  util::Rng rng(0xBA7C4ED15);
  std::vector<std::string> queries;
  // LV: secondary-index object retrievals at random ids.
  const auto& index = catalogData_->index;
  ASSERT_FALSE(index.empty());
  for (int i = 0; i < 4; ++i) {
    std::int64_t id = index[rng.below(index.size())].objectId;
    queries.push_back("SELECT * FROM Object WHERE objectId = " +
                      std::to_string(id));
  }
  // HV: full-sky aggregates and a randomized row-heavy declination band.
  queries.push_back("SELECT COUNT(*) FROM Object");
  queries.push_back(
      "SELECT count(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object "
      "GROUP BY chunkId ORDER BY chunkId");
  for (int i = 0; i < 2; ++i) {
    int lo = -6 + static_cast<int>(rng.below(10));
    queries.push_back(util::format(
        "SELECT objectId, ra_PS, decl_PS, rFlux_PS FROM Object "
        "WHERE decl_PS BETWEEN %d AND %d",
        lo, lo + 2));
  }
  // SHV: near-neighbor self-joins over randomized small boxes (0.03 deg is
  // under the 0.05 deg overlap margin, so chunked counts are exact).
  for (int i = 0; i < 2; ++i) {
    int ra = static_cast<int>(rng.below(20));
    queries.push_back(util::format(
        "SELECT count(*) FROM Object o1, Object o2 WHERE "
        "qserv_areaspec_box(%d, -2, %d, 1) AND "
        "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.03",
        ra, ra + 3));
  }

  for (const auto& sql : queries) {
    auto want = query(*paper, sql);
    auto got = query(*fast, sql);
    ASSERT_TRUE(want.result && got.result) << sql;
    EXPECT_EQ(want.dispatchMode, DispatchMode::kPerChunk);
    EXPECT_EQ(got.dispatchMode, DispatchMode::kBatched);
    EXPECT_EQ(got.chunksDispatched, want.chunksDispatched) << sql;
    ASSERT_EQ(got.result->numColumns(), want.result->numColumns()) << sql;
    ASSERT_EQ(got.result->numRows(), want.result->numRows()) << sql;
    auto wantRows = sortedRows(want.result);
    auto gotRows = sortedRows(got.result);
    for (std::size_t r = 0; r < wantRows.size(); ++r) {
      for (std::size_t c = 0; c < wantRows[r].size(); ++c) {
        ASSERT_EQ(gotRows[r][c].compare(wantRows[r][c]), 0)
            << sql << " row " << r << " col " << c;
      }
    }
  }
}

}  // namespace
}  // namespace qserv::core
