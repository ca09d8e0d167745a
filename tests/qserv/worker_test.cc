#include "qserv/worker.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>

#include "datagen/partitioner.h"
#include "datagen/schemas.h"
#include "qserv/batch_codec.h"
#include "qserv/cluster.h"
#include "qserv/observables_codec.h"
#include "sql/rowcodec.h"
#include "util/md5.h"
#include "xrd/paths.h"

namespace qserv::core {
namespace {

/// A one-worker fixture with a couple of real partitioned chunks.
class WorkerTest : public ::testing::Test {
 protected:
  WorkerTest() : config_(CatalogConfig::lsst(18, 6, 0.05)) {}

  void SetUp() override {
    SkyDataOptions data;
    data.basePatchObjects = 800;
    data.region = sphgeom::SphericalBox(0, -7, 7, 7);  // a few chunks
    auto catalog = buildSkyCatalog(config_, data);
    ASSERT_TRUE(catalog.isOk()) << catalog.status().toString();
    db_ = std::make_shared<sql::Database>("w0");
    std::size_t bestRows = 0;
    for (const auto& chunk : catalog->chunks) {
      ASSERT_TRUE(datagen::loadChunkIntoDatabase(*db_, chunk).isOk());
      chunks_.push_back(chunk.chunkId);
      // Edge chunks may carry only overlap rows; tests that need data use
      // the most populated chunk.
      if (chunk.objects->numRows() > bestRows) {
        bestRows = chunk.objects->numRows();
        populatedChunk_ = chunk.chunkId;
      }
    }
    ASSERT_FALSE(chunks_.empty());
    ASSERT_GT(bestRows, 0u);
  }

  std::unique_ptr<Worker> makeWorker(WorkerConfig wc = {}) {
    return std::make_unique<Worker>("w0", db_, config_, chunks_, wc);
  }

  /// A batch request running \p templateSql (one FROM table, bound to each
  /// chunk table) on \p chunks.
  static BatchRequest countBatch(std::vector<std::int32_t> chunks,
                                 std::string templateSql, int window) {
    BatchRequest request;
    request.streamWindow = window;
    request.bindings = {TableBinding::kChunk};
    request.templateSql = std::move(templateSql);
    for (std::int32_t c : chunks) request.chunks.push_back(BatchChunk{c, {}});
    return request;
  }

  /// The /query2 request running \p templateSql (one FROM table, bound to
  /// the chunk table) on \p chunk alone.
  static std::string chunkRequest(std::int32_t chunk, std::string templateSql,
                                  QueryClass cls = QueryClass::kScan) {
    BatchRequest request = countBatch({chunk}, std::move(templateSql), 0);
    request.queryClass = cls;
    return encodeBatchRequest(request);
  }

  /// Round-trip one chunk request through the ofs interface.
  util::Result<std::string> runQuery(Worker& w, std::int32_t chunk,
                                     const std::string& request) {
    QSERV_RETURN_IF_ERROR(w.writeFile(xrd::makeQueryPath(chunk), request));
    return w.readFile(xrd::makeResultPath(util::Md5::hex(request)));
  }

  CatalogConfig config_;
  std::shared_ptr<sql::Database> db_;
  std::vector<std::int32_t> chunks_;
  std::int32_t populatedChunk_ = -1;
};

TEST_F(WorkerTest, ExecutesChunkQueryAndPublishesDump) {
  WorkerConfig wc;
  wc.transfer = TransferFormat::kSqlDump;  // asserts dump text
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  std::string q =
      chunkRequest(chunk, "SELECT COUNT(*) AS QS0_COUNT FROM Object");
  auto dump = runQuery(*w, chunk, q);
  ASSERT_TRUE(dump.isOk()) << dump.status().toString();
  EXPECT_NE(dump->find("CREATE TABLE"), std::string::npos);
  EXPECT_NE(dump->find("QS0_COUNT"), std::string::npos);
  EXPECT_NE(dump->find("-- QSERV-OBS"), std::string::npos);
  EXPECT_EQ(w->tasksExecuted(), 1u);
}

TEST_F(WorkerTest, DefaultWorkerPublishesBinaryPayload) {
  auto w = makeWorker();
  std::int32_t chunk = populatedChunk_;
  std::string q = chunkRequest(chunk, "SELECT objectId, ra_PS FROM Object");
  auto payload = runQuery(*w, chunk, q);
  ASSERT_TRUE(payload.isOk()) << payload.status().toString();
  ASSERT_TRUE(sql::isBinaryTablePayload(*payload));
  EXPECT_EQ(payload->find("CREATE TABLE"), std::string::npos);
  EXPECT_NE(payload->find("-- QSERV-OBS"), std::string::npos);
  auto table = sql::decodeTableBinary(*payload);
  ASSERT_TRUE(table.isOk()) << table.status().toString();
  EXPECT_EQ((*table)->name(), "r_" + util::Md5::hex(q));
  EXPECT_EQ((*table)->numRows(),
            db_->findTable("Object_" + std::to_string(chunk))->numRows());
  EXPECT_EQ((*table)->numColumns(), 2u);
}

TEST_F(WorkerTest, RejectsUnknownChunk) {
  auto w = makeWorker();
  EXPECT_EQ(w->writeFile(xrd::makeQueryPath(999999),
                         chunkRequest(999999, "SELECT COUNT(*) FROM Object"))
                .code(),
            util::ErrorCode::kNotFound);
}

TEST_F(WorkerTest, RejectsNonQueryPath) {
  auto w = makeWorker();
  EXPECT_EQ(w->writeFile("/bogus/1", "x").code(),
            util::ErrorCode::kInvalidArgument);
  EXPECT_EQ(w->readFile("/bogus/1").status().code(),
            util::ErrorCode::kInvalidArgument);
}

TEST_F(WorkerTest, BadSqlPublishesError) {
  // The template is parsed when the request is admitted, so bad SQL fails
  // the write itself: nothing is queued, run or published.
  WorkerConfig wc;
  wc.resultTimeout = std::chrono::milliseconds(200);
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  std::string q = chunkRequest(chunk, "SELECT FROM WHERE");
  util::Status written = w->writeFile(xrd::makeQueryPath(chunk), q);
  EXPECT_EQ(written.code(), util::ErrorCode::kInvalidArgument)
      << written.toString();
  EXPECT_EQ(w->queuedTasks(), 0u);
  EXPECT_EQ(w->tasksExecuted(), 0u);
  EXPECT_FALSE(w->readFile(xrd::makeResultPath(util::Md5::hex(q))).isOk());
}

TEST_F(WorkerTest, UnrewrittenAreaspecFailsLoudly) {
  // A chunk query that still contains the frontend-only pseudo-function
  // must fail on the worker, not silently return everything.
  auto w = makeWorker();
  std::int32_t chunk = populatedChunk_;
  std::string q = chunkRequest(
      chunk, "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(0,0,1,1)");
  ASSERT_TRUE(w->writeFile(xrd::makeQueryPath(chunk), q).isOk());
  EXPECT_FALSE(w->readFile(xrd::makeResultPath(util::Md5::hex(q))).isOk());
}

TEST_F(WorkerTest, ResultsAreOneShot) {
  WorkerConfig wc;
  wc.resultTimeout = std::chrono::milliseconds(200);
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  std::string q = chunkRequest(chunk, "SELECT COUNT(*) AS c FROM Object");
  auto first = runQuery(*w, chunk, q);
  ASSERT_TRUE(first.isOk());
  // The result was consumed; a second read times out.
  auto second = w->readFile(xrd::makeResultPath(util::Md5::hex(q)));
  EXPECT_FALSE(second.isOk());
}

TEST_F(WorkerTest, SubchunkBuildAndCleanup) {
  auto w = makeWorker();
  std::int32_t chunk = populatedChunk_;
  sphgeom::Chunker chunker = config_.makeChunker();
  std::int32_t sc = chunker.subChunksOf(chunk)[0];
  std::string scTable = datagen::subChunkTableName("Object", chunk, sc);
  std::string ovTable =
      datagen::subChunkTableName("ObjectFullOverlap", chunk, sc);
  BatchRequest request;
  request.bindings = {TableBinding::kSubChunk, TableBinding::kFullOverlap};
  request.templateSql = "SELECT COUNT(*) AS c FROM Object AS o1, Object AS o2";
  request.chunks.push_back(BatchChunk{chunk, {sc}});
  auto dump = runQuery(*w, chunk, encodeBatchRequest(request));
  ASSERT_TRUE(dump.isOk()) << dump.status().toString();
  // Tables are dropped after the task (no caching by default, like the
  // paper's implementation).
  EXPECT_FALSE(db_->hasTable(scTable));
  EXPECT_FALSE(db_->hasTable(ovTable));
}

TEST_F(WorkerTest, SubchunkRowsPartitionTheChunk) {
  // The per-subchunk counts the worker publishes sum to the chunk's rows
  // (build correctness): the template binds one statement per subchunk, and
  // their results union into one row per subchunk.
  auto w = makeWorker();
  std::int32_t chunk = populatedChunk_;
  sphgeom::Chunker chunker = config_.makeChunker();
  auto subChunks = chunker.subChunksOf(chunk);
  BatchRequest request;
  request.bindings = {TableBinding::kSubChunk};
  request.templateSql = "SELECT COUNT(*) AS c FROM Object";
  request.chunks.push_back(BatchChunk{chunk, subChunks});
  auto payload = runQuery(*w, chunk, encodeBatchRequest(request));
  ASSERT_TRUE(payload.isOk()) << payload.status().toString();
  auto counts = sql::decodeTableBinary(*payload);
  ASSERT_TRUE(counts.isOk()) << counts.status().toString();
  ASSERT_EQ((*counts)->numRows(), subChunks.size());
  std::int64_t got = 0;
  for (std::size_t r = 0; r < (*counts)->numRows(); ++r) {
    got += (*counts)->cell(r, 0).asInt();
  }
  auto total =
      db_->execute("SELECT COUNT(*) FROM Object_" + std::to_string(chunk));
  ASSERT_TRUE(total.isOk());
  EXPECT_EQ(got, (*total)->cell(0, 0).asInt());
}

TEST_F(WorkerTest, ObservablesScaleWithRowScale) {
  WorkerConfig wc;
  wc.rowScale = 100.0;
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  std::string q =
      chunkRequest(chunk, "SELECT COUNT(*) AS c FROM Object WHERE ra_PS > 0");
  auto dump = runQuery(*w, chunk, q);
  ASSERT_TRUE(dump.isOk()) << dump.status().toString();
  auto obs = decodeObservables(*dump);
  ASSERT_TRUE(obs.has_value());
  auto rows =
      db_->execute("SELECT COUNT(*) FROM Object_" + std::to_string(chunk));
  ASSERT_TRUE(rows.isOk());
  auto n = static_cast<std::uint64_t>((*rows)->cell(0, 0).asInt());
  EXPECT_EQ(obs->rowsExamined, n * 100);
  // bytesScanned charges Object's paper row width.
  EXPECT_NEAR(obs->bytesScanned,
              static_cast<double>(n) * 100.0 * datagen::kObjectRowBytes,
              1.0);
}

TEST_F(WorkerTest, ParallelTasksAcrossSlots) {
  WorkerConfig wc;
  wc.slots = 4;
  auto w = makeWorker(wc);
  std::vector<std::string> queries;
  for (int i = 0; i < 12; ++i) {
    std::int32_t chunk = chunks_[static_cast<std::size_t>(i) % chunks_.size()];
    queries.push_back(chunkRequest(
        chunk, "SELECT COUNT(*) AS c FROM Object WHERE ra_PS > " +
                   std::to_string(i)));
    ASSERT_TRUE(
        w->writeFile(xrd::makeQueryPath(chunk), queries.back()).isOk());
  }
  for (const auto& q : queries) {
    auto r = w->readFile(xrd::makeResultPath(util::Md5::hex(q)));
    EXPECT_TRUE(r.isOk()) << r.status().toString();
  }
  EXPECT_EQ(w->tasksExecuted(), 12u);
}

TEST_F(WorkerTest, SharedScanGroupChargesIoOnce) {
  WorkerConfig wc;
  wc.slots = 1;
  wc.scheduler = SchedulerMode::kSharedScan;
  wc.startPaused = true;  // stage the queue before any task is claimed
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  // Three distinct scans of the same chunk queued together.
  std::vector<std::string> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back(chunkRequest(
        chunk, "SELECT COUNT(*) AS c FROM Object WHERE ra_PS > " +
                   std::to_string(i * 100)));
  }
  for (const auto& q : queries) {
    ASSERT_TRUE(w->writeFile(xrd::makeQueryPath(chunk), q).isOk());
  }
  w->resume();
  int charged = 0;
  for (const auto& q : queries) {
    auto r = w->readFile(xrd::makeResultPath(util::Md5::hex(q)));
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    auto obs = decodeObservables(*r);
    ASSERT_TRUE(obs.has_value());
    if (obs->bytesScanned > 0) ++charged;
  }
  // The whole group shares one scan: exactly one task pays the I/O.
  EXPECT_EQ(charged, 1);
}

TEST_F(WorkerTest, FifoChargesEveryScan) {
  WorkerConfig wc;
  wc.slots = 1;
  wc.scheduler = SchedulerMode::kFifo;
  wc.startPaused = true;
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  std::vector<std::string> queries;
  // Predicates must intersect the chunk's declination range: a scan whose
  // range misses it entirely is zone-map pruned and pays no I/O at all.
  for (int i = 0; i < 3; ++i) {
    queries.push_back(chunkRequest(
        chunk, "SELECT COUNT(*) AS c FROM Object WHERE decl_PS > " +
                   std::to_string(-100 - i * 100)));
  }
  for (const auto& q : queries) {
    ASSERT_TRUE(w->writeFile(xrd::makeQueryPath(chunk), q).isOk());
  }
  w->resume();
  int charged = 0;
  for (const auto& q : queries) {
    auto r = w->readFile(xrd::makeResultPath(util::Md5::hex(q)));
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    auto obs = decodeObservables(*r);
    ASSERT_TRUE(obs.has_value());
    if (obs->bytesScanned > 0) ++charged;
  }
  EXPECT_EQ(charged, 3);
}

TEST_F(WorkerTest, InteractiveClassBypassesScanGroup) {
  WorkerConfig wc;
  wc.slots = 1;
  wc.scheduler = SchedulerMode::kSharedScan;
  wc.startPaused = true;
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  // Two scan-classed queries plus one interactive-classed query, all on the
  // same chunk. The interactive task rides the priority lane: it must not
  // join the scan group, so it pays its own read while the group shares one.
  std::vector<std::string> queries = {
      chunkRequest(chunk,
                   "SELECT COUNT(*) AS c FROM Object WHERE decl_PS > -100"),
      chunkRequest(chunk,
                   "SELECT COUNT(*) AS c FROM Object WHERE decl_PS > -200"),
      chunkRequest(chunk,
                   "SELECT COUNT(*) AS c FROM Object WHERE decl_PS > -300",
                   QueryClass::kInteractive),
  };
  for (const auto& q : queries) {
    ASSERT_TRUE(w->writeFile(xrd::makeQueryPath(chunk), q).isOk());
  }
  w->resume();
  int charged = 0;
  for (const auto& q : queries) {
    auto r = w->readFile(xrd::makeResultPath(util::Md5::hex(q)));
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    auto obs = decodeObservables(*r);
    ASSERT_TRUE(obs.has_value());
    if (obs->bytesScanned > 0) ++charged;
  }
  EXPECT_EQ(charged, 2);  // one for the scan group, one for the interactive
}

TEST_F(WorkerTest, AbandonedGroupLeaderDoesNotEatIoCharge) {
  // Regression: the scan-I/O charge used to be hardwired to the group's
  // first task. When that leader belongs to an abandoned batch it is
  // skipped without executing — the charge must fall to the first task
  // that actually runs, or the group's bytesScanned is silently zero.
  WorkerConfig wc;
  wc.slots = 1;
  wc.scheduler = SchedulerMode::kSharedScan;
  wc.startPaused = true;
  auto w = makeWorker(wc);
  std::int32_t chunk = populatedChunk_;
  std::string wire = encodeBatchRequest(countBatch(
      {chunk}, "SELECT COUNT(*) AS c FROM Object WHERE decl_PS > -500",
      /*window=*/4));
  std::string batchId = util::Md5::hex(wire);
  ASSERT_TRUE(w->writeFile(xrd::makeBatchPath(batchId), wire).isOk());
  // A second scan of the same chunk queues behind it, into the same group.
  std::string survivor = chunkRequest(
      chunk, "SELECT COUNT(*) AS c FROM Object WHERE decl_PS > -600");
  ASSERT_TRUE(w->writeFile(xrd::makeQueryPath(chunk), survivor).isOk());
  // Abandon the batch before any task is claimed: the leader is skipped.
  ASSERT_TRUE(w->writeFile(xrd::makeBatchCancelPath(batchId), "").isOk());
  w->resume();
  auto r = w->readFile(xrd::makeResultPath(util::Md5::hex(survivor)));
  ASSERT_TRUE(r.isOk()) << r.status().toString();
  auto obs = decodeObservables(*r);
  ASSERT_TRUE(obs.has_value());
  EXPECT_GT(obs->bytesScanned, 0.0);
}

TEST_F(WorkerTest, QueuedTasksIncludesClaimedUnfinishedWork) {
  // Regression: queuedTasks()/ping used to report only the queue, so a
  // worker grinding through claimed work looked idle to the control plane.
  WorkerConfig wc;
  wc.slots = 1;
  auto w = makeWorker(wc);
  ASSERT_GE(chunks_.size(), 2u);
  std::int32_t a = chunks_[0], b = chunks_[1];
  // Stream window 1: the second chunk's publish blocks until the first
  // frame is read, pinning one claimed-but-unfinished task in the slot.
  std::string wire = encodeBatchRequest(countBatch(
      {a, b}, "SELECT COUNT(*) AS c FROM Object", /*window=*/1));
  std::string batchId = util::Md5::hex(wire);
  ASSERT_TRUE(w->writeFile(xrd::makeBatchPath(batchId), wire).isOk());
  // Both tasks have executed once tasksExecuted()==2, but the second is
  // stuck publishing (window full): it is in-flight, not finished.
  while (w->tasksExecuted() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(w->queuedTasks(), 1u);
  auto ping = w->readFile(std::string(xrd::kPingPath));
  ASSERT_TRUE(ping.isOk());
  EXPECT_NE(ping->find(" queue=1 "), std::string::npos) << *ping;
  // Drain the stream; the in-flight task finishes and the depth drops.
  std::string streamPath = xrd::makeBatchStreamPath(batchId);
  ASSERT_TRUE(w->readFile(streamPath).isOk());
  ASSERT_TRUE(w->readFile(streamPath).isOk());
  while (w->queuedTasks() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(w->queuedTasks(), 0u);
}

TEST_F(WorkerTest, BatchRunsTheTemplateOnEachChunk) {
  auto w = makeWorker();
  ASSERT_GE(chunks_.size(), 2u);
  std::int32_t a = chunks_[0], b = chunks_[1];
  std::string wire = encodeBatchRequest(
      countBatch({a, b}, "SELECT COUNT(*) AS c FROM Object", /*window=*/0));
  std::string batchId = util::Md5::hex(wire);
  ASSERT_TRUE(w->writeFile(xrd::makeBatchPath(batchId), wire).isOk());
  std::map<std::int32_t, std::int64_t> counts;
  for (int i = 0; i < 2; ++i) {
    auto bytes = w->readFile(xrd::makeBatchStreamPath(batchId));
    ASSERT_TRUE(bytes.isOk()) << bytes.status().toString();
    auto frame = decodeResultFrame(*bytes);
    ASSERT_TRUE(frame.isOk() && frame->status.isOk());
    auto table = sql::decodeTableBinary(frame->body);
    ASSERT_TRUE(table.isOk()) << table.status().toString();
    counts[frame->chunkId] = (*table)->cell(0, 0).asInt();
  }
  for (std::int32_t c : {a, b}) {
    auto rows = db_->execute("SELECT COUNT(*) FROM " +
                             datagen::chunkTableName("Object", c));
    ASSERT_TRUE(rows.isOk());
    EXPECT_EQ(counts[c], (*rows)->cell(0, 0).asInt()) << "chunk " << c;
  }
}

TEST_F(WorkerTest, BatchWithBadTemplateIsRejected) {
  // The template is parsed once, at enqueue: one that does not parse, or
  // whose FROM list does not match its bindings, rejects the whole batch
  // (the dispatcher then runs its chunks per chunk).
  auto w = makeWorker();
  BatchRequest bad = countBatch({chunks_[0]}, "SELECT FROM WHERE", 4);
  BatchRequest mismatched =
      countBatch({chunks_[0]}, "SELECT 1 FROM Object AS a, Object AS b", 4);
  for (const BatchRequest& request : {bad, mismatched}) {
    std::string wire = encodeBatchRequest(request);
    util::Status written =
        w->writeFile(xrd::makeBatchPath(util::Md5::hex(wire)), wire);
    EXPECT_EQ(written.code(), util::ErrorCode::kInvalidArgument)
        << written.toString();
  }
  EXPECT_EQ(w->queuedTasks(), 0u);
}

TEST_F(WorkerTest, Query2RequestMustHoldExactlyThePathChunk) {
  // /query2/<c> carries a one-chunk request for chunk c: no chunks, two
  // chunks, or another chunk (even one this worker exports) is rejected.
  auto w = makeWorker();
  ASSERT_GE(chunks_.size(), 2u);
  std::int32_t a = chunks_[0], b = chunks_[1];
  const std::string sql = "SELECT COUNT(*) AS c FROM Object";
  for (const BatchRequest& request :
       {countBatch({}, sql, 0), countBatch({a, b}, sql, 0),
        countBatch({a, a}, sql, 0), countBatch({b}, sql, 0)}) {
    util::Status written =
        w->writeFile(xrd::makeQueryPath(a), encodeBatchRequest(request));
    EXPECT_EQ(written.code(), util::ErrorCode::kInvalidArgument)
        << written.toString();
  }
  EXPECT_EQ(w->queuedTasks(), 0u);
  EXPECT_EQ(w->tasksExecuted(), 0u);
}

TEST_F(WorkerTest, NonSelectTemplateIsRejectedAtWrite) {
  // A chunk template is one SELECT; anything else — including a SELECT
  // followed by another statement — is refused before it can run.
  auto w = makeWorker();
  std::int32_t chunk = populatedChunk_;
  const std::string table = datagen::chunkTableName("Object", chunk);
  for (const std::string& sql :
       {std::string("DROP TABLE Object"),
        std::string("SELECT COUNT(*) AS c FROM Object; DROP TABLE Object")}) {
    util::Status written =
        w->writeFile(xrd::makeQueryPath(chunk), chunkRequest(chunk, sql));
    EXPECT_EQ(written.code(), util::ErrorCode::kInvalidArgument)
        << written.toString();
  }
  EXPECT_EQ(w->queuedTasks(), 0u);
  EXPECT_EQ(w->tasksExecuted(), 0u);
  EXPECT_TRUE(db_->hasTable(table));
}

TEST_F(WorkerTest, ShutdownRejectsNewWork) {
  auto w = makeWorker();
  w->shutdown();
  std::string q = chunkRequest(chunks_[0], "SELECT COUNT(*) FROM Object");
  EXPECT_FALSE(w->writeFile(xrd::makeQueryPath(chunks_[0]), q).isOk());
}

}  // namespace
}  // namespace qserv::core
