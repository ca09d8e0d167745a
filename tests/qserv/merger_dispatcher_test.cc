#include <gtest/gtest.h>

#include <atomic>

#include "qserv/batch_codec.h"
#include "qserv/dispatcher.h"
#include "qserv/dump_integrity.h"
#include "qserv/merger.h"
#include "qserv/observables_codec.h"
#include "sql/dump.h"
#include "sql/parser.h"
#include "sql/rowcodec.h"
#include "util/md5.h"
#include "xrd/file_store.h"
#include "xrd/paths.h"

namespace qserv::core {
namespace {

// ------------------------------------------------------------------ merger

sql::TablePtr makeRows(const std::string& name, std::vector<int> values) {
  sql::Schema schema({{"v", sql::ColumnType::kInt}});
  auto t = std::make_shared<sql::Table>(name, schema);
  for (int v : values) {
    EXPECT_TRUE(t->appendRow(std::vector<sql::Value>{sql::Value(v)}).isOk());
  }
  return t;
}

TEST(ResultMerger, UnionsDumpsIntoMergeTable) {
  ResultMerger merger("m");
  ASSERT_TRUE(merger.mergeDump(sql::dumpTable(*makeRows("a", {1, 2}), "r_a"))
                  .isOk());
  ASSERT_TRUE(merger.mergeDump(sql::dumpTable(*makeRows("b", {3}), "r_b"))
                  .isOk());
  EXPECT_EQ(merger.rowsMerged(), 3u);
  auto final = merger.finalize("SELECT SUM(v) FROM m");
  ASSERT_TRUE(final.isOk()) << final.status().toString();
  EXPECT_EQ((*final)->cell(0, 0).asInt(), 6);
}

TEST(ResultMerger, HandlesBinaryPayloads) {
  ResultMerger merger("m");
  ASSERT_TRUE(
      merger.mergeDump(sql::encodeTableBinary(*makeRows("a", {5, 7}), "r_a"))
          .isOk());
  // Mixed formats in one query also work.
  ASSERT_TRUE(merger.mergeDump(sql::dumpTable(*makeRows("b", {8}), "r_b"))
                  .isOk());
  auto final = merger.finalize("SELECT COUNT(*) AS n, SUM(v) FROM m");
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->cell(0, 0).asInt(), 3);
  EXPECT_EQ((*final)->cell(0, 1).asInt(), 20);
}

TEST(ResultMerger, MergesFullSkyOfOneRowPartials) {
  // A full-sky HV3 at paper geometry returns one partial-aggregate row per
  // chunk, each shipped as its own binary payload with the worker's
  // observables and integrity trailers.
  constexpr std::int64_t kChunks = 8832;
  sql::Schema schema({{"QS0_COUNT", sql::ColumnType::kInt},
                      {"QS1_SUM", sql::ColumnType::kDouble},
                      {"QS1_COUNT", sql::ColumnType::kInt},
                      {"chunkId", sql::ColumnType::kInt}});
  ResultMerger merger("m");
  for (std::int64_t c = 0; c < kChunks; ++c) {
    sql::Table partial("r", schema);
    ASSERT_TRUE(partial
                    .appendRow(std::vector<sql::Value>{
                        sql::Value(c % 41), sql::Value(0.5 * c),
                        sql::Value(std::int64_t{2}), sql::Value(c)})
                    .isOk());
    std::string payload = sql::encodeTableBinary(partial, "r_partial");
    payload += encodeObservables(simio::WorkObservables{});
    appendDumpChecksum(payload);
    ASSERT_TRUE(merger.mergeDump(payload).isOk()) << "chunk " << c;
  }
  EXPECT_EQ(merger.rowsMerged(), static_cast<std::uint64_t>(kChunks));
  auto final = merger.finalize(
      "SELECT SUM(QS0_COUNT), SUM(QS1_SUM), SUM(QS1_COUNT), COUNT(*), "
      "MIN(chunkId), MAX(chunkId) FROM m");
  ASSERT_TRUE(final.isOk()) << final.status().toString();
  std::int64_t count = 0;
  for (std::int64_t c = 0; c < kChunks; ++c) count += c % 41;
  EXPECT_EQ((*final)->cell(0, 0).asInt(), count);
  // Halves of integers sum exactly in a double.
  EXPECT_EQ((*final)->cell(0, 1).toDouble(),
            0.5 * static_cast<double>(kChunks * (kChunks - 1) / 2));
  EXPECT_EQ((*final)->cell(0, 2).asInt(), 2 * kChunks);
  EXPECT_EQ((*final)->cell(0, 3).asInt(), kChunks);
  EXPECT_EQ((*final)->cell(0, 4).asInt(), 0);
  EXPECT_EQ((*final)->cell(0, 5).asInt(), kChunks - 1);
}

TEST(ResultMerger, ObservablesCommentIsHarmless) {
  ResultMerger merger("m");
  simio::WorkObservables obs;
  obs.rowsExamined = 9;
  std::string dump = sql::dumpTable(*makeRows("a", {1}), "r_a");
  dump += encodeObservables(obs);
  ASSERT_TRUE(merger.mergeDump(dump).isOk());
  EXPECT_EQ(merger.rowsMerged(), 1u);
}

TEST(ResultMerger, EmptyDumpKeepsSchema) {
  ResultMerger merger("m");
  ASSERT_TRUE(merger.mergeDump(sql::dumpTable(*makeRows("a", {}), "r_a"))
                  .isOk());
  auto final = merger.finalize("SELECT * FROM m");
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->numRows(), 0u);
  EXPECT_EQ((*final)->numColumns(), 1u);
}

TEST(ResultMerger, NoDumpsFinalizesEmpty) {
  ResultMerger merger("m");
  auto final = merger.finalize("SELECT * FROM m");
  ASSERT_TRUE(final.isOk());
  EXPECT_EQ((*final)->numRows(), 0u);
}

TEST(ResultMerger, MismatchedColumnCountFails) {
  ResultMerger merger("m");
  ASSERT_TRUE(merger.mergeDump(sql::dumpTable(*makeRows("a", {1}), "r_a"))
                  .isOk());
  sql::Schema two({{"x", sql::ColumnType::kInt}, {"y", sql::ColumnType::kInt}});
  sql::Table wide("w", two);
  ASSERT_TRUE(wide.appendRow(std::vector<sql::Value>{sql::Value(1),
                                                     sql::Value(2)})
                  .isOk());
  EXPECT_FALSE(merger.mergeDump(sql::dumpTable(wide, "r_b")).isOk());
}

TEST(ResultMerger, GarbagePayloadFails) {
  ResultMerger merger("m");
  EXPECT_FALSE(merger.mergeDump("this is not a dump").isOk());
}

// -------------------------------------------------------- observables codec

simio::WorkObservables sampleObservables() {
  simio::WorkObservables obs;
  obs.bytesScanned = 2.5e11;
  obs.rowsExamined = 18446744073709551615ull;  // uint64 max
  obs.pairsEvaluated = 3;
  obs.joinMatches = 4;
  obs.rowsBuilt = 5;
  obs.indexLookups = 6;
  obs.resultBytes = 789;
  obs.resultRows = 10;
  return obs;
}

/// A real observables line with field \p key's value replaced by \p value.
std::string observablesWith(const std::string& key, const std::string& value) {
  std::string line = encodeObservables(sampleObservables());
  std::size_t at = line.find(" " + key + "=");
  EXPECT_NE(at, std::string::npos) << key;
  at += key.size() + 2;
  line.replace(at, line.find_first_of(" \n", at) - at, value);
  return line;
}

TEST(ObservablesCodec, RoundTripsInsideADump) {
  std::string dump = sql::dumpTable(*makeRows("a", {1}), "r_a");
  dump += encodeObservables(sampleObservables());
  appendDumpChecksum(dump);
  auto obs = decodeObservables(dump);
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->bytesScanned, 2.5e11);
  EXPECT_EQ(obs->rowsExamined, 18446744073709551615ull);
  EXPECT_EQ(obs->pairsEvaluated, 3u);
  EXPECT_EQ(obs->joinMatches, 4u);
  EXPECT_EQ(obs->rowsBuilt, 5u);
  EXPECT_EQ(obs->indexLookups, 6u);
  EXPECT_EQ(obs->resultBytes, 789.0);
  EXPECT_EQ(obs->resultRows, 10u);
  EXPECT_FALSE(decodeObservables("no trailer here").has_value());
}

TEST(ObservablesCodec, RejectsNonFiniteValues) {
  for (const char* key : {"bytes", "rbytes"}) {
    for (const char* value :
         {"nan", "inf", "-inf", "NAN", "infinity", "1e999"}) {
      EXPECT_FALSE(decodeObservables(observablesWith(key, value)).has_value())
          << key << "=" << value;
    }
  }
}

TEST(ObservablesCodec, RejectsNegativeValues) {
  for (const char* key : {"bytes", "rbytes"}) {
    for (const char* value : {"-1", "-0", "-2.5e11"}) {
      EXPECT_FALSE(decodeObservables(observablesWith(key, value)).has_value())
          << key << "=" << value;
    }
  }
}

TEST(ObservablesCodec, RejectsSignedOrOverflowingUnsignedFields) {
  // sscanf's SCNu64 wrapped "-1" to 18446744073709551615; every unsigned
  // field now takes digits only, within uint64.
  for (const char* key : {"rows", "pairs", "match", "built", "idx", "rrows"}) {
    for (const char* value :
         {"-1", "+1", " 1", "", "1.5", "18446744073709551616", "0x10"}) {
      EXPECT_FALSE(decodeObservables(observablesWith(key, value)).has_value())
          << key << "=" << value;
    }
  }
  // The line must be complete: every field, in order, ending in a newline.
  std::string line = encodeObservables(sampleObservables());
  EXPECT_FALSE(decodeObservables(line.substr(0, line.size() - 1)).has_value());
  EXPECT_FALSE(
      decodeObservables(observablesWith("rows", "1 rows=2")).has_value());
}

// --------------------------------------------------------------- dispatcher

/// A spec for chunk \p c whose template, "SELECT <c>", reads no table.
ChunkQuerySpec specFor(std::int32_t c) {
  auto stmt = sql::parseSelect("SELECT " + std::to_string(c));
  EXPECT_TRUE(stmt.isOk()) << stmt.status().toString();
  ChunkQuerySpec spec;
  spec.chunkId = c;
  spec.chunkTemplate = std::make_shared<const ChunkTemplate>(
      *stmt, std::vector<TableBinding>{}, /*aggregate=*/false);
  return spec;
}

/// A plugin that fails the first `failures` read attempts per path.
class FlakyPlugin : public xrd::OfsPlugin {
 public:
  FlakyPlugin(std::vector<std::int32_t> chunks, int failures)
      : chunks_(std::move(chunks)), failuresLeft_(failures) {}

  util::Status writeFile(const std::string& path, std::string payload) override {
    auto chunk = xrd::parseQueryPath(path);
    if (!chunk) return util::Status::invalidArgument("bad path");
    ++writes_;
    std::string hash = util::Md5::hex(payload);
    if (failuresLeft_.fetch_sub(1) > 0) {
      store_.publishError(xrd::makeResultPath(hash),
                          util::Status::unavailable("injected fault"));
      return util::Status::ok();
    }
    auto table = makeRows("r", {static_cast<int>(*chunk)});
    store_.publish(xrd::makeResultPath(hash),
                   sql::dumpTable(*table, "r_" + hash));
    return util::Status::ok();
  }

  util::Result<std::string> readFile(const std::string& path) override {
    return store_.waitFor(path, std::chrono::milliseconds(2000));
  }

  std::vector<std::int32_t> exportedChunks() const override { return chunks_; }

  int writes() const { return writes_.load(); }

 private:
  std::vector<std::int32_t> chunks_;
  std::atomic<int> failuresLeft_;
  std::atomic<int> writes_{0};
  xrd::FileStore store_;
};

TEST(Dispatcher, CollectsAllChunkResults) {
  auto redirector = std::make_shared<xrd::Redirector>();
  auto plugin = std::make_shared<FlakyPlugin>(std::vector<std::int32_t>{1, 2, 3},
                                              0);
  redirector->registerServer(
      std::make_shared<xrd::DataServer>("w0", plugin));
  Dispatcher dispatcher(redirector, 4);
  std::vector<ChunkQuerySpec> specs;
  for (std::int32_t c : {1, 2, 3}) {
    specs.push_back(specFor(c));
  }
  auto results = dispatcher.run(specs);
  ASSERT_TRUE(results.isOk()) << results.status().toString();
  EXPECT_EQ(results->size(), 3u);
  for (const auto& r : *results) {
    EXPECT_EQ(r.workerId, "w0");
    EXPECT_FALSE(r.dump.empty());
    // The dispatcher hashes the whole one-chunk request it wrote: class,
    // template and chunk entry.
    BatchRequest request;
    request.queryClass = QueryClass::kScan;
    request.templateSql = "SELECT " + std::to_string(r.chunkId);
    request.chunks.push_back(BatchChunk{r.chunkId, {}});
    EXPECT_EQ(r.hash, util::Md5::hex(encodeBatchRequest(request)));
  }
}

TEST(Dispatcher, RetriesTransientFailures) {
  auto redirector = std::make_shared<xrd::Redirector>();
  auto plugin = std::make_shared<FlakyPlugin>(std::vector<std::int32_t>{7},
                                              /*failures=*/2);
  redirector->registerServer(std::make_shared<xrd::DataServer>("w0", plugin));
  Dispatcher dispatcher(redirector, 1, /*maxAttempts=*/3);
  auto results = dispatcher.run({specFor(7)});
  ASSERT_TRUE(results.isOk()) << results.status().toString();
  EXPECT_EQ(plugin->writes(), 3);  // two injected faults, then success
}

TEST(Dispatcher, GivesUpAfterMaxAttempts) {
  auto redirector = std::make_shared<xrd::Redirector>();
  auto plugin = std::make_shared<FlakyPlugin>(std::vector<std::int32_t>{7},
                                              /*failures=*/100);
  redirector->registerServer(std::make_shared<xrd::DataServer>("w0", plugin));
  Dispatcher dispatcher(redirector, 1, /*maxAttempts=*/2);
  auto results = dispatcher.run({specFor(7)});
  EXPECT_FALSE(results.isOk());
  EXPECT_EQ(results.status().code(), util::ErrorCode::kUnavailable);
}

TEST(Dispatcher, UnknownChunkFailsFast) {
  auto redirector = std::make_shared<xrd::Redirector>();
  Dispatcher dispatcher(redirector, 1);
  auto results = dispatcher.run({specFor(99)});
  EXPECT_FALSE(results.isOk());
}

TEST(Dispatcher, ParsesInBandObservables) {
  auto redirector = std::make_shared<xrd::Redirector>();
  // A plugin whose dumps carry observables.
  class ObsPlugin : public xrd::OfsPlugin {
   public:
    util::Status writeFile(const std::string& path, std::string payload) override {
      (void)path;
      simio::WorkObservables obs;
      obs.bytesScanned = 12345;
      obs.rowsExamined = 67;
      std::string dump = sql::dumpTable(*makeRows("r", {1}), "r_x");
      dump += encodeObservables(obs);
      store_.publish(xrd::makeResultPath(util::Md5::hex(payload)),
                     std::move(dump));
      return util::Status::ok();
    }
    util::Result<std::string> readFile(const std::string& path) override {
      return store_.waitFor(path, std::chrono::milliseconds(1000));
    }
    std::vector<std::int32_t> exportedChunks() const override { return {5}; }

   private:
    xrd::FileStore store_;
  };
  redirector->registerServer(
      std::make_shared<xrd::DataServer>("w0", std::make_shared<ObsPlugin>()));
  Dispatcher dispatcher(redirector, 1);
  auto results = dispatcher.run({specFor(5)});
  ASSERT_TRUE(results.isOk());
  EXPECT_DOUBLE_EQ((*results)[0].observables.bytesScanned, 12345.0);
  EXPECT_EQ((*results)[0].observables.rowsExamined, 67u);
}

}  // namespace
}  // namespace qserv::core
