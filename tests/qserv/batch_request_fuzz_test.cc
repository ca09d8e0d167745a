/// \file batch_request_fuzz_test.cc
/// \brief Seeded mutation fuzz of the batch request decoder. A worker
/// decodes batch requests written by another node, so every damaged variant
/// of a valid request — each single-byte deletion, plus seeded byte flips,
/// insertions and truncations — must either decode into a well-formed
/// request or fail with a clean Status, in bounded time and with storage
/// bounded by the payload.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "qserv/batch_codec.h"
#include "util/rng.h"

namespace qserv::core {
namespace {

/// A traced near-neighbor batch: both table bindings, an aggregate flag,
/// and chunk entries with and without subchunk lists.
std::string validRequest() {
  BatchRequest request;
  request.streamWindow = 8;
  request.traceId = 42;
  request.queryClass = QueryClass::kScan;
  request.aggregate = true;
  request.bindings = {TableBinding::kSubChunk, TableBinding::kFullOverlap};
  request.templateSql =
      "SELECT COUNT(*) AS QS0_COUNT FROM Object AS o1, Object AS o2 WHERE "
      "(qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1)";
  request.chunks.push_back(BatchChunk{1234, {0, 1, 2, 17}});
  request.chunks.push_back(BatchChunk{1235, {5}});
  request.chunks.push_back(BatchChunk{99, {}});
  return encodeBatchRequest(request);
}

/// Decoded storage: template text, bindings and chunk entries.
std::size_t storageBytes(const BatchRequest& r) {
  std::size_t bytes = r.templateSql.size() + r.bindings.size();
  for (const BatchChunk& c : r.chunks) {
    bytes += sizeof(c.chunkId) + c.subChunkIds.size() * sizeof(std::int32_t);
  }
  return bytes;
}

TEST(BatchRequestFuzz, MutatedRequestsDecodeOrFailCleanly) {
  const std::string valid = validRequest();
  ASSERT_TRUE(decodeBatchRequest(valid).isOk());

  std::vector<std::string> mutants;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    mutants.push_back(valid);
    mutants.back().erase(i, 1);
  }
  util::Rng rng(20111112);
  for (int k = 0; k < 3000; ++k) {
    std::string m = valid;
    for (std::uint64_t flips = 1 + rng.below(3); flips > 0; --flips) {
      m[rng.below(m.size())] ^= static_cast<char>(1 + rng.below(255));
    }
    mutants.push_back(std::move(m));
  }
  for (int k = 0; k < 500; ++k) {
    std::string m = valid;
    m.insert(rng.below(m.size() + 1), 1, static_cast<char>(rng.below(256)));
    mutants.push_back(std::move(m));
    mutants.push_back(valid.substr(0, rng.below(valid.size())));
  }
  // Headers that claim far more than the payload holds.
  mutants.push_back("-- QSERV-BATCH 2147483647 8\n-- QSERV-CLASS: scan\n"
                    "--#TEMPLATE 0 c 8\nSELECT 1\n--#CHUNK 1\n");
  mutants.push_back("-- QSERV-BATCH 1 8\n-- QSERV-CLASS: scan\n"
                    "--#TEMPLATE 0 c 2147483647\nSELECT 1\n");
  mutants.push_back("-- QSERV-BATCH 1 8\n-- QSERV-TRACE: "
                    "99999999999999999999999\n-- QSERV-CLASS: scan\n");

  const auto started = std::chrono::steady_clock::now();
  std::size_t decoded = 0;
  for (const std::string& m : mutants) {
    auto request = decodeBatchRequest(m);
    if (!request.isOk()) {
      EXPECT_EQ(request.status().code(), util::ErrorCode::kInvalidArgument);
      EXPECT_FALSE(request.status().message().empty());
      continue;
    }
    ++decoded;
    // A mutant that decodes is a well-formed request whose storage is
    // bounded by the payload, and it survives its own round trip.
    ASSERT_LE(storageBytes(*request), 4 * m.size());
    ASSERT_LE(request->chunks.capacity(), m.size());
    auto again = decodeBatchRequest(encodeBatchRequest(*request));
    ASSERT_TRUE(again.isOk()) << again.status().toString();
    ASSERT_EQ(again->chunks.size(), request->chunks.size());
    ASSERT_EQ(again->templateSql, request->templateSql);
  }
  // Some flips land in the template text or ids (still a valid request);
  // most damage is caught.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, mutants.size());
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(10));
}

}  // namespace
}  // namespace qserv::core
