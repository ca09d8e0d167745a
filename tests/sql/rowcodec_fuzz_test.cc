/// \file rowcodec_fuzz_test.cc
/// \brief Seeded mutation fuzz of the binary result codec. Result payloads
/// arrive from other nodes, so every damaged variant of a valid payload —
/// each single-byte deletion, plus seeded byte flips, insertions and
/// truncations — must either decode into a well-formed table or fail with
/// a clean Status, in bounded time and memory.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "sql/database.h"
#include "sql/rowcodec.h"
#include "util/rng.h"

namespace qserv::sql {
namespace {

/// A valid chunk-result payload: `SELECT * ... LIMIT 20` over a table with
/// every column type and NULLs in each.
std::string validPayload() {
  Database db("fuzz");
  EXPECT_TRUE(db.executeScript(
                    "CREATE TABLE Obj (id BIGINT, ra DOUBLE, name TEXT);")
                  .isOk());
  util::Rng rng(7);
  std::string insert = "INSERT INTO Obj VALUES ";
  for (int i = 0; i < 50; ++i) {
    if (i) insert += ", ";
    insert += "(" + (i % 7 == 3 ? std::string("NULL") : std::to_string(i)) +
              ", " + (i % 5 == 1 ? "NULL" : std::to_string(rng.uniform(0, 360))) +
              ", " + (i % 6 == 2 ? "NULL" : "'obj" + std::to_string(i) + "'") +
              ")";
  }
  EXPECT_TRUE(db.executeScript(insert + ";").isOk());
  auto result = db.execute("SELECT * FROM Obj LIMIT 20");
  EXPECT_TRUE(result.isOk()) << result.status().toString();
  EXPECT_EQ((*result)->numRows(), 20u);
  return encodeTableBinary(**result, "r_fuzz");
}

TEST(RowCodecFuzz, MutatedPayloadsDecodeOrFailCleanly) {
  const std::string valid = validPayload();
  ASSERT_TRUE(decodeTableBinary(valid).isOk());

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

  const auto started = std::chrono::steady_clock::now();
  std::size_t decoded = 0;
  for (const std::string& m : mutants) {
    auto table = decodeTableBinary(m);
    if (!table.isOk()) {
      EXPECT_FALSE(table.status().message().empty());
      continue;
    }
    ++decoded;
    // A mutant that decodes is a well-formed table whose storage is bounded
    // by the payload, and it survives its own round trip.
    const Table& t = **table;
    ASSERT_LE(t.payloadBytes(), 2 * m.size());
    for (std::size_t c = 0; c < t.numColumns(); ++c) {
      ASSERT_EQ(t.nullMask(c).size(), t.numRows());
    }
    auto again = decodeTableBinary(encodeTableBinary(t, t.name()));
    ASSERT_TRUE(again.isOk());
    ASSERT_EQ((*again)->numRows(), t.numRows());
  }
  // Some flips land in values (still a valid table), most damage is caught.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, mutants.size());
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(10));
}

}  // namespace
}  // namespace qserv::sql
