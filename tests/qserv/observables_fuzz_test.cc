/// \file observables_fuzz_test.cc
/// \brief Seeded mutation fuzz of the observables trailer decoder. The
/// dispatcher decodes the `-- QSERV-OBS` line of a dump written by another
/// node, so every damaged variant of a real trailer — each single-byte
/// deletion, plus seeded byte flips, insertions and truncations — must
/// either decode into finite, non-negative observables or be rejected, in
/// bounded time.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "qserv/dump_integrity.h"
#include "qserv/observables_codec.h"
#include "sql/rowcodec.h"
#include "util/rng.h"

namespace qserv::core {
namespace {

/// A worker-shaped result: a binary table, the observables line and the
/// MD5 integrity trailer.
std::string realDump() {
  sql::Schema schema({{"QS0_COUNT", sql::ColumnType::kInt}});
  sql::Table table("r", schema);
  EXPECT_TRUE(table.appendRow(std::vector<sql::Value>{sql::Value(41)}).isOk());
  std::string dump = sql::encodeTableBinary(table, "r_0123456789abcdef");
  simio::WorkObservables obs;
  obs.bytesScanned = 206516736;
  obs.rowsExamined = 1681;
  obs.pairsEvaluated = 12;
  obs.joinMatches = 7;
  obs.rowsBuilt = 3;
  obs.indexLookups = 1;
  obs.resultBytes = 118;
  obs.resultRows = 1;
  dump += encodeObservables(obs);
  appendDumpChecksum(dump);
  return dump;
}

TEST(ObservablesFuzz, MutatedTrailersDecodeOrFailCleanly) {
  const std::string valid = realDump();
  ASSERT_TRUE(decodeObservables(valid).has_value());
  // Mutations land in the trailer: from the observables marker to the end.
  const std::size_t trailer = valid.rfind("-- QSERV-OBS ");
  ASSERT_NE(trailer, std::string::npos);
  const std::size_t span = valid.size() - trailer;

  std::vector<std::string> mutants;
  for (std::size_t i = trailer; i < valid.size(); ++i) {
    mutants.push_back(valid);
    mutants.back().erase(i, 1);
  }
  util::Rng rng(20111112);
  for (int k = 0; k < 3000; ++k) {
    std::string m = valid;
    for (std::uint64_t flips = 1 + rng.below(3); flips > 0; --flips) {
      m[trailer + rng.below(span)] ^= static_cast<char>(1 + rng.below(255));
    }
    mutants.push_back(std::move(m));
  }
  for (int k = 0; k < 500; ++k) {
    std::string m = valid;
    m.insert(trailer + rng.below(span + 1), 1,
             static_cast<char>(rng.below(256)));
    mutants.push_back(std::move(m));
    mutants.push_back(valid.substr(0, trailer + rng.below(span)));
  }
  // Values the old sscanf decoder accepted: non-finite, negative, signed.
  for (const char* line :
       {"-- QSERV-OBS bytes=nan rows=-1 pairs=0 match=0 built=0 idx=0 "
        "rbytes=-inf rrows=0\n",
        "-- QSERV-OBS bytes=inf rows=1 pairs=0 match=0 built=0 idx=0 "
        "rbytes=1 rrows=-0\n",
        "-- QSERV-OBS bytes=-3 rows=+1 pairs=0 match=0 built=0 idx=0 "
        "rbytes=1e999 rrows=99999999999999999999\n"}) {
    mutants.push_back(line);
  }

  const auto started = std::chrono::steady_clock::now();
  std::size_t decoded = 0;
  for (const std::string& m : mutants) {
    auto obs = decodeObservables(m);
    if (!obs) continue;
    ++decoded;
    ASSERT_TRUE(std::isfinite(obs->bytesScanned)) << m;
    ASSERT_TRUE(std::isfinite(obs->resultBytes)) << m;
    ASSERT_GE(obs->bytesScanned, 0.0) << m;
    ASSERT_GE(obs->resultBytes, 0.0) << m;
  }
  // Some flips only change a digit (still a valid trailer), or land in the
  // MD5 line after it; most damage is caught.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, mutants.size());
  EXPECT_LT(std::chrono::steady_clock::now() - started,
            std::chrono::seconds(10));
}

}  // namespace
}  // namespace qserv::core
