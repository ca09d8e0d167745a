#include "sql/rowcodec.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>

#include "qserv/dump_integrity.h"
#include "qserv/observables_codec.h"
#include "sql/dump.h"
#include "util/rng.h"

namespace qserv::sql {
namespace {

TablePtr sampleTable() {
  Schema schema({{"id", ColumnType::kInt},
                 {"ra", ColumnType::kDouble},
                 {"name", ColumnType::kString}});
  auto t = std::make_shared<Table>("src", schema);
  EXPECT_TRUE(t->appendRow(std::vector<Value>{Value(1), Value(1.5), Value("a")}).isOk());
  EXPECT_TRUE(t->appendRow(std::vector<Value>{Value(-7), Value::null(), Value("it's")}).isOk());
  EXPECT_TRUE(t->appendRow(std::vector<Value>{Value::null(), Value(0.25), Value::null()}).isOk());
  return t;
}

/// Field-by-field zone-map equality (ZoneMap has no operator==).
void expectSameZones(const Table& got, const Table& want) {
  ASSERT_EQ(got.numColumns(), want.numColumns());
  for (std::size_t c = 0; c < want.numColumns(); ++c) {
    const ZoneMap& g = got.zoneMap(c);
    const ZoneMap& w = want.zoneMap(c);
    EXPECT_EQ(g.hasValue, w.hasValue) << c;
    EXPECT_EQ(g.hasNaN, w.hasNaN) << c;
    EXPECT_EQ(g.intMin, w.intMin) << c;
    EXPECT_EQ(g.intMax, w.intMax) << c;
    EXPECT_EQ(std::signbit(g.dblMin), std::signbit(w.dblMin)) << c;
    EXPECT_EQ(g.dblMin, w.dblMin) << c;
    EXPECT_EQ(g.dblMax, w.dblMax) << c;
    EXPECT_EQ(g.nullCount, w.nullCount) << c;
  }
}

/// Cell equality that also distinguishes NaN, -0.0 and string bytes.
void expectSameCells(const Table& got, const Table& want) {
  ASSERT_EQ(got.numRows(), want.numRows());
  ASSERT_EQ(got.schema(), want.schema());
  for (std::size_t r = 0; r < want.numRows(); ++r) {
    for (std::size_t c = 0; c < want.numColumns(); ++c) {
      ASSERT_EQ(got.isNull(r, c), want.isNull(r, c)) << r << "," << c;
      if (want.isNull(r, c)) continue;
      switch (want.schema().column(c).type) {
        case ColumnType::kInt:
          EXPECT_EQ(got.intColumn(c)[r], want.intColumn(c)[r]);
          break;
        case ColumnType::kDouble: {
          double g = got.doubleColumn(c)[r], w = want.doubleColumn(c)[r];
          EXPECT_EQ(std::memcmp(&g, &w, sizeof g), 0) << r << "," << c;
          break;
        }
        case ColumnType::kString:
          EXPECT_EQ(got.stringColumn(c)[r], want.stringColumn(c)[r]);
          break;
      }
    }
  }
}

/// Every edge value of every type, with a NULL in each column.
TablePtr edgeTable() {
  Schema schema({{"i", ColumnType::kInt},
                 {"d", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
  auto t = std::make_shared<Table>("edge", schema);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<Value>> rows = {
      {Value(std::numeric_limits<std::int64_t>::min()),
       Value(std::numeric_limits<double>::quiet_NaN()), Value("")},
      {Value(std::numeric_limits<std::int64_t>::max()), Value(inf),
       Value(std::string("a\0b", 3))},
      {Value::null(), Value(-inf), Value::null()},
      {Value(std::int64_t{0}), Value::null(), Value(std::string(300, 'x'))},
      {Value(std::int64_t{-1}), Value(-0.0), Value(std::string(1, '\0'))},
  };
  EXPECT_TRUE(t->appendRows(rows).isOk());
  return t;
}

TEST(RowCodec, MagicDetection) {
  auto t = sampleTable();
  std::string bin = encodeTableBinary(*t, "out");
  EXPECT_TRUE(isBinaryTablePayload(bin));
  EXPECT_FALSE(isBinaryTablePayload(dumpTable(*t, "out")));
  EXPECT_FALSE(isBinaryTablePayload(""));
  EXPECT_FALSE(isBinaryTablePayload("QB"));
}

TEST(RowCodec, RoundTripPreservesEverything) {
  auto t = sampleTable();
  std::string bin = encodeTableBinary(*t, "decoded");
  Database db;
  auto loaded = loadBinaryTable(db, bin);
  ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
  EXPECT_EQ((*loaded)->name(), "decoded");
  ASSERT_EQ((*loaded)->numRows(), t->numRows());
  ASSERT_EQ((*loaded)->numColumns(), t->numColumns());
  for (std::size_t c = 0; c < t->numColumns(); ++c) {
    EXPECT_EQ((*loaded)->schema().column(c), t->schema().column(c));
  }
  for (std::size_t r = 0; r < t->numRows(); ++r) {
    for (std::size_t c = 0; c < t->numColumns(); ++c) {
      EXPECT_EQ((*loaded)->cell(r, c), t->cell(r, c)) << r << "," << c;
    }
  }
  EXPECT_TRUE(db.hasTable("decoded"));
}

TEST(RowCodec, DoubleBitsExact) {
  Schema schema({{"x", ColumnType::kDouble}});
  auto t = std::make_shared<Table>("t", schema);
  for (double d : {0.1, 1.0 / 3.0, 1e-300, -0.0, 2.2250738585072014e-308}) {
    ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(d)}).isOk());
  }
  Database db;
  auto loaded = loadBinaryTable(db, encodeTableBinary(*t, "t2"));
  ASSERT_TRUE(loaded.isOk());
  for (std::size_t r = 0; r < t->numRows(); ++r) {
    EXPECT_EQ((*loaded)->cell(r, 0).asDouble(), t->cell(r, 0).asDouble());
  }
}

TEST(RowCodec, EmptyTable) {
  // Zero rows still carry every column type of the schema.
  Table t("t", edgeTable()->schema());
  Database db;
  auto loaded = loadBinaryTable(db, encodeTableBinary(t, "empty"));
  ASSERT_TRUE(loaded.isOk());
  EXPECT_EQ((*loaded)->numRows(), 0u);
  expectSameCells(**loaded, t);
  expectSameZones(**loaded, t);
}

TEST(RowCodec, TrailingBytesAreIgnored) {
  // The worker's full envelope: payload, observables comment, MD5 trailer.
  auto t = edgeTable();
  std::string bin = encodeTableBinary(*t, "t2");
  simio::WorkObservables obs;
  obs.resultRows = t->numRows();
  bin += core::encodeObservables(obs);
  core::appendDumpChecksum(bin);
  ASSERT_TRUE(core::verifyDumpChecksum(bin).isOk());
  Database db;
  auto loaded = loadBinaryTable(db, bin);
  ASSERT_TRUE(loaded.isOk()) << loaded.status().toString();
  expectSameCells(**loaded, *t);
}

TEST(RowCodec, EdgeValuesRoundTripWithZoneMaps) {
  auto t = edgeTable();
  auto decoded = decodeTableBinary(encodeTableBinary(*t, "out"));
  ASSERT_TRUE(decoded.isOk()) << decoded.status().toString();
  EXPECT_EQ((*decoded)->name(), "out");
  expectSameCells(**decoded, *t);
  expectSameZones(**decoded, *t);
  EXPECT_TRUE((*decoded)->zoneMap(1).hasNaN);
  EXPECT_EQ((*decoded)->zoneMap(0).intMin,
            std::numeric_limits<std::int64_t>::min());
}

TEST(RowCodec, LayoutIsColumnMajor) {
  // Pins the wire format: header, then each column whole — type, name,
  // null flag (+ mask only when the column has NULLs), raw values.
  Schema schema({{"a", ColumnType::kInt}, {"b", ColumnType::kString}});
  Table t("t", schema);
  ASSERT_TRUE(t.appendRow(std::vector<Value>{Value(1), Value("xy")}).isOk());
  ASSERT_TRUE(t.appendRow(std::vector<Value>{Value(2), Value::null()}).isOk());
  using namespace std::string_literals;
  const std::string want = "QBN2"s + "\x01\0t"s + "\x02\0"s +
                           "\x02\0\0\0\0\0\0\0"s +                 // nrows
                           "\0\x01\0a\0"s +                          // a: no mask
                           "\x01\0\0\0\0\0\0\0\x02\0\0\0\0\0\0\0"s +
                           "\x02\x01\0b\x01"s + "\0\x01"s +       // b: mask
                           "\x02\0\0\0\0\0\0\0"s + "xy"s;          // lengths, bytes
  EXPECT_EQ(encodeTableBinary(t, "t"), want);
}

TEST(RowCodec, ZeroColumnRowCountIsRejectedBeforeLooping) {
  // Regression: deleting one byte at offset 6 or 7 once left a header of
  // zero columns and ~2^64 rows, and the decoder looped over every row.
  auto t = sampleTable();
  std::string bin = encodeTableBinary(*t, "t2");
  for (std::size_t offset : {6u, 7u}) {
    std::string damaged = bin;
    damaged.erase(offset, 1);
    auto started = std::chrono::steady_clock::now();
    EXPECT_FALSE(decodeTableBinary(damaged).isOk()) << offset;
    EXPECT_LT(std::chrono::steady_clock::now() - started,
              std::chrono::seconds(1));
  }
  // The state itself: no columns, the largest row count.
  using namespace std::string_literals;
  std::string header = "QBN2"s + "\0\0"s + "\0\0"s + std::string(8, '\xff');
  EXPECT_FALSE(decodeTableBinary(header).isOk());
  EXPECT_FALSE(decodeTableBinary(header + std::string(64, '\0')).isOk());
  // One column cannot claim more rows than the remaining bytes hold.
  std::string oneCol = "QBN2"s + "\0\0"s + "\x01\0"s +
                       "\0\0\0\0\0\x01\0\0"s + "\0\x01\0a\0"s +
                       std::string(64, '\0');
  EXPECT_FALSE(decodeTableBinary(oneCol).isOk());
}

TEST(RowCodec, TruncationIsRejectedEverywhere) {
  auto t = sampleTable();
  std::string bin = encodeTableBinary(*t, "t2");
  // Any strict prefix must fail cleanly (never crash, never succeed except
  // the degenerate full length).
  for (std::size_t cut = 4; cut < bin.size(); cut += 3) {
    Database db;
    auto r = loadBinaryTable(db, std::string_view(bin).substr(0, cut));
    EXPECT_FALSE(r.isOk()) << "cut=" << cut;
  }
}

TEST(RowCodec, GarbageRejected) {
  Database db;
  EXPECT_FALSE(loadBinaryTable(db, "not binary at all").isOk());
  std::string bad = std::string(kRowCodecMagic) + std::string(100, '\xff');
  EXPECT_FALSE(loadBinaryTable(db, bad).isOk());
}

TEST(RowCodec, ReplacesExistingTable) {
  auto t = sampleTable();
  Database db;
  ASSERT_TRUE(loadBinaryTable(db, encodeTableBinary(*t, "t2")).isOk());
  ASSERT_TRUE(loadBinaryTable(db, encodeTableBinary(*t, "t2")).isOk());
  EXPECT_EQ(db.findTable("t2")->numRows(), 3u);
}

TEST(RowCodec, SmallerThanSqlDump) {
  // The point of §7.1: the binary stream is much denser than INSERT text.
  Schema schema({{"a", ColumnType::kInt}, {"b", ColumnType::kDouble}});
  auto t = std::make_shared<Table>("t", schema);
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(t->appendRow(std::vector<Value>{
                     Value(static_cast<std::int64_t>(rng())),
                     Value(rng.uniform())})
                    .isOk());
  }
  std::string dump = dumpTable(*t, "t2");
  std::string bin = encodeTableBinary(*t, "t2");
  EXPECT_LT(bin.size() * 2, dump.size());
}

TEST(RowCodec, RandomizedRoundTripSweep) {
  util::Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    Schema schema({{"i", ColumnType::kInt},
                   {"d", ColumnType::kDouble},
                   {"s", ColumnType::kString}});
    auto t = std::make_shared<Table>("t", schema);
    std::size_t rows = rng.below(50);
    for (std::size_t r = 0; r < rows; ++r) {
      std::vector<Value> row(3);
      row[0] = rng.below(5) == 0 ? Value::null()
                                 : Value(static_cast<std::int64_t>(rng()));
      row[1] = rng.below(5) == 0 ? Value::null() : Value(rng.uniform(-1e9, 1e9));
      if (rng.below(5) == 0) {
        row[2] = Value::null();
      } else {
        std::string s;
        for (std::size_t k = rng.below(20); k > 0; --k) {
          s.push_back(static_cast<char>(rng.below(256)));
        }
        row[2] = Value(std::move(s));
      }
      ASSERT_TRUE(t->appendRow(row).isOk());
    }
    Database db;
    auto loaded = loadBinaryTable(db, encodeTableBinary(*t, "t2"));
    ASSERT_TRUE(loaded.isOk()) << trial;
    ASSERT_EQ((*loaded)->numRows(), rows);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < 3; ++c) {
        ASSERT_EQ((*loaded)->cell(r, c), t->cell(r, c));
      }
    }
    expectSameZones(**loaded, *t);
  }
}

}  // namespace
}  // namespace qserv::sql
