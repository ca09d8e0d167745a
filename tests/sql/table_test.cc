/// \file table_test.cc
/// \brief Column storage growth: appends stay amortized linear. Counting
/// reallocations (data-pointer changes) instead of timing keeps the check
/// deterministic on any host.
#include "sql/table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace qserv::sql {
namespace {

Schema threeColumns() {
  return Schema({{"id", ColumnType::kInt},
                 {"flux", ColumnType::kDouble},
                 {"name", ColumnType::kString}});
}

/// Counts how often a column's storage moves while it grows.
template <typename T>
struct MoveCounter {
  const T* last = nullptr;
  int moves = 0;
  void observe(const std::vector<T>& v) {
    if (v.data() != last) {
      ++moves;
      last = v.data();
    }
  }
};

TEST(TableAppend, OneRowAppendsReallocateLogarithmically) {
  constexpr int kRows = 20000;
  // The merger's pattern: many one-row chunk tables appended into one.
  const int maxMoves = static_cast<int>(2 * std::log2(kRows)) + 1;
  Table merged("m", threeColumns());
  MoveCounter<std::int64_t> ints;
  MoveCounter<double> doubles;
  MoveCounter<std::string> strings;
  MoveCounter<std::uint8_t> nulls;
  for (int i = 0; i < kRows; ++i) {
    Table one("r", threeColumns());
    Value name = i % 97 == 0 ? Value() : Value("o" + std::to_string(i));
    ASSERT_TRUE(one.appendRow(std::vector<Value>{Value(std::int64_t{i} - 7),
                                                 Value(0.25 * i), name})
                    .isOk());
    ASSERT_TRUE(merged.appendFrom(one).isOk());
    ints.observe(merged.intColumn(0));
    doubles.observe(merged.doubleColumn(1));
    strings.observe(merged.stringColumn(2));
    nulls.observe(merged.nullMask(2));
  }
  EXPECT_LE(ints.moves, maxMoves);
  EXPECT_LE(doubles.moves, maxMoves);
  EXPECT_LE(strings.moves, maxMoves);
  EXPECT_LE(nulls.moves, maxMoves);

  // Rows and zone maps are exact.
  ASSERT_EQ(merged.numRows(), static_cast<std::size_t>(kRows));
  std::size_t nullNames = 0;
  for (int i = 0; i < kRows; ++i) {
    ASSERT_EQ(merged.cell(i, 0).asInt(), i - 7);
    ASSERT_EQ(merged.cell(i, 1).toDouble(), 0.25 * i);
    if (i % 97 == 0) {
      ++nullNames;
      ASSERT_TRUE(merged.isNull(i, 2));
    } else {
      ASSERT_EQ(merged.cell(i, 2).asString(), "o" + std::to_string(i));
    }
  }
  const ZoneMap& id = merged.zoneMap(0);
  EXPECT_TRUE(id.hasValue);
  EXPECT_EQ(id.intMin, -7);
  EXPECT_EQ(id.intMax, kRows - 8);
  EXPECT_EQ(id.nullCount, 0u);
  const ZoneMap& flux = merged.zoneMap(1);
  EXPECT_EQ(flux.dblMin, 0.0);
  EXPECT_EQ(flux.dblMax, 0.25 * (kRows - 1));
  EXPECT_FALSE(flux.hasNaN);
  EXPECT_EQ(merged.zoneMap(2).nullCount, nullNames);
}

TEST(TableAppend, RowBatchesReallocateLogarithmically) {
  constexpr int kBatches = 20000;
  const int maxMoves = static_cast<int>(2 * std::log2(kBatches)) + 1;
  Table t("t", threeColumns());
  MoveCounter<double> doubles;
  for (int i = 0; i < kBatches; ++i) {
    std::vector<std::vector<Value>> rows = {
        {Value(std::int64_t{i}), Value(1.0 * i), Value("x")}};
    ASSERT_TRUE(t.appendRows(rows).isOk());
    doubles.observe(t.doubleColumn(1));
  }
  EXPECT_LE(doubles.moves, maxMoves);
  EXPECT_EQ(t.numRows(), static_cast<std::size_t>(kBatches));
  EXPECT_EQ(t.zoneMap(1).dblMax, kBatches - 1.0);
}

TEST(TableAppend, BulkLoadIntoEmptyTableReservesExactly) {
  // Catalog tables are loaded in one bulk append and then only read: the
  // first append into an empty table grows no slack.
  Table src("src", threeColumns());
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back({Value(std::int64_t{i}), Value(2.0 * i), Value("s")});
  }
  ASSERT_TRUE(src.appendRows(rows).isOk());
  EXPECT_EQ(src.intColumn(0).capacity(), 1000u);
  Table copy("copy", threeColumns());
  ASSERT_TRUE(copy.appendFrom(src).isOk());
  EXPECT_EQ(copy.doubleColumn(1).capacity(), 1000u);
  EXPECT_EQ(copy.nullMask(2).capacity(), 1000u);
}

}  // namespace
}  // namespace qserv::sql
