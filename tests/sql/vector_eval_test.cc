/// Tests for the vectorized scan-filter path (sql/vector_eval.h): golden
/// NULL-comparison and INT/DOUBLE coercion semantics, randomized parity
/// against the row-at-a-time executor, zone-map pruning stats, and the bulk
/// append paths (Table::appendRows / appendFrom) the scan pipeline rides on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sql/database.h"
#include "sql/parser.h"
#include "sql/vector_eval.h"
#include "util/rng.h"
#include "util/strings.h"

namespace qserv::sql {
namespace {

/// Restores the global vectorized-filter switch after each test.
class VectorEval : public ::testing::Test {
 protected:
  void TearDown() override { setVectorizedFilterEnabled(true); }

  /// Run \p sql with the vectorized path on and off; require identical
  /// results cell by cell. Returns the (shared) result row count.
  std::size_t expectParity(Database& db, const std::string& sql) {
    setVectorizedFilterEnabled(true);
    ExecStats sv, sr;
    auto vec = db.execute(sql, &sv);
    setVectorizedFilterEnabled(false);
    auto row = db.execute(sql, &sr);
    setVectorizedFilterEnabled(true);
    EXPECT_TRUE(vec.isOk()) << vec.status().toString() << " for " << sql;
    EXPECT_TRUE(row.isOk()) << row.status().toString() << " for " << sql;
    if (!vec.isOk() || !row.isOk()) return 0;
    EXPECT_EQ((*vec)->numRows(), (*row)->numRows()) << sql;
    EXPECT_EQ((*vec)->numColumns(), (*row)->numColumns()) << sql;
    if ((*vec)->numRows() != (*row)->numRows()) return 0;
    for (std::size_t r = 0; r < (*vec)->numRows(); ++r) {
      for (std::size_t c = 0; c < (*vec)->numColumns(); ++c) {
        EXPECT_EQ((*vec)->cell(r, c), (*row)->cell(r, c))
            << sql << " at " << r << "," << c;
      }
    }
    return (*vec)->numRows();
  }

  /// The ids surviving `SELECT id FROM T WHERE <where> ORDER BY id`, with
  /// parity between both paths asserted along the way.
  std::vector<std::int64_t> idsWhere(Database& db, const std::string& where) {
    std::string sql = "SELECT id FROM T WHERE " + where + " ORDER BY id";
    expectParity(db, sql);
    auto r = db.execute(sql);
    EXPECT_TRUE(r.isOk()) << where;
    std::vector<std::int64_t> ids;
    if (r.isOk()) {
      for (std::size_t i = 0; i < (*r)->numRows(); ++i) {
        ids.push_back((*r)->cell(i, 0).asInt());
      }
    }
    return ids;
  }
};

using Ids = std::vector<std::int64_t>;

/// id INT, a INT (NULLs at ids 2 and 5), x DOUBLE (NULL at id 3), s STRING.
std::unique_ptr<Database> goldenDb() {
  auto db = std::make_unique<Database>("golden");
  Schema schema({{"id", ColumnType::kInt},
                 {"a", ColumnType::kInt},
                 {"x", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
  auto t = std::make_shared<Table>("T", schema);
  auto row = [&](std::int64_t id, Value a, Value x, const char* s) {
    std::vector<Value> r{Value(id), std::move(a), std::move(x),
                         Value(std::string(s))};
    ASSERT_TRUE(t->appendRow(r).isOk());
  };
  row(0, Value(std::int64_t{10}), Value(1.5), "aa");
  row(1, Value(std::int64_t{20}), Value(2.0), "bb");
  row(2, Value::null(), Value(2.5), "cc");
  row(3, Value(std::int64_t{30}), Value::null(), "dd");
  row(4, Value(std::int64_t{20}), Value(5.0), "ee");
  row(5, Value::null(), Value(-1.0), "ff");
  EXPECT_TRUE(db->registerTable(t).isOk());
  return db;
}

TEST_F(VectorEval, NullComparisonGoldens) {
  auto db = goldenDb();
  // NULL never satisfies a comparison — `a != 20` does NOT keep NULL rows.
  EXPECT_EQ(idsWhere(*db, "a = 20"), (Ids{1, 4}));
  EXPECT_EQ(idsWhere(*db, "a != 20"), (Ids{0, 3}));
  EXPECT_EQ(idsWhere(*db, "a < 30"), (Ids{0, 1, 4}));
  EXPECT_EQ(idsWhere(*db, "NOT a < 30"), (Ids{3}));
  EXPECT_EQ(idsWhere(*db, "a IS NULL"), (Ids{2, 5}));
  EXPECT_EQ(idsWhere(*db, "a IS NOT NULL"), (Ids{0, 1, 3, 4}));
  EXPECT_EQ(idsWhere(*db, "x IS NULL"), (Ids{3}));
  // Comparison against a NULL constant is NULL for every row.
  EXPECT_EQ(idsWhere(*db, "a = NULL"), Ids{});
  EXPECT_EQ(idsWhere(*db, "a != NULL"), Ids{});
  EXPECT_EQ(idsWhere(*db, "x BETWEEN 1 AND NULL"), Ids{});
  EXPECT_EQ(idsWhere(*db, "x NOT BETWEEN 1 AND NULL"), Ids{});
  // IN keeps matches even with a NULL item; NOT IN with a NULL item keeps
  // nothing (the non-match outcome is NULL, not true).
  EXPECT_EQ(idsWhere(*db, "a IN (20, NULL)"), (Ids{1, 4}));
  EXPECT_EQ(idsWhere(*db, "a NOT IN (20, NULL)"), Ids{});
  EXPECT_EQ(idsWhere(*db, "a NOT IN (20, 30)"), (Ids{0}));
  EXPECT_EQ(idsWhere(*db, "x NOT BETWEEN 1.5 AND 2.5"), (Ids{4, 5}));
  EXPECT_EQ(idsWhere(*db, "a IN (NULL)"), Ids{});
}

TEST_F(VectorEval, IntDoubleCoercionGoldens) {
  auto db = goldenDb();
  // INT column against DOUBLE constants: compare through widening.
  EXPECT_EQ(idsWhere(*db, "a < 25.5"), (Ids{0, 1, 4}));
  EXPECT_EQ(idsWhere(*db, "a = 20.0"), (Ids{1, 4}));
  EXPECT_EQ(idsWhere(*db, "a BETWEEN 15.5 AND 29.9"), (Ids{1, 4}));
  EXPECT_EQ(idsWhere(*db, "a IN (10.0, 30)"), (Ids{0, 3}));
  // DOUBLE column against INT constants.
  EXPECT_EQ(idsWhere(*db, "x = 2"), (Ids{1}));
  EXPECT_EQ(idsWhere(*db, "x >= 2"), (Ids{1, 2, 4}));
  EXPECT_EQ(idsWhere(*db, "x BETWEEN -1 AND 2"), (Ids{0, 1, 5}));
  // Inverted range: BETWEEN with lo > hi holds for nothing, NOT BETWEEN for
  // every non-null row.
  EXPECT_EQ(idsWhere(*db, "x BETWEEN 3 AND 2"), Ids{});
  EXPECT_EQ(idsWhere(*db, "x NOT BETWEEN 3 AND 2"), (Ids{0, 1, 2, 4, 5}));
  // A string constant against a numeric column compares by type rank
  // (numeric sorts before string) — constant truth per non-null row.
  EXPECT_EQ(idsWhere(*db, "a < 'zz'"), (Ids{0, 1, 3, 4}));
  EXPECT_EQ(idsWhere(*db, "a > 'zz'"), Ids{});
}

TEST_F(VectorEval, NaNColumnValuesKeepParityAndDisablePruning) {
  Database db("nan");
  Schema schema({{"id", ColumnType::kInt}, {"x", ColumnType::kDouble}});
  auto t = std::make_shared<Table>("T", schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(std::int64_t{0}), Value(1.0)}).isOk());
  ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(std::int64_t{1}), Value(nan)}).isOk());
  ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(std::int64_t{2}), Value(2.0)}).isOk());
  ASSERT_TRUE(db.registerTable(t).isOk());
  // Value::compare treats NaN as equal to everything, so the NaN row
  // satisfies `x = 1e300` even though no finite value does. Zone pruning
  // must not "win" here: hasNaN disables the range check.
  EXPECT_EQ(idsWhere(db, "x = 1e300"), (Ids{1}));
  EXPECT_EQ(idsWhere(db, "x BETWEEN 100 AND 200"), (Ids{1}));
  EXPECT_EQ(idsWhere(db, "x > 1e300"), Ids{});
  EXPECT_EQ(idsWhere(db, "x < 1.5"), (Ids{0}));
  setVectorizedFilterEnabled(true);
  ExecStats stats;
  auto r = db.execute("SELECT COUNT(*) FROM T WHERE x = 1e300", &stats);
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ((*r)->cell(0, 0).asInt(), 1);
  EXPECT_EQ(stats.zoneMapPrunes, 0u);
}

TEST_F(VectorEval, RandomizedParityTenThousandRows) {
  Database db("fuzz");
  Schema schema({{"id", ColumnType::kInt},
                 {"a", ColumnType::kInt},
                 {"x", ColumnType::kDouble},
                 {"y", ColumnType::kDouble},
                 {"z", ColumnType::kDouble},   // all NULL
                 {"s", ColumnType::kString}});
  auto t = std::make_shared<Table>("T", schema);
  util::Rng rng(20260806);
  const std::size_t kRows = 12000;  // > 2 kernel blocks, exercises reordering
  std::vector<std::vector<Value>> rows;
  rows.reserve(kRows);
  const char* words[] = {"lsst", "qserv", "czar", "chunk"};
  for (std::size_t i = 0; i < kRows; ++i) {
    std::vector<Value> row(6);
    row[0] = Value(static_cast<std::int64_t>(i));
    if (rng.below(10) != 0) {
      row[1] = Value(static_cast<std::int64_t>(rng.range(-50, 50)));
    }
    if (rng.below(8) != 0) row[2] = Value(rng.uniform(-100.0, 100.0));
    row[3] = Value(rng.uniform(0.0, 1.0));
    // row[4] (z) stays NULL for every row.
    row[5] = Value(std::string(words[rng.below(4)]));
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(t->appendRows(rows).isOk());
  ASSERT_TRUE(db.registerTable(t).isOk());

  // Every supported kernel shape with randomized constants, plus residual
  // shapes (strings, cross-column, arithmetic) mixed into conjunctions.
  const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
  for (int trial = 0; trial < 25; ++trial) {
    long long ia = rng.range(-55, 55);
    double dx = rng.uniform(-110.0, 110.0);
    double dy = rng.uniform(-0.1, 1.1);
    const char* op = ops[rng.below(6)];
    expectParity(db, util::format(
        "SELECT id FROM T WHERE a %s %lld ORDER BY id", op, ia));
    expectParity(db, util::format(
        "SELECT id, x FROM T WHERE x %s %.17g ORDER BY id", op, dx));
    expectParity(db, util::format(
        "SELECT COUNT(*) FROM T WHERE a BETWEEN %lld AND %lld", ia, ia + 20));
    expectParity(db, util::format(
        "SELECT id FROM T WHERE x NOT BETWEEN %.17g AND %.17g ORDER BY id",
        dx, dx + 30.0));
    expectParity(db, util::format(
        "SELECT COUNT(*) FROM T WHERE a IN (%lld, %lld, %lld)", ia, ia + 1,
        static_cast<long long>(rng.range(-55, 55))));
    expectParity(db, util::format(
        "SELECT COUNT(*) FROM T WHERE a NOT IN (%lld, %lld)", ia, ia + 2));
    // Conjunctions across columns, including the all-NULL column and
    // residual conjuncts that force the per-row fallback on survivors.
    expectParity(db, util::format(
        "SELECT id FROM T WHERE a > %lld AND x < %.17g AND y %s %.17g "
        "ORDER BY id", ia, dx, op, dy));
    expectParity(db, util::format(
        "SELECT id FROM T WHERE x > %.17g AND s = 'qserv' ORDER BY id", dx));
    expectParity(db, util::format(
        "SELECT id FROM T WHERE a IS NOT NULL AND x < y * 100 AND "
        "x > %.17g ORDER BY id", dx));
    expectParity(db, util::format(
        "SELECT COUNT(*) FROM T WHERE z IS NULL AND a < %lld", ia));
    expectParity(db, util::format(
        "SELECT COUNT(*) FROM T WHERE z > %.17g", dx));
  }
}

TEST_F(VectorEval, EmptyAndAllNullTables) {
  Database db("edges");
  Schema schema({{"id", ColumnType::kInt}, {"x", ColumnType::kDouble}});
  ASSERT_TRUE(
      db.registerTable(std::make_shared<Table>("T", schema)).isOk());
  EXPECT_EQ(idsWhere(db, "x < 5"), Ids{});
  EXPECT_EQ(idsWhere(db, "x IS NULL"), Ids{});
  setVectorizedFilterEnabled(true);
  ExecStats stats;
  auto r = db.execute("SELECT COUNT(*) FROM T WHERE x < 5", &stats);
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ((*r)->cell(0, 0).asInt(), 0);
  // An empty table is never "pruned": there is nothing to skip.
  EXPECT_EQ(stats.zoneMapPrunes, 0u);

  auto allNull = std::make_shared<Table>("N", schema);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        allNull->appendRow(std::vector<Value>{Value(std::int64_t{i}), Value::null()}).isOk());
  }
  ASSERT_TRUE(db.registerTable(allNull).isOk());
  expectParity(db, "SELECT COUNT(*) FROM N WHERE x < 5");
  expectParity(db, "SELECT id FROM N WHERE x IS NULL ORDER BY id");
  expectParity(db, "SELECT COUNT(*) FROM N WHERE x IS NOT NULL");
}

TEST_F(VectorEval, ZoneMapPruneReportsZeroRowsScanned) {
  auto db = goldenDb();  // id in [0,5], a in [10,30], x in [-1,5]
  setVectorizedFilterEnabled(true);
  struct Case {
    const char* sql;
    bool prunes;
  };
  const Case cases[] = {
      {"SELECT COUNT(*) FROM T WHERE id = 999", true},
      {"SELECT id FROM T WHERE a > 100", true},
      {"SELECT COUNT(*) FROM T WHERE x BETWEEN 50.5 AND 60", true},
      {"SELECT COUNT(*) FROM T WHERE a IN (99, 101)", true},
      {"SELECT COUNT(*) FROM T WHERE id >= 0", false},
      {"SELECT COUNT(*) FROM T WHERE x < 100", false},
  };
  for (const Case& c : cases) {
    ExecStats stats;
    auto r = db->execute(c.sql, &stats);
    ASSERT_TRUE(r.isOk()) << c.sql;
    if (c.prunes) {
      EXPECT_EQ(stats.zoneMapPrunes, 1u) << c.sql;
      EXPECT_EQ(stats.rowsScanned, 0u) << c.sql;
      EXPECT_EQ(stats.zoneMapRowsSkipped, 6u) << c.sql;
    } else {
      EXPECT_EQ(stats.zoneMapPrunes, 0u) << c.sql;
      EXPECT_EQ(stats.rowsScanned, 6u) << c.sql;
    }
    expectParity(*db, c.sql);
  }
}

TEST_F(VectorEval, VectorStatsAndResidualFallback) {
  auto db = goldenDb();
  setVectorizedFilterEnabled(true);
  ExecStats stats;
  auto r = db->execute(
      "SELECT id FROM T WHERE x >= 2 AND s != 'cc' ORDER BY id", &stats);
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ((*r)->numRows(), 2u);  // ids 1 and 4 (id 2 killed by residual)
  EXPECT_EQ(stats.vectorizedScans, 1u);
  EXPECT_EQ(stats.vectorRowsIn, 6u);
  EXPECT_EQ(stats.vectorRowsOut, 3u);   // x >= 2 keeps ids 1, 2, 4
  EXPECT_EQ(stats.fallbackRows, 3u);    // residual re-checks the survivors
  EXPECT_EQ(stats.rowsScanned, 6u);     // cost-model accounting is unchanged

  ExecStats pure;
  auto r2 = db->execute("SELECT id FROM T WHERE x >= 2 ORDER BY id", &pure);
  ASSERT_TRUE(r2.isOk());
  EXPECT_EQ(pure.vectorizedScans, 1u);
  EXPECT_EQ(pure.fallbackRows, 0u);  // fully kernelized, no residuals

  setVectorizedFilterEnabled(false);
  ExecStats off;
  ASSERT_TRUE(db->execute("SELECT id FROM T WHERE x >= 2", &off).isOk());
  EXPECT_EQ(off.vectorizedScans, 0u);
  EXPECT_EQ(off.rowsScanned, 6u);
}

TEST_F(VectorEval, CountStarPushdownMatchesAndYieldsToIndexes) {
  Database db("count");
  Schema schema({{"id", ColumnType::kInt}, {"x", ColumnType::kDouble}});
  auto t = std::make_shared<Table>("T", schema);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t->appendRow(std::vector<Value>{Value(std::int64_t{i}),
                              Value(static_cast<double>(i) / 10.0)}).isOk());
  }
  ASSERT_TRUE(db.registerTable(t).isOk());
  setVectorizedFilterEnabled(true);
  ExecStats stats;
  auto r = db.execute("SELECT COUNT(*) FROM T WHERE x < 2.05", &stats);
  ASSERT_TRUE(r.isOk());
  EXPECT_EQ((*r)->cell(0, 0).asInt(), 21);
  EXPECT_EQ(stats.vectorizedScans, 1u);
  EXPECT_EQ(stats.rowsScanned, 100u);
  expectParity(db, "SELECT COUNT(*) FROM T WHERE x < 2.05");
  expectParity(db, "SELECT COUNT(*) FROM T WHERE id BETWEEN 10 AND 19");

  // With an index on the filtered column, the index probe must win (the
  // pushdown would otherwise bypass indexLookups accounting).
  ASSERT_TRUE(db.createIndex("T", "id").isOk());
  ExecStats idx;
  auto ri = db.execute("SELECT COUNT(*) FROM T WHERE id BETWEEN 10 AND 19",
                       &idx);
  ASSERT_TRUE(ri.isOk());
  EXPECT_EQ((*ri)->cell(0, 0).asInt(), 10);
  EXPECT_EQ(idx.indexLookups, 1u);
  EXPECT_EQ(idx.vectorizedScans, 0u);
}

TEST_F(VectorEval, CompileShapesAndResiduals) {
  auto db = goldenDb();
  TablePtr t = db->findTable("T");
  std::vector<ScopeTable> scope{{"T", t.get()}};
  auto whereOf = [](const char* sql) {
    auto stmt = parseStatement(sql);
    EXPECT_TRUE(stmt.isOk()) << sql;
    return std::move(std::get<SelectStmt>(*stmt).where);
  };
  struct Case {
    const char* where;
    bool kernel;  // compiles to a kernel (vs residual)
  };
  const Case cases[] = {
      {"SELECT * FROM T WHERE a < 5", true},
      {"SELECT * FROM T WHERE 5 > a", true},  // flipped operand order
      {"SELECT * FROM T WHERE x BETWEEN 1 AND 2", true},
      {"SELECT * FROM T WHERE a IN (1, 2, 3)", true},
      {"SELECT * FROM T WHERE x IS NOT NULL", true},
      {"SELECT * FROM T WHERE a < 1 + 2", true},  // constant-folded rhs
      {"SELECT * FROM T WHERE s = 'aa'", false},      // string column
      {"SELECT * FROM T WHERE a < x", false},         // cross-column
      {"SELECT * FROM T WHERE a + 1 < 5", false},     // arithmetic on column
      {"SELECT * FROM T WHERE a < 5 OR x < 1", false},  // disjunction
  };
  for (const Case& c : cases) {
    auto where = whereOf(c.where);
    ASSERT_TRUE(where != nullptr) << c.where;
    const Expr* pred = where.get();
    auto sf = compileScanFilter({&pred, 1}, scope, 0, db->functions());
    ASSERT_TRUE(sf.isOk()) << c.where;
    EXPECT_EQ(sf->hasKernels(), c.kernel) << c.where;
    EXPECT_EQ(sf->residuals().size(), c.kernel ? 0u : 1u) << c.where;
    if (c.kernel) {
      EXPECT_EQ(sf->kernelColumns().size(), 1u) << c.where;
    }
  }
  // An empty table never prunes.
  Table empty("E", t->schema());
  auto where = whereOf("SELECT * FROM T WHERE a > 100");
  const Expr* pred = where.get();
  auto sf = compileScanFilter({&pred, 1}, scope, 0, db->functions());
  ASSERT_TRUE(sf.isOk());
  EXPECT_TRUE(sf->prunes(*t));
  EXPECT_FALSE(sf->prunes(empty));
}

TEST_F(VectorEval, AppendRowsIsAllOrNothing) {
  Schema schema({{"id", ColumnType::kInt}, {"x", ColumnType::kDouble}});
  Table t("T", schema);
  std::vector<std::vector<Value>> good;
  good.push_back({Value(std::int64_t{1}), Value(1.5)});
  good.push_back({Value(std::int64_t{2}), Value::null()});
  good.push_back({Value(std::int64_t{3}), Value(std::int64_t{7})});  // widens
  ASSERT_TRUE(t.appendRows(good).isOk());
  EXPECT_EQ(t.numRows(), 3u);
  EXPECT_EQ(t.cell(2, 1), Value(7.0));

  // A bad row in the middle rejects the whole batch: nothing is appended.
  std::vector<std::vector<Value>> bad;
  bad.push_back({Value(std::int64_t{4}), Value(4.0)});
  bad.push_back({Value(std::string("oops")), Value(5.0)});
  bad.push_back({Value(std::int64_t{6}), Value(6.0)});
  EXPECT_FALSE(t.appendRows(bad).isOk());
  EXPECT_EQ(t.numRows(), 3u);
  std::vector<std::vector<Value>> shortRow;
  shortRow.push_back({Value(std::int64_t{9})});
  EXPECT_FALSE(t.appendRows(shortRow).isOk());
  EXPECT_EQ(t.numRows(), 3u);

  // Zone maps reflect only the accepted rows.
  const ZoneMap& id = t.zoneMap(0);
  EXPECT_TRUE(id.hasValue);
  EXPECT_EQ(id.intMin, 1);
  EXPECT_EQ(id.intMax, 3);
  const ZoneMap& x = t.zoneMap(1);
  EXPECT_EQ(x.nullCount, 1u);
  EXPECT_EQ(x.dblMin, 1.5);
  EXPECT_EQ(x.dblMax, 7.0);
}

TEST_F(VectorEval, AppendFromWidensAndMergesZones) {
  Schema intSchema({{"id", ColumnType::kInt}, {"v", ColumnType::kInt}});
  Schema dblSchema({{"id", ColumnType::kInt}, {"v", ColumnType::kDouble}});
  Table src("S", intSchema);
  ASSERT_TRUE(src.appendRow(std::vector<Value>{Value(std::int64_t{1}),
                             Value(std::int64_t{100})}).isOk());
  ASSERT_TRUE(src.appendRow(std::vector<Value>{Value(std::int64_t{2}), Value::null()}).isOk());

  Table dst("D", dblSchema);
  ASSERT_TRUE(dst.appendRow(std::vector<Value>{Value(std::int64_t{0}), Value(0.5)}).isOk());
  ASSERT_TRUE(dst.appendFrom(src).isOk());  // INT source widens into DOUBLE
  EXPECT_EQ(dst.numRows(), 3u);
  EXPECT_EQ(dst.cell(1, 1), Value(100.0));
  EXPECT_TRUE(dst.isNull(2, 1));
  const ZoneMap& z = dst.zoneMap(1);
  EXPECT_EQ(z.dblMin, 0.5);
  EXPECT_EQ(z.dblMax, 100.0);
  EXPECT_EQ(z.nullCount, 1u);

  // Incompatible types fail (and leave the destination untouched) unless
  // the source column is entirely NULL.
  Schema strSchema({{"id", ColumnType::kInt}, {"v", ColumnType::kString}});
  Table strSrc("SS", strSchema);
  ASSERT_TRUE(strSrc.appendRow(std::vector<Value>{Value(std::int64_t{9}),
                                Value(std::string("nope"))}).isOk());
  EXPECT_FALSE(dst.appendFrom(strSrc).isOk());
  EXPECT_EQ(dst.numRows(), 3u);

  Table nullSrc("NS", strSchema);
  ASSERT_TRUE(nullSrc.appendRow(std::vector<Value>{Value(std::int64_t{7}),
                                 Value::null()}).isOk());
  EXPECT_TRUE(dst.appendFrom(nullSrc).isOk());
  EXPECT_EQ(dst.numRows(), 4u);
  EXPECT_TRUE(dst.isNull(3, 1));
  EXPECT_EQ(dst.zoneMap(1).nullCount, 2u);
}

TEST_F(VectorEval, AppendColumnsAdoptsAppendsAndFoldsZones) {
  Schema schema({{"i", ColumnType::kInt},
                 {"d", ColumnType::kDouble},
                 {"s", ColumnType::kString}});
  Table t("T", schema);
  std::vector<Table::ColumnData> first(3);
  first[0].ints = {5, 99, -3};
  first[0].nulls = {0, 1, 0};  // the 99 under a NULL must not reach the zone
  first[1].doubles = {std::nan(""), 2.5, -1.0};
  first[2].strings = {"a", "b", "c"};  // no mask: no NULLs
  ASSERT_TRUE(t.appendColumns(std::move(first), 3).isOk());
  EXPECT_EQ(t.numRows(), 3u);
  EXPECT_TRUE(t.isNull(1, 0));
  EXPECT_EQ(t.intColumn(0)[1], 0);  // NULL slots are zeroed
  EXPECT_EQ(t.zoneMap(0).intMin, -3);
  EXPECT_EQ(t.zoneMap(0).intMax, 5);
  EXPECT_EQ(t.zoneMap(0).nullCount, 1u);
  EXPECT_TRUE(t.zoneMap(1).hasNaN);
  EXPECT_EQ(t.zoneMap(1).dblMin, -1.0);
  EXPECT_EQ(t.zoneMap(2).nullCount, 0u);

  std::vector<Table::ColumnData> more(3);
  more[0].ints = {42};
  more[1].doubles = {0.0};
  more[1].nulls = {1};
  more[2].strings = {"z"};
  ASSERT_TRUE(t.appendColumns(std::move(more), 1).isOk());
  EXPECT_EQ(t.numRows(), 4u);
  EXPECT_EQ(t.cell(3, 0), Value(std::int64_t{42}));
  EXPECT_TRUE(t.isNull(3, 1));
  EXPECT_EQ(t.cell(3, 2), Value("z"));
  EXPECT_EQ(t.zoneMap(0).intMax, 42);
  EXPECT_EQ(t.zoneMap(1).nullCount, 1u);

  // A column whose length disagrees with the row count appends nothing.
  std::vector<Table::ColumnData> bad(3);
  bad[0].ints = {1, 2};
  bad[1].doubles = {1.0, 2.0};
  bad[2].strings = {"only one"};
  EXPECT_FALSE(t.appendColumns(std::move(bad), 2).isOk());
  EXPECT_FALSE(t.appendColumns(std::vector<Table::ColumnData>(2), 0).isOk());
  EXPECT_EQ(t.numRows(), 4u);
  EXPECT_EQ(t.nullMask(0).size(), 4u);
}

}  // namespace
}  // namespace qserv::sql
