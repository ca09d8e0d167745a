#include "qserv/query_rewriter.h"

#include <gtest/gtest.h>

#include <iterator>

#include "sql/parser.h"
#include "util/md5.h"

namespace qserv::core {
namespace {

class RewriterTest : public ::testing::Test {
 protected:
  RewriterTest()
      : config_(CatalogConfig::lsst(18, 6)),
        chunker_(config_.makeChunker()),
        rewriter_(config_, chunker_) {}

  RewriteResult rewrite(std::string_view sql,
                        std::vector<std::int32_t> chunks) {
    auto analyzed = analyzeQuery(sql, config_);
    EXPECT_TRUE(analyzed.isOk()) << analyzed.status().toString();
    auto r = rewriter_.rewrite(*analyzed, chunks, "merged");
    EXPECT_TRUE(r.isOk()) << r.status().toString() << " for: " << sql;
    return std::move(r).value();
  }

  CatalogConfig config_;
  sphgeom::Chunker chunker_;
  QueryRewriter rewriter_;
};

TEST_F(RewriterTest, TableRenamePerChunk) {
  auto r = rewrite("SELECT objectId FROM Object WHERE ra_PS > 3", {100, 101});
  ASSERT_EQ(r.chunkQueries.size(), 2u);
  EXPECT_NE(r.chunkQueries[0].text.find("Object_100"), std::string::npos);
  EXPECT_NE(r.chunkQueries[1].text.find("Object_101"), std::string::npos);
  // Rewritten chunk queries parse.
  for (const auto& cq : r.chunkQueries) {
    EXPECT_TRUE(sql::parseScript(cq.text).isOk()) << cq.text;
  }
}

TEST_F(RewriterTest, AliasPreservesColumnResolution) {
  auto r = rewrite("SELECT Object.objectId FROM Object", {7});
  // The chunk table must be aliased back to the original binding name.
  EXPECT_NE(r.chunkQueries[0].text.find("Object_7 AS Object"),
            std::string::npos)
      << r.chunkQueries[0].text;
}

TEST_F(RewriterTest, PaperWorkedExample) {
  // §5.3: AVG -> SUM/COUNT per chunk; SUM(SUM)/SUM(COUNT) at the merge;
  // areaspec -> qserv_ptInSphericalBox on the partition columns.
  auto r = rewrite(
      "SELECT AVG(uFlux_SG) FROM Object "
      "WHERE qserv_areaspec_box(0.0, 0.0, 10.0, 10.0) AND uRadius_PS > 0.04",
      {42});
  const std::string& cq = r.chunkQueries[0].text;
  EXPECT_NE(cq.find("SUM(uFlux_SG)"), std::string::npos) << cq;
  EXPECT_NE(cq.find("COUNT(uFlux_SG)"), std::string::npos) << cq;
  EXPECT_NE(cq.find("qserv_ptInSphericalBox(Object.ra_PS, Object.decl_PS"),
            std::string::npos)
      << cq;
  EXPECT_EQ(cq.find("areaspec"), std::string::npos) << cq;
  EXPECT_NE(cq.find("uRadius_PS"), std::string::npos);

  ASSERT_TRUE(r.merge.hasAggregation);
  const std::string& merge = r.merge.finalSelectSql;
  EXPECT_NE(merge.find("SUM(QS0_SUM)"), std::string::npos) << merge;
  EXPECT_NE(merge.find("SUM(QS0_COUNT)"), std::string::npos) << merge;
  EXPECT_NE(merge.find("FROM merged"), std::string::npos) << merge;
  EXPECT_NE(merge.find("/"), std::string::npos) << merge;
  EXPECT_TRUE(sql::parseStatement(merge).isOk()) << merge;
}

TEST_F(RewriterTest, CountSplitsIntoSumOfCounts) {
  auto r = rewrite("SELECT COUNT(*) FROM Object", {1});
  EXPECT_NE(r.chunkQueries[0].text.find("COUNT(*) AS QS0_COUNT"),
            std::string::npos)
      << r.chunkQueries[0].text;
  EXPECT_NE(r.merge.finalSelectSql.find("SUM(QS0_COUNT)"), std::string::npos);
}

TEST_F(RewriterTest, MinMaxPassThrough) {
  auto r = rewrite("SELECT MIN(ra_PS), MAX(ra_PS) FROM Object", {1});
  EXPECT_NE(r.chunkQueries[0].text.find("MIN(ra_PS) AS QS0_MIN"),
            std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("MIN(QS0_MIN)"), std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("MAX(QS1_MAX)"), std::string::npos);
}

TEST_F(RewriterTest, GroupByPassthrough) {
  // HV3: group keys ship per chunk and re-group at the merge.
  auto r = rewrite(
      "SELECT count(*) AS n, AVG(ra_PS), chunkId FROM Object GROUP BY chunkId",
      {5});
  const std::string& cq = r.chunkQueries[0].text;
  EXPECT_NE(cq.find("GROUP BY chunkId"), std::string::npos) << cq;
  EXPECT_NE(cq.find("chunkId AS chunkId"), std::string::npos) << cq;
  const std::string& merge = r.merge.finalSelectSql;
  EXPECT_NE(merge.find("GROUP BY chunkId"), std::string::npos) << merge;
  EXPECT_NE(merge.find("AS n"), std::string::npos) << merge;
  EXPECT_TRUE(sql::parseStatement(merge).isOk()) << merge;
}

TEST_F(RewriterTest, HavingStaysOutOfChunkQueries) {
  auto r = rewrite(
      "SELECT chunkId, COUNT(*) AS n FROM Object GROUP BY chunkId "
      "HAVING COUNT(*) > 100 AND AVG(ra_PS) < 180",
      {5});
  const std::string& cq = r.chunkQueries[0].text;
  // Chunk groups are partial: no HAVING worker-side, but the partials its
  // aggregates need are shipped.
  EXPECT_EQ(cq.find("HAVING"), std::string::npos) << cq;
  EXPECT_NE(cq.find("SUM(ra_PS)"), std::string::npos) << cq;
  const std::string& merge = r.merge.finalSelectSql;
  EXPECT_NE(merge.find("HAVING"), std::string::npos) << merge;
  EXPECT_NE(merge.find("SUM(QS"), std::string::npos) << merge;
  EXPECT_TRUE(sql::parseStatement(merge).isOk()) << merge;
}

TEST_F(RewriterTest, PlainGroupByIsMergedNotUnioned) {
  // GROUP BY without aggregates still needs merge-side re-grouping: the
  // same key appears in many chunks.
  auto r = rewrite("SELECT subChunkId FROM Object GROUP BY subChunkId", {5, 6});
  EXPECT_TRUE(r.merge.hasAggregation);
  EXPECT_NE(r.merge.finalSelectSql.find("GROUP BY subChunkId"),
            std::string::npos)
      << r.merge.finalSelectSql;
}

TEST_F(RewriterTest, NonAggregateMergeIsUnion) {
  auto r = rewrite("SELECT objectId, ra_PS FROM Object WHERE ra_PS > 1", {3});
  EXPECT_FALSE(r.merge.hasAggregation);
  EXPECT_EQ(r.merge.finalSelectSql, "SELECT * FROM merged");
}

TEST_F(RewriterTest, OrderByLimitMoveToMerge) {
  auto r = rewrite(
      "SELECT objectId FROM Object ORDER BY objectId DESC LIMIT 10", {3});
  // Chunk side: top-k optimization keeps ORDER BY + LIMIT.
  EXPECT_NE(r.chunkQueries[0].text.find("LIMIT 10"), std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("ORDER BY objectId DESC"),
            std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("LIMIT 10"), std::string::npos);
}

TEST_F(RewriterTest, AggregateWithOrderByAliasAndLimit) {
  // Top-k must NOT push down to chunk queries for aggregates: the ORDER BY
  // references a merge-side alias and every group must be shipped.
  auto r = rewrite(
      "SELECT count(*) AS n, chunkId FROM Object GROUP BY chunkId "
      "ORDER BY n DESC LIMIT 5",
      {3});
  EXPECT_EQ(r.chunkQueries[0].text.find("LIMIT"), std::string::npos)
      << r.chunkQueries[0].text;
  EXPECT_EQ(r.chunkQueries[0].text.find("ORDER"), std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("ORDER BY n DESC"), std::string::npos);
  EXPECT_NE(r.merge.finalSelectSql.find("LIMIT 5"), std::string::npos);
  EXPECT_TRUE(sql::parseStatement(r.merge.finalSelectSql).isOk());
}

TEST_F(RewriterTest, NearNeighborSubchunkStatements) {
  std::int32_t chunk = chunker_.chunkAt(2.0, 2.0);
  auto r = rewrite(
      "SELECT count(*) FROM Object o1, Object o2 "
      "WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
      {chunk});
  ASSERT_EQ(r.chunkQueries.size(), 1u);
  const auto& spec = r.chunkQueries[0];
  // All subchunks of the chunk are listed (no area restriction).
  EXPECT_EQ(spec.subChunkIds.size(), chunker_.subChunksOf(chunk).size());
  // Header present and first.
  EXPECT_EQ(spec.text.rfind("-- SUBCHUNKS: ", 0), 0u) << spec.text;
  // One statement per subchunk, joining subchunk x full-overlap tables.
  std::int32_t sc = spec.subChunkIds[0];
  std::string scName =
      "Object_" + std::to_string(chunk) + "_" + std::to_string(sc);
  EXPECT_NE(spec.text.find("FROM " + scName + " AS o1"), std::string::npos)
      << spec.text;
  EXPECT_NE(spec.text.find("ObjectFullOverlap_" + std::to_string(chunk) + "_" +
                           std::to_string(sc) + " AS o2"),
            std::string::npos)
      << spec.text;
  EXPECT_TRUE(sql::parseScript(spec.text).isOk()) << spec.text;
}

TEST_F(RewriterTest, NearNeighborAreaRestrictionPrunesSubchunks) {
  // A tiny box covers only a few subchunks of the chunk.
  std::int32_t chunk = chunker_.chunkAt(2.0, 2.0);
  auto analyzed = analyzeQuery(
      "SELECT count(*) FROM Object o1, Object o2 "
      "WHERE qserv_areaspec_box(1.9, 1.9, 2.1, 2.1) AND "
      "qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.01",
      config_);
  ASSERT_TRUE(analyzed.isOk());
  auto r = rewriter_.rewrite(*analyzed, std::vector<std::int32_t>{chunk},
                             "merged");
  ASSERT_TRUE(r.isOk());
  ASSERT_EQ(r->chunkQueries.size(), 1u);
  EXPECT_LT(r->chunkQueries[0].subChunkIds.size(),
            chunker_.subChunksOf(chunk).size());
  EXPECT_GE(r->chunkQueries[0].subChunkIds.size(), 1u);
  // The area restriction applies to o1 inside each statement.
  EXPECT_NE(r->chunkQueries[0].text.find(
                "qserv_ptInSphericalBox(o1.ra_PS, o1.decl_PS"),
            std::string::npos)
      << r->chunkQueries[0].text;
}

TEST_F(RewriterTest, TwoTableJoinRenamesBoth) {
  auto r = rewrite(
      "SELECT o.objectId, s.sourceId FROM Object o, Source s "
      "WHERE o.objectId = s.objectId",
      {9});
  const std::string& cq = r.chunkQueries[0].text;
  EXPECT_NE(cq.find("Object_9 AS o"), std::string::npos) << cq;
  EXPECT_NE(cq.find("Source_9 AS s"), std::string::npos) << cq;
}

TEST_F(RewriterTest, EmptyChunkListYieldsNoQueries) {
  auto r = rewrite("SELECT COUNT(*) FROM Object", {});
  EXPECT_TRUE(r.chunkQueries.empty());
  EXPECT_FALSE(r.merge.finalSelectSql.empty());
}

TEST_F(RewriterTest, StarWithAggregatesRejected) {
  auto analyzed =
      analyzeQuery("SELECT *, COUNT(*) FROM Object", config_);
  ASSERT_TRUE(analyzed.isOk());
  auto r = rewriter_.rewrite(*analyzed, std::vector<std::int32_t>{1}, "m");
  EXPECT_FALSE(r.isOk());
}


// --------------------------------------------------- template rendering

// The paper's query shapes plus the rewriter's other paths.
const char* const kTemplateCorpus[] = {
    // LV1-3
    "SELECT * FROM Object WHERE objectId = 433327840428745",
    "SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), ra, "
    "decl FROM Source WHERE objectId = 433327840428745",
    "SELECT COUNT(*) FROM Object WHERE ra_PS BETWEEN 1 AND 2 AND decl_PS "
    "BETWEEN 3 AND 4 AND fluxToAbMag(zFlux_PS) BETWEEN 21 AND 21.5",
    // HV1-3
    "SELECT COUNT(*) FROM Object WHERE gFlux_PS > 3.981072e-30",
    "SELECT COUNT(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId FROM Object "
    "WHERE fluxToAbMag(rFlux_PS) < 24.5 GROUP BY chunkId",
    "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS FROM Object "
    "WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > 2.75",
    // SHV1-2
    "SELECT count(*) FROM Object o1, Object o2 "
    "WHERE qserv_areaspec_box(4, -3, 10, 3) "
    "AND qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.1",
    "SELECT o.objectId, s.sourceId FROM Object o, Source s "
    "WHERE qserv_areaspec_box(4, -3, 10, 3) AND o.objectId = s.objectId "
    "AND qserv_angSep(s.ra, s.decl, o.ra_PS, o.decl_PS) > 0.0045",
    // Areaspec boxes, including one across the 0/360 meridian.
    "SELECT objectId, ra_PS, decl_PS FROM Object "
    "WHERE qserv_areaspec_box(10.5, -20.25, 30.75, -5)",
    "SELECT COUNT(*) FROM Object WHERE qserv_areaspec_box(350, -5, 10, 5) "
    "AND rFlux_PS > 1e-30",
    // GROUP BY / HAVING / ORDER BY / LIMIT / DISTINCT
    "SELECT chunkId, MIN(ra_PS), MAX(decl_PS), SUM(gFlux_PS) FROM Object "
    "GROUP BY chunkId HAVING COUNT(*) > 3 ORDER BY chunkId",
    "SELECT objectId, ra_PS FROM Object ORDER BY ra_PS DESC LIMIT 10",
    "SELECT DISTINCT chunkId FROM Object WHERE decl_PS > 0 LIMIT 5",
    "SELECT Object.objectId FROM Object WHERE Object.ra_PS > 3 "
    "AND Object.objectId IN (1, 2, 3) AND uFlux_PS IS NOT NULL",
    // Near-neighbor with every subchunk of every chunk listed.
    "SELECT o1.objectId, o2.objectId FROM Object AS o1, Object AS o2 "
    "WHERE qserv_angSep(o1.ra_PS, o1.decl_PS, o2.ra_PS, o2.decl_PS) < 0.05 "
    "AND o1.objectId <> o2.objectId",
    // A lower-case table name: chunk tables use the catalog's spelling.
    "SELECT objectId FROM object WHERE ra_PS > 3",
};

/// MD5 over each corpus query's chunk texts (NUL-separated, in chunk order)
/// as the AST-clone rewriter rendered them — one SelectStmt clone plus
/// toSql() per chunk — before texts were spliced from a template, under
/// CatalogConfig::lsst(18, 6) over every chunk (or the areaspec's cover).
const char* const kAstCloneDigests[] = {
    "90aa348f79e0bf333a57afe2b76f25bf",  // 368 chunk queries, 26477 bytes
    "827c84e261d6ec37c2ab0e805ff28f28",  // 368 chunk queries, 51133 bytes
    "75d02768863c50b26b570526632fa9b8",  // 1 chunk queries, 182 bytes
    "2abe23e774c71f9d042d59a7a8bfb9cc",  // 368 chunk queries, 41197 bytes
    "c060602556a1b962538c8f0b2db7cefb",  // 368 chunk queries, 91245 bytes
    "a6ac1b91581de9c53d050029ca42a124",  // 368 chunk queries, 52605 bytes
    "4ebffda6d54a9ad288664102f58cdcb2",  // 2 chunk queries, 5176 bytes
    "c1a6731a4263d65477573d35b52109c3",  // 2 chunk queries, 516 bytes
    "a9cd7001d1adb23eb75341201875fc07",  // 8 chunk queries, 1216 bytes
    "7b43b82cb927ddd5a8848c2a757e865c",  // 4 chunk queries, 804 bytes
    "038e0a77fd0372226c507ff9cfd15712",  // 368 chunk queries, 66589 bytes
    "f325417fe3d20b6dce17ef92b2aefb1c",  // 368 chunk queries, 29421 bytes
    "f9ed86c2c8e3f143a029e840e065cb76",  // 368 chunk queries, 29421 bytes
    "f31bf5b8c0baacf7306aa485a0e7d25e",  // 368 chunk queries, 52237 bytes
    "924a125de77d4a1be7d886dd5e2abb7f",  // 368 chunk queries, 3456203 bytes
    "8d5dce64bcc448cab4294ab0e7168ba5",  // 368 chunk queries, 22797 bytes
};

class TemplateRenderTest : public RewriterTest {
 protected:
  /// Full-sky chunks, or the chunks covering the query's area restriction.
  RewriteResult rewriteCorpusQuery(const char* sql, bool renderText) {
    auto analyzed = analyzeQuery(sql, config_);
    EXPECT_TRUE(analyzed.isOk()) << analyzed.status().toString();
    std::vector<std::int32_t> chunks =
        analyzed->areaRestriction
            ? chunker_.chunksIntersecting(*analyzed->areaRestriction)
            : chunker_.allChunks();
    auto r = renderText ? rewriter_.rewrite(*analyzed, chunks, "merged")
                        : rewriter_.rewriteTemplate(*analyzed, chunks, "merged");
    EXPECT_TRUE(r.isOk()) << r.status().toString() << " for: " << sql;
    return std::move(r).value();
  }
};

TEST_F(TemplateRenderTest, ChunkTextsMatchTheAstCloneRewrite) {
  static_assert(std::size(kTemplateCorpus) == std::size(kAstCloneDigests));
  for (std::size_t i = 0; i < std::size(kTemplateCorpus); ++i) {
    RewriteResult r = rewriteCorpusQuery(kTemplateCorpus[i], true);
    ASSERT_FALSE(r.chunkQueries.empty()) << kTemplateCorpus[i];
    std::string all;
    for (const ChunkQuerySpec& spec : r.chunkQueries) {
      all += spec.text;
      all += '\0';
    }
    EXPECT_EQ(util::Md5::hex(all), kAstCloneDigests[i]) << kTemplateCorpus[i];
  }
}

TEST_F(TemplateRenderTest, BoundTemplateMatchesParsedChunkText) {
  // What a worker runs for a chunk (the template parsed once, bound to the
  // chunk) equals parseScript() of the chunk's rendered §5.4 text.
  for (const char* sql : kTemplateCorpus) {
    RewriteResult r = rewriteCorpusQuery(sql, false);
    ASSERT_FALSE(r.chunkQueries.empty()) << sql;
    const ChunkTemplate& tmpl = *r.chunkQueries.front().chunkTemplate;
    auto parsed = sql::parseSelect(tmpl.sql());
    ASSERT_TRUE(parsed.isOk()) << parsed.status().toString();
    for (const ChunkQuerySpec& spec : r.chunkQueries) {
      EXPECT_TRUE(spec.text.empty());
      EXPECT_EQ(spec.chunkTemplate.get(), &tmpl);
      std::string text = tmpl.render(spec.chunkId, spec.subChunkIds);
      auto fromText = sql::parseScript(text);
      ASSERT_TRUE(fromText.isOk()) << fromText.status().toString();
      auto bound = bindChunkStatements(*parsed, tmpl.bindings(), spec.chunkId,
                                       spec.subChunkIds);
      ASSERT_TRUE(bound.isOk()) << bound.status().toString();
      ASSERT_EQ(bound->size(), fromText->size()) << text;
      for (std::size_t k = 0; k < bound->size(); ++k) {
        ASSERT_EQ(sql::statementToSql((*bound)[k]),
                  sql::statementToSql((*fromText)[k]))
            << text;
      }
      EXPECT_EQ(text.find("-- QSERV-AGG\n") != std::string::npos,
                tmpl.aggregate());
    }
  }
}

TEST_F(TemplateRenderTest, BindingRejectsMismatchedFromList) {
  auto parsed = sql::parseSelect("SELECT 1 FROM Object AS Object");
  ASSERT_TRUE(parsed.isOk());
  const TableBinding two[] = {TableBinding::kChunk, TableBinding::kKeep};
  auto bound = bindChunkStatements(*parsed, two, 7, {});
  EXPECT_EQ(bound.status().code(), util::ErrorCode::kInvalidArgument);
}

}  // namespace
}  // namespace qserv::core
