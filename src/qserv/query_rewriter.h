/// \file query_rewriter.h
/// \brief User query -> per-chunk queries + merge plan (paper §5.3, §5.4).
///
/// Rewrites performed, following the paper's worked example:
///  - Table references: `Object` -> `Object_CC` per chunk, with the original
///    binding name kept as an alias so column qualifiers still resolve.
///  - `qserv_areaspec_box(...)` (already extracted by analysis) -> a
///    `qserv_ptInSphericalBox(<ra>, <decl>, ...) = 1` conjunct on the
///    director table, executed by the worker-side UDF.
///  - Aggregates: AVG(x) splits into SUM(x)+COUNT(x) chunk columns with
///    stable generated names (QS<k>_SUM / QS<k>_COUNT), reassembled by the
///    merge query as SUM(`QS<k>_SUM`) / SUM(`QS<k>_COUNT`); COUNT -> SUM of
///    partial counts; SUM/MIN/MAX -> same aggregate over partials. GROUP BY
///    is applied per chunk and re-applied over the merge table.
///  - Near-neighbor self-joins: one statement per subchunk, joining the
///    subchunk table Object_CC_SS against the on-the-fly overlap table
///    ObjectFullOverlap_CC_SS, with the required subchunk list carried in
///    each chunk's entry (the `-- SUBCHUNKS:` line of the §5.4 text).
///  - ORDER BY / LIMIT move to the merge query (chunks also apply top-k
///    when a LIMIT is present).
///
/// The chunk-side SELECT is built once per user query as a ChunkTemplate:
/// the statement plus a binding rule per FROM position. Dispatch ships the
/// template itself (once per worker batch, or with one chunk id on /query2;
/// see batch_codec.h). Per-chunk text is spliced from the template's
/// pre-rendered pieces only for readers of the §5.4 text: EXPLAIN and
/// replay.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qserv/query_analysis.h"

namespace qserv::core {

/// How one FROM position of a chunk template binds to a physical table.
/// The character is the position's wire form in a chunk request.
enum class TableBinding : char {
  kKeep = '-',         ///< unpartitioned table: the name is kept
  kChunk = 'c',        ///< <base>_<chunkId>
  kSubChunk = 's',     ///< <base>_<chunkId>_<subChunkId>
  kFullOverlap = 'o',  ///< <base>FullOverlap_<chunkId>_<subChunkId>
};

/// The table a position bound by \p binding reads for one chunk (and
/// subchunk, for the subchunk bindings), named by datagen's *TableName.
std::string boundTableName(TableBinding binding, const std::string& base,
                           std::int32_t chunkId, std::int32_t subChunkId);

/// Bind a parsed template (FROM positions holding the base table names) to
/// one chunk: one SELECT, or one per subchunk when a position binds subchunk
/// tables — the statements parseScript() returns for the rendered text.
/// kInvalidArgument when \p bindings does not match the FROM list.
util::Result<std::vector<sql::Statement>> bindChunkStatements(
    const sql::SelectStmt& tmpl, std::span<const TableBinding> bindings,
    std::int32_t chunkId, std::span<const std::int32_t> subChunkIds);

/// One user query's chunk-side SELECT with base table names in its FROM
/// list, one binding per position, and the aggregate flag. Renders each
/// chunk's §5.4 text by splicing table names into text rendered once,
/// byte-identical to rendering a bound copy of the statement.
class ChunkTemplate {
 public:
  /// \p bindings holds one entry per FROM position of \p stmt.
  ChunkTemplate(const sql::SelectStmt& stmt, std::vector<TableBinding> bindings,
                bool aggregate);

  /// The template statement as SQL (base table names in FROM).
  const std::string& sql() const { return sql_; }
  const std::vector<TableBinding>& bindings() const { return bindings_; }
  /// Aggregating chunk queries return scale-independent partials.
  bool aggregate() const { return aggregate_; }
  /// Near-neighbor templates run one statement per subchunk.
  bool bindsSubChunks() const;

  /// The chunk query as the paper's §5.4 text: header lines
  /// (`-- SUBCHUNKS:`, `-- QSERV-AGG`) then one statement per subchunk, or
  /// one statement. Its statements are the ones bindChunkStatements()
  /// builds; no transport sends this text.
  std::string render(std::int32_t chunkId,
                     std::span<const std::int32_t> subChunkIds) const;

 private:
  std::string sql_;
  std::vector<std::string> pieces_;  ///< sql_ cut at the FROM table names
  std::vector<std::string> bases_;
  std::vector<TableBinding> bindings_;
  bool aggregate_ = false;
};

/// One dispatchable chunk query.
struct ChunkQuerySpec {
  std::int32_t chunkId = 0;
  std::vector<std::int32_t> subChunkIds;  ///< non-empty for near-neighbor
  /// The query's shared template, which every chunk request carries (once
  /// per worker batch, or per /query2 write). Required.
  std::shared_ptr<const ChunkTemplate> chunkTemplate = nullptr;
  /// Scheduler class the dispatcher ships in the chunk request (set by the
  /// czar from deriveQueryClass; scan is the safe default).
  QueryClass queryClass = QueryClass::kScan;
  /// The template rendered for this chunk (QueryRewriter::rewrite() fills
  /// it for EXPLAIN and replay); empty otherwise, and never sent.
  std::string text;
};

struct MergePlan {
  bool hasAggregation = false;
  /// Final SELECT over the merge table (already named inside the SQL).
  std::string finalSelectSql;
};

struct RewriteResult {
  std::vector<ChunkQuerySpec> chunkQueries;
  MergePlan merge;
};

class QueryRewriter {
 public:
  QueryRewriter(const CatalogConfig& config, const sphgeom::Chunker& chunker)
      : config_(config), chunker_(chunker) {}

  /// Rewrite \p analyzed for execution over \p chunks, merging into
  /// \p mergeTableName on the frontend. Every spec shares one template and
  /// carries no text; this is what dispatch needs.
  util::Result<RewriteResult> rewriteTemplate(
      const AnalyzedQuery& analyzed, std::span<const std::int32_t> chunks,
      const std::string& mergeTableName) const;

  /// rewriteTemplate(), with every spec's text rendered.
  util::Result<RewriteResult> rewrite(const AnalyzedQuery& analyzed,
                                      std::span<const std::int32_t> chunks,
                                      const std::string& mergeTableName) const;

 private:
  const CatalogConfig& config_;
  const sphgeom::Chunker& chunker_;
};

}  // namespace qserv::core
