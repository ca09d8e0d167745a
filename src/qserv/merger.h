/// \file merger.h
/// \brief Frontend result merging (paper §5.4, "Query Results Transfer").
///
/// "The worker executes mysqldump on the result table and the resulting
/// byte stream is read byte-for-byte by the master, which executes the SQL
/// statements to load results into its local database. After each result
/// table is loaded, it is merged into a table which serves as the final
/// result table for non-aggregating queries. When aggregation is needed, an
/// aggregation query is executed on this table to produce the final result
/// table."
///
/// That SQL-dump replay is kept for paper fidelity; by default workers ship
/// the column-major binary codec of sql/rowcodec.h (§7.1's "more efficient
/// method"), which decodes straight into typed columns. Either way the
/// first chunk's table is adopted as the merge table and later chunks are
/// appended column by column.
#pragma once

#include <string>

#include "sql/database.h"
#include "util/trace.h"

namespace qserv::core {

class ResultMerger {
 public:
  /// Merges into table \p mergeTable of a private per-query database (so
  /// concurrent user queries never collide on temp table names). When
  /// \p trace is set, per-dump replay and finalize spans are recorded under
  /// the "merger" component.
  explicit ResultMerger(std::string mergeTable,
                        util::TracePtr trace = nullptr);

  ResultMerger(const ResultMerger&) = delete;
  ResultMerger& operator=(const ResultMerger&) = delete;

  /// Decode one chunk result and fold its rows into the merge table.
  /// Accepts both the §7.1 binary codec and the paper's SQL-dump stream
  /// (the magic prefix disambiguates). Binary payloads never touch the SQL
  /// engine: no temp table is registered, renamed or dropped.
  util::Status mergeDump(const std::string& dump);

  /// Run the final SELECT (plain union passthrough or the aggregation
  /// query) against the merge table.
  util::Result<sql::TablePtr> finalize(const std::string& finalSelectSql);

  std::uint64_t rowsMerged() const { return rowsMerged_; }
  const std::string& mergeTable() const { return mergeTable_; }

 private:
  sql::Database db_;
  std::string mergeTable_;
  util::TracePtr trace_;
  sql::TablePtr merge_;  ///< null until the first chunk result is adopted
  std::uint64_t rowsMerged_ = 0;
};

}  // namespace qserv::core
