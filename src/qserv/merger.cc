#include "qserv/merger.h"

#include "qserv/dump_integrity.h"
#include "sql/dump.h"
#include "sql/rowcodec.h"
#include "util/metrics.h"
#include "util/stopwatch.h"

namespace qserv::core {

namespace {
struct MergerMetrics {
  util::Counter& rowsMerged;
  util::Counter& dumpsReplayed;
  util::Counter& checksumRejects;
  util::Counter& binaryPayloads;
  util::Histogram& dumpReplaySeconds;

  static MergerMetrics& instance() {
    auto& reg = util::MetricsRegistry::instance();
    static MergerMetrics* m = new MergerMetrics{
        reg.counter("merger.rows_merged"),
        reg.counter("merger.dumps_replayed"),
        reg.counter("merger.checksum_rejects"),
        reg.counter("merger.binary_payloads"),
        reg.histogram("merger.dump_replay_seconds"),
    };
    return *m;
  }
};
}  // namespace

ResultMerger::ResultMerger(std::string mergeTable, util::TracePtr trace)
    : db_("merge"), mergeTable_(std::move(mergeTable)),
      trace_(std::move(trace)) {}

util::Status ResultMerger::mergeDump(const std::string& dump) {
  auto& metrics = MergerMetrics::instance();
  util::Stopwatch watch;
  util::ScopedSpan span(trace_, "merger", "replay dump");
  span.attr("dumpBytes", static_cast<std::int64_t>(dump.size()));
  // Last line of defense: the dispatcher already verifies-and-retries, but a
  // corrupt dump must never reach the result table through any path.
  if (util::Status integrity = verifyDumpChecksum(dump); !integrity.isOk()) {
    metrics.checksumRejects.add();
    span.attr("error", integrity.toString());
    return integrity;
  }
  // Workers ship either the §7.1 binary codec or the paper's SQL-dump
  // stream; the magic prefix disambiguates.
  sql::TablePtr loaded;
  if (sql::isBinaryTablePayload(dump)) {
    metrics.binaryPayloads.add();
    QSERV_ASSIGN_OR_RETURN(loaded, sql::decodeTableBinary(dump));
  } else {
    // A dump replays into the catalog (DROP + CREATE + INSERT); take its
    // table back out so both formats merge the same way.
    QSERV_ASSIGN_OR_RETURN(loaded, sql::loadDump(db_, dump));
    QSERV_RETURN_IF_ERROR(db_.dropTable(loaded->name()));
  }
  util::Status status = util::Status::ok();
  if (!merge_) {
    // Adopt the first chunk's table as the merge table, not a row copy.
    loaded->rename(mergeTable_);
    status = db_.registerTable(loaded);
    if (status.isOk()) merge_ = loaded;
  } else {
    // Typed column-to-column append; rejects mismatched schemas exactly
    // like the old INSERT ... SELECT did.
    status = merge_->appendFrom(*loaded);
  }
  if (status.isOk()) {
    rowsMerged_ += loaded->numRows();
    metrics.rowsMerged.add(loaded->numRows());
  }
  metrics.dumpsReplayed.add();
  metrics.dumpReplaySeconds.observe(watch.elapsedSeconds());
  span.attr("rows", static_cast<std::int64_t>(loaded->numRows()));
  return status;
}

util::Result<sql::TablePtr> ResultMerger::finalize(
    const std::string& finalSelectSql) {
  util::ScopedSpan span(trace_, "merger", "finalize");
  if (!merge_) {
    // No chunk produced anything (e.g. zero chunks dispatched): an empty
    // result with no schema.
    return std::make_shared<sql::Table>("result", sql::Schema{});
  }
  return db_.execute(finalSelectSql);
}

}  // namespace qserv::core
