/// \file worker.h
/// \brief A Qserv worker node (paper §5.1.2, §5.4).
///
/// A worker is an Xrootd data server with Qserv's ofs plugin: chunk queries
/// arrive as chunk requests (one query template plus chunk ids; see
/// batch_codec.h) written to /query2/<CC> with exactly that one chunk, or
/// batched to /batch/<id>. Both are admitted by one decoder, and each
/// request's template is parsed once and bound to each chunk's tables. They
/// execute on the worker's local SQL database, and results are published
/// as dumps at /result/<md5 of the request> (or as frames on
/// /bstream/<id>). A fixed number of executor slots (the paper's clusters
/// ran 4) drain a ScanScheduler: in kFifo mode that is the paper's plain
/// queue ("do not implement any concept of query cost", §6.4);
/// in kSharedScan mode (§4.3) interactive tasks ride a priority lane ahead
/// of scans, same-chunk scans share one physical pass (including arrivals
/// that join a pass already in flight), and scan claims reserve chunk-table
/// bytes against a memory budget. See scan_scheduler.h.
///
/// Subchunk tables (Object_CC_SS) and their overlap companions
/// (ObjectFullOverlap_CC_SS) are built on the fly when a chunk entry's
/// subchunk list demands them, refcounted across concurrent tasks, and
/// dropped when the last user finishes (the paper notes caching is possible
/// but not implemented).
#pragma once

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "qserv/catalog_config.h"
#include "qserv/query_rewriter.h"
#include "qserv/scan_scheduler.h"
#include "sql/database.h"
#include "util/metrics.h"
#include "xrd/file_store.h"
#include "xrd/ofs.h"

namespace qserv::core {

enum class TransferFormat {
  /// Paper behaviour: mysqldump-style SQL statements (§5.4). Kept only for
  /// paper fidelity (bench_transfer and the figure benches).
  kSqlDump,
  /// The §7.1 "more efficient method": the column-major binary codec of
  /// sql/rowcodec.h. The default.
  kBinary,
};

/// A chunk request's template, parsed once when the request is admitted and
/// checked against its bindings; read-only after, shared by its tasks.
struct ParsedTemplate {
  sql::SelectStmt stmt;
  std::vector<TableBinding> bindings;  ///< one per template FROM position
};

/// Shared state of one batched dispatch (/batch/<id>): its chunk tasks
/// stream result frames over one /bstream/<id> path, bounded by a window of
/// unread frames, until the master abandons the batch or the last chunk
/// finishes.
struct BatchStream {
  std::string id;          ///< batchId (md5 of the request payload)
  std::string streamPath;  ///< /bstream/<batchId>
  int window = 0;          ///< max unread frames (0 = unbounded)
  std::atomic<bool> abandoned{false};
  std::atomic<int> remaining{0};  ///< chunks not yet finished/skipped
};

struct WorkerConfig {
  int slots = 4;  ///< concurrent chunk queries (paper §6.2)
  SchedulerMode scheduler = SchedulerMode::kFifo;
  /// Result encoding: binary by default, so no chunk result is formatted
  /// as SQL text or re-parsed by the merger.
  TransferFormat transfer = TransferFormat::kBinary;
  /// Real rows -> paper rows multiplier for the cost model (our tables are
  /// scaled down; observables are reported at paper scale).
  double rowScale = 1.0;
  std::chrono::milliseconds resultTimeout{30000};
  /// Start with executor slots paused (tests use this to stage the queue
  /// deterministically before any task is claimed).
  bool startPaused = false;
  /// kSharedScan: paper-scale byte budget for concurrently locked chunk
  /// sets (MemMan-style reservations); <= 0 = unlimited.
  double scanMemoryBudgetBytes = 0.0;
  /// kSharedScan: slow-scan eviction threshold (see ScanSchedulerConfig).
  double slowScanFactor = 4.0;
};

class Worker : public xrd::OfsPlugin {
 public:
  /// \param database local database preloaded with this worker's chunk
  ///        tables; \p exportedChunks lists the chunks it serves.
  Worker(std::string id, std::shared_ptr<sql::Database> database,
         const CatalogConfig& catalog, std::vector<std::int32_t> exportedChunks,
         WorkerConfig config = {});
  ~Worker() override;

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  const std::string& id() const { return id_; }
  sql::Database& database() { return *db_; }

  // --- OfsPlugin -----------------------------------------------------------
  /// Accepts /query2 and /batch chunk-query writes plus the control-plane
  /// writes /chunkload/<id> (install a self-verifying chunk snapshot as a
  /// new replica) and /chunkdrop/<id> (retire this worker's replica).
  util::Status writeFile(const std::string& path, std::string payload) override;
  util::Result<std::string> readFile(const std::string& path) override;
  /// Deadline-bounded result read: the blocking wait for the dump gives up
  /// at min(configured result timeout, caller's deadline). /ping reads
  /// answer immediately with a liveness/load line; /chunk/<id> reads return
  /// a checksummed snapshot of the chunk's tables for worker-to-worker copy.
  util::Result<std::string> readFile(const std::string& path,
                                     const util::Deadline& deadline) override;
  std::vector<std::int32_t> exportedChunks() const override;

  /// Does this worker currently export \p chunkId?
  bool exportsChunk(std::int32_t chunkId) const;

  /// Queued plus claimed-but-unfinished tasks. Counting in-flight work
  /// matters: queue length alone drops to zero the moment a slot claims a
  /// large scan group, hiding the worker's load from the repair control
  /// plane's rebalance signal and the queue_depth gauge.
  std::size_t queuedTasks() const;
  std::uint64_t tasksExecuted() const { return tasksExecuted_; }

  /// This worker's task scheduler (tests inspect budget/slow-query state).
  ScanScheduler& scheduler() { return sched_; }

  /// Resume paused executor slots (see WorkerConfig::startPaused).
  void resume();

  /// Stop accepting work, finish queued tasks, join executor threads.
  void shutdown();

 private:
  /// What executing one task produced, not yet published.
  struct TaskOutput {
    bool skipped = false;  ///< abandoned batch: nothing to publish
    util::Status status = util::Status::ok();  ///< failure to publish
    std::string dump;  ///< ok: the result with observables and MD5 trailer
    bool scannedBytes = false;  ///< the task paid a chunk read
  };

  void executorLoop();
  /// Run one claimed task: queue-wait accounting, execution, publication,
  /// scheduler finish bookkeeping. Sets \p ioCharged once a task actually
  /// pays the chunk read (scanned bytes > 0), so a group leader skipped as
  /// abandoned or zone-pruned never eats the charge (the
  /// bytesScanned-undercount bug). The task's queue-depth and busy-slot
  /// gauge shares are released before its result is published, so a czar
  /// that returns on reading it sees an idle worker.
  void runClaimedTask(const ScanTask& task, std::int64_t claimedUs,
                      bool& ioCharged, double& maxWaitSec);
  /// Execute a chunk query: bind its template to its chunk, build
  /// subchunks, run, encode the result with its observables and integrity
  /// trailer.
  TaskOutput executeTask(const ScanTask& task, bool chargeScanIo);
  /// Publish \p out as the task's result or batch frame.
  void publishTask(const ScanTask& task, TaskOutput out);

  /// Paper-scale bytes chunk \p chunkId's locally held tables occupy — the
  /// scan scheduler's memory-budget charge for one chunk pass.
  double chunkMemoryBytes(std::int32_t chunkId) const;

  /// Admit a chunk request written to /query2 or /batch: decode it, check
  /// its chunks are exported, parse its template once and check it against
  /// its bindings, then enqueue one ScanTask per chunk. A /query2 request
  /// (\p queryChunk set) must hold exactly that one chunk, and its result
  /// is named \p requestId (the request's MD5); a batch's tasks stream
  /// frames on /bstream/<requestId>.
  util::Status enqueueRequest(const std::string& requestId,
                              const std::string& payload,
                              std::optional<std::int32_t> queryChunk);
  /// Mark a batch abandoned (/bcancel write): queued tasks are skipped and
  /// unread frames dropped.
  void abandonBatch(const std::string& batchId);
  /// Publish one chunk's result frame on the batch stream, honoring the
  /// unread-frame window.
  void publishBatchFrame(const ScanTask& task, std::string frame);
  /// Account one finished/skipped batch chunk; the last one unregisters the
  /// batch and, when abandoned, drops its unread frames.
  void finishBatchChunk(const std::shared_ptr<BatchStream>& stream);

  /// Serve a /ping read: "pong id=<id> queue=<depth> chunks=<count>\n".
  std::string pingPayload() const;
  /// Serialize chunk \p chunkId's tables (chunk, overlap, sources) as one
  /// replayable SQL script ending in a -- QSERV-MD5 trailer.
  util::Result<std::string> snapshotChunk(std::int32_t chunkId) const;
  /// Verify and replay a chunk snapshot, index the loaded tables exactly as
  /// initial placement does, then start exporting the chunk.
  util::Status installChunk(std::int32_t chunkId, const std::string& snapshot);
  /// Stop exporting \p chunkId, then drop its tables.
  util::Status dropChunk(std::int32_t chunkId);

  void addExport(std::int32_t chunkId);
  void removeExport(std::int32_t chunkId);

  /// The shared-scan memory charge of a task of class \p cls on \p chunkId.
  double memoryChargeFor(QueryClass cls, std::int32_t chunkId) const;

  /// Build (or reuse) the subchunk + overlap tables needed by \p task;
  /// returns build-side execution stats.
  util::Result<sql::ExecStats> acquireSubchunks(
      std::int32_t chunkId, const std::vector<std::int32_t>& subChunks);
  void releaseSubchunks(std::int32_t chunkId,
                        const std::vector<std::int32_t>& subChunks);

  /// Paper-scale bytes per row for \p tableName (chunk/overlap/subchunk
  /// names resolve to their base table's configured width).
  double rowBytesFor(const std::string& tableName) const;

  std::string id_;
  std::shared_ptr<sql::Database> db_;

  // Per-worker queue observability (the shared-scan scheduler's judgment
  // substrate): "worker.<id>.queue_wait_seconds" / ".queue_depth" /
  // ".convoy_ratio" in the process registry, alongside the aggregated
  // "worker.*" instruments. The convoy ratio is max queue wait in a claimed
  // batch over the batch's service time — high when long scans make short
  // tasks queue behind them (a convoy).
  util::Histogram& queueWaitHist_;
  util::Gauge& queueDepthGauge_;
  util::Histogram& convoyRatioHist_;

  const CatalogConfig& catalog_;
  sphgeom::Chunker chunker_;
  /// Sorted; guarded by exportsMutex_ now that the control plane installs
  /// and drops replicas while chunk queries keep arriving.
  mutable std::mutex exportsMutex_;
  std::vector<std::int32_t> exportedChunks_;
  WorkerConfig config_;

  xrd::FileStore results_;

  ScanScheduler sched_;
  std::atomic<bool> stopping_{false};  ///< lock-free shutdown flag for waits
  std::vector<std::thread> executors_;
  std::atomic<std::uint64_t> tasksExecuted_{0};

  mutable std::mutex batchMutex_;
  std::map<std::string, std::shared_ptr<BatchStream>> batches_;

  // Subchunk refcounting: key = "Object_CC_SS".
  std::mutex subchunkMutex_;
  std::condition_variable subchunkCv_;
  struct SubchunkState {
    int refs = 0;
    bool built = false;
    bool building = false;
  };
  std::map<std::string, SubchunkState> subchunks_;
};

}  // namespace qserv::core
