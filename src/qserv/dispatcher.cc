#include "qserv/dispatcher.h"

#include <algorithm>
#include <map>
#include <span>
#include <tuple>
#include <unordered_map>

#include "qserv/batch_codec.h"
#include "qserv/dump_integrity.h"
#include "qserv/observables_codec.h"
#include "util/logging.h"
#include "util/md5.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "xrd/paths.h"

namespace qserv::core {

using util::Result;
using util::Status;

namespace {
struct DispatchMetrics {
  util::Counter& chunksOk;
  util::Counter& chunksFailed;
  util::Counter& chunksCancelled;
  util::Counter& retries;
  util::Counter& replicaExclusions;
  util::Counter& checksumMismatches;
  util::Counter& deadlineExceeded;
  util::Counter& batches;
  util::Counter& batchFallbackChunks;
  util::Counter& batchChunkRetries;
  util::Counter& damagedFrames;
  util::Histogram& chunkSeconds;
  util::Histogram& backoffSeconds;
  util::Histogram& batchSeconds;
  util::Histogram& batchChunks;

  static DispatchMetrics& instance() {
    auto& reg = util::MetricsRegistry::instance();
    static DispatchMetrics* m = new DispatchMetrics{
        reg.counter("dispatch.chunks_ok"),
        reg.counter("dispatch.chunks_failed"),
        reg.counter("dispatch.chunks_cancelled"),
        reg.counter("dispatch.retries"),
        reg.counter("dispatch.replica_exclusions"),
        reg.counter("dispatch.checksum_mismatches"),
        reg.counter("dispatch.deadline_exceeded"),
        reg.counter("dispatch.batches"),
        reg.counter("dispatch.batch_fallback_chunks"),
        reg.counter("dispatch.batch_chunk_retries"),
        reg.counter("dispatch.damaged_frames"),
        reg.histogram("dispatch.chunk_seconds"),
        reg.histogram("dispatch.backoff_seconds"),
        reg.histogram("dispatch.batch_seconds"),
        reg.histogram("dispatch.batch_chunks"),
    };
    return *m;
  }
};

/// Is a failed attempt worth retrying on another replica?
bool isRetryable(const Status& s) {
  return s.code() == util::ErrorCode::kUnavailable ||
         s.code() == util::ErrorCode::kDataLoss;
}

/// The chunk request for \p chunks, which share one query's template and
/// class: the template, its bindings and aggregate flag, the class and the
/// trace id (so the worker attaches its spans to this query) once, then
/// each chunk's entry. A per-chunk attempt writes it holding one chunk to
/// /query2, and finds the result at /result/<md5 of the request>; a batch
/// writes it to /batch/<md5 of the request>.
std::string encodeChunkRequest(std::span<const ChunkQuerySpec* const> chunks,
                               const util::TracePtr& trace, int streamWindow) {
  const ChunkTemplate& tmpl = *chunks.front()->chunkTemplate;
  BatchRequest request;
  request.streamWindow = streamWindow;
  request.traceId = trace ? trace->id() : 0;
  request.queryClass = chunks.front()->queryClass;
  request.aggregate = tmpl.aggregate();
  request.bindings = tmpl.bindings();
  request.templateSql = tmpl.sql();
  request.chunks.reserve(chunks.size());
  for (const ChunkQuerySpec* spec : chunks) {
    request.chunks.push_back(BatchChunk{spec->chunkId, spec->subChunkIds});
  }
  return encodeBatchRequest(request);
}
}  // namespace

struct Dispatcher::ChunkFailure {
  std::int32_t chunkId = 0;
  int attempts = 0;
  Status status = Status::ok();
};

/// A chunk the batch path could not finish, queued for the per-chunk wave.
struct Dispatcher::RetryItem {
  const ChunkQuerySpec* spec = nullptr;
  std::vector<std::string> exclude;  ///< replicas burned by the batch attempt
  int priorAttempts = 0;
  Status prior = Status::internal("not attempted");
};

struct Dispatcher::BatchOutcome {
  std::vector<RetryItem> retries;
  std::vector<ChunkFailure> failures;  ///< terminal (non-retryable) chunks
  std::size_t ok = 0;
  std::size_t cancelled = 0;
};

Dispatcher::Dispatcher(xrd::RedirectorPtr redirector, DispatcherConfig config)
    : redirector_(std::move(redirector)),
      config_(config),
      pool_(static_cast<std::size_t>(std::max(1, config.parallelism))) {
  config_.parallelism = std::max(1, config_.parallelism);
  config_.maxAttempts = std::max(1, config_.maxAttempts);
}

Dispatcher::Dispatcher(xrd::RedirectorPtr redirector, int parallelism,
                       int maxAttempts)
    : Dispatcher(std::move(redirector),
                 DispatcherConfig{parallelism, maxAttempts,
                                  util::BackoffPolicy{}, 0x5eedULL, false}) {}

Result<ChunkResult> Dispatcher::runOne(const ChunkQuerySpec& spec,
                                       const util::TracePtr& trace,
                                       const DispatchOptions& options,
                                       int& attemptsOut,
                                       std::vector<std::string> initialExclude,
                                       int priorAttempts, Status prior) {
  auto& metrics = DispatchMetrics::instance();
  util::Stopwatch watch;
  util::ScopedSpan span(trace, "dispatcher",
                        util::format("chunk %d", spec.chunkId));
  xrd::XrdClient client(redirector_);
  const ChunkQuerySpec* const one[] = {&spec};
  std::string payload = encodeChunkRequest(one, trace, /*streamWindow=*/0);
  std::string hash = util::Md5::hex(payload);
  // Deterministic, per-chunk-decorrelated backoff stream.
  std::uint64_t backoffSeed =
      config_.retrySeed + 0x9e3779b97f4a7c15ULL *
                              static_cast<std::uint64_t>(spec.chunkId + 1);
  util::Backoff backoff(config_.backoff, util::splitmix64(backoffSeed));
  std::vector<std::string> exclude = std::move(initialExclude);
  Status last = std::move(prior);
  // A chunk resuming after a failed batch attempt keeps its spent attempt
  // count: the batch write+stream was attempt 1..priorAttempts, so the loop
  // resumes mid-budget and pays backoff before touching another replica.
  int attempt = std::min(priorAttempts, config_.maxAttempts);
  for (; attempt < config_.maxAttempts; ++attempt) {
    if (options.cancel.cancelled()) {
      last = Status::aborted("chunk query cancelled: " +
                             options.cancel.reason().message());
      break;
    }
    if (options.deadline.expired()) {
      metrics.deadlineExceeded.add();
      last = Status::deadlineExceeded(util::format(
          "chunk %d: query deadline expired after %d attempt(s)",
          spec.chunkId, attempt));
      break;
    }
    if (attempt > 0) {
      metrics.retries.add();
      auto sleep = backoff.next();
      if (options.deadline.isLimited()) {
        sleep = std::min(sleep, options.deadline.remaining());
      }
      metrics.backoffSeconds.observe(
          static_cast<double>(sleep.count()) * 1e-6);
      if (!options.cancel.sleepFor(sleep)) {
        last = Status::aborted("chunk query cancelled during backoff: " +
                               options.cancel.reason().message());
        break;
      }
      if (options.deadline.expired()) {
        metrics.deadlineExceeded.add();
        last = Status::deadlineExceeded(util::format(
            "chunk %d: query deadline expired after %d attempt(s)",
            spec.chunkId, attempt));
        break;
      }
    }
    // Named "attempt N ..." (not "chunk ...") so trace consumers keep seeing
    // exactly one "chunk <id>" dispatcher span per dispatched chunk.
    util::ScopedSpan attemptSpan(
        trace, "dispatcher",
        util::format("attempt %d chunk %d", attempt + 1, spec.chunkId));
    std::string attempted;
    Result<std::string> workerId = Status::internal("unreached");
    {
      util::ScopedSpan xrdSpan(trace, "xrd",
                               util::format("write /query2/%d", spec.chunkId));
      workerId = client.writeQuery(spec.chunkId, payload, exclude, &attempted);
      if (!workerId.isOk() &&
          workerId.status().code() == util::ErrorCode::kUnavailable &&
          attempted.empty() && !exclude.empty()) {
        // Every live replica already failed once this chunk query. Retrying
        // a previously failed replica (it may have recovered) beats giving
        // up while attempts remain.
        exclude.clear();
        workerId = client.writeQuery(spec.chunkId, payload, {}, &attempted);
      }
    }
    if (!workerId.isOk()) {
      last = workerId.status();
      attemptSpan.attr("error", last.toString());
      if (!attempted.empty()) {
        redirector_->reportFailure(spec.chunkId, attempted);
        exclude.push_back(attempted);
        metrics.replicaExclusions.add();
      }
      if (isRetryable(last)) continue;
      break;  // non-transient: bad path, chunk unknown, ...
    }
    attemptSpan.attr("worker", *workerId);
    Result<std::string> dump = Status::internal("unreached");
    {
      util::ScopedSpan xrdSpan(
          trace, "xrd",
          util::format("read /result/%s", hash.substr(0, 8).c_str()));
      xrdSpan.attr("worker", *workerId);
      dump = client.readResult(*workerId, hash, options.deadline);
    }
    Status integrity = Status::ok();
    if (dump.isOk()) {
      integrity = verifyDumpChecksum(*dump);
      if (integrity.isOk() && config_.requireDumpChecksum &&
          !hasDumpChecksum(*dump)) {
        integrity = Status::dataLoss(util::format(
            "chunk %d: dump from %s carries no integrity checksum",
            spec.chunkId, workerId->c_str()));
      }
      if (!integrity.isOk()) metrics.checksumMismatches.add();
    }
    if (!dump.isOk() || !integrity.isOk()) {
      last = dump.isOk() ? integrity : dump.status();
      QLOG(kWarn, "dispatch")
          << "chunk " << spec.chunkId << " on " << *workerId
          << " failed (attempt " << attempt + 1 << "): " << last.toString();
      attemptSpan.attr("error", last.toString());
      redirector_->reportFailure(spec.chunkId, *workerId);
      exclude.push_back(*workerId);
      metrics.replicaExclusions.add();
      if (isRetryable(last)) continue;
      break;
    }
    redirector_->reportSuccess(*workerId);
    ChunkResult out;
    out.chunkId = spec.chunkId;
    out.workerId = std::move(*workerId);
    out.hash = std::move(hash);
    if (auto obs = decodeObservables(*dump)) out.observables = *obs;
    out.dump = std::move(*dump);
    attemptsOut = attempt + 1;
    span.attr("worker", out.workerId)
        .attr("attempts", static_cast<std::int64_t>(attempt + 1))
        .attr("dumpBytes", static_cast<std::int64_t>(out.dump.size()));
    metrics.chunksOk.add();
    metrics.chunkSeconds.observe(watch.elapsedSeconds());
    return out;
  }
  attemptsOut = std::min(attempt + 1, config_.maxAttempts);
  if (last.code() == util::ErrorCode::kAborted) {
    metrics.chunksCancelled.add();
  } else {
    metrics.chunksFailed.add();
  }
  span.attr("attempts", static_cast<std::int64_t>(attemptsOut))
      .attr("error", last.toString());
  return last;
}

Status Dispatcher::aggregateFailures(std::vector<ChunkFailure> failures,
                                     std::size_t cancelled, std::size_t ok,
                                     std::size_t total,
                                     const Status& cancelReason) {
  if (failures.empty() && cancelled == 0) return Status::ok();
  if (failures.empty()) {
    // Only possible when the caller cancelled externally.
    return Status::aborted(util::format(
        "%zu of %zu chunk queries cancelled: %s", cancelled, total,
        cancelReason.message().c_str()));
  }
  // Aggregate: name the failed chunks with their attempt counts.
  std::string detail;
  constexpr std::size_t kMaxListed = 4;
  for (std::size_t i = 0; i < failures.size() && i < kMaxListed; ++i) {
    if (i > 0) detail += "; ";
    detail += util::format("chunk %d after %d attempt(s): %s",
                           failures[i].chunkId, failures[i].attempts,
                           failures[i].status.toString().c_str());
  }
  if (failures.size() > kMaxListed) {
    detail += util::format("; and %zu more", failures.size() - kMaxListed);
  }
  std::string summary = util::format(
      "%zu of %zu chunk queries failed (%zu cancelled early, %zu "
      "succeeded): %s",
      failures.size(), total, cancelled, ok, detail.c_str());
  return Status(failures.front().status.code(), std::move(summary));
}

Result<std::vector<ChunkResult>> Dispatcher::run(
    const std::vector<ChunkQuerySpec>& specs, const util::TracePtr& trace,
    std::atomic<std::size_t>* completed, const DispatchOptions& options) {
  // Collect through a sink wide enough to never block, then restore the
  // caller-visible ordering contract (results in spec order).
  util::MpmcQueue<ChunkResult> sink(std::max<std::size_t>(1, specs.size()));
  auto report = runStreamed(specs, sink, trace, completed, options);
  std::vector<ChunkResult> out;
  while (auto r = sink.tryPop()) out.push_back(std::move(*r));
  QSERV_RETURN_IF_ERROR(report.status());
  std::unordered_map<std::int32_t, std::size_t> order;
  order.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) order[specs[i].chunkId] = i;
  std::sort(out.begin(), out.end(),
            [&](const ChunkResult& a, const ChunkResult& b) {
              return order[a.chunkId] < order[b.chunkId];
            });
  return out;
}

Result<DispatchReport> Dispatcher::runStreamed(
    const std::vector<ChunkQuerySpec>& specs, util::MpmcQueue<ChunkResult>& sink,
    const util::TracePtr& trace, std::atomic<std::size_t>* completed,
    const DispatchOptions& options) {
  if (config_.mode == DispatchMode::kBatched) {
    return runBatched(specs, sink, trace, completed, options);
  }
  return runPerChunk(specs, sink, trace, completed, options);
}

Result<DispatchReport> Dispatcher::runPerChunk(
    const std::vector<ChunkQuerySpec>& specs, util::MpmcQueue<ChunkResult>& sink,
    const util::TracePtr& trace, std::atomic<std::size_t>* completed,
    const DispatchOptions& options) {
  struct ChunkOutcome {
    Status status = Status::internal("not dispatched");
    int attempts = 0;
    bool skipped = false;  ///< cancelled before its first attempt
  };
  std::vector<std::future<ChunkOutcome>> futures;
  futures.reserve(specs.size());
  for (const auto& spec : specs) {
    futures.push_back(
        pool_.submit([this, &spec, &trace, &options, &sink, completed] {
          ChunkOutcome outcome;
          if (options.cancel.cancelled()) {
            // A sibling already failed hard: don't even start.
            outcome.skipped = true;
            outcome.status = Status::aborted(
                util::format("chunk %d cancelled: %s", spec.chunkId,
                             options.cancel.reason().message().c_str()));
            DispatchMetrics::instance().chunksCancelled.add();
          } else {
            auto result = runOne(spec, trace, options, outcome.attempts);
            outcome.status = result.status();
            if (result.isOk()) {
              if (!sink.push(std::move(result).value())) {
                outcome.status = Status::aborted("result sink closed");
              }
            } else if (result.status().code() != util::ErrorCode::kAborted) {
              // This query can no longer succeed: stop siblings now.
              options.cancel.cancel(result.status());
            }
          }
          if (completed != nullptr) {
            completed->fetch_add(1, std::memory_order_relaxed);
          }
          return outcome;
        }));
  }
  DispatchReport report;
  report.mode = DispatchMode::kPerChunk;
  std::vector<ChunkFailure> failures;
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    ChunkOutcome outcome = futures[i].get();
    if (outcome.status.isOk()) {
      ++report.chunksOk;
      continue;
    }
    if (outcome.skipped ||
        outcome.status.code() == util::ErrorCode::kAborted) {
      ++cancelled;
      continue;
    }
    failures.push_back(
        ChunkFailure{specs[i].chunkId, outcome.attempts, outcome.status});
  }
  QSERV_RETURN_IF_ERROR(aggregateFailures(std::move(failures), cancelled,
                                          report.chunksOk, specs.size(),
                                          options.cancel.reason()));
  return report;
}

std::vector<BatchPlanEntry> Dispatcher::planBatches(
    const std::vector<ChunkQuerySpec>& specs) {
  std::map<std::string, std::vector<std::int32_t>> byWorker;
  std::vector<std::int32_t> unplaced;
  for (const auto& spec : specs) {
    auto server = redirector_->locate(xrd::makeQueryPath(spec.chunkId));
    if (server.isOk()) {
      byWorker[(*server)->id()].push_back(spec.chunkId);
    } else {
      unplaced.push_back(spec.chunkId);
    }
  }
  std::vector<BatchPlanEntry> out;
  out.reserve(byWorker.size() + 1);
  for (auto& [workerId, chunkIds] : byWorker) {
    out.push_back(BatchPlanEntry{workerId, std::move(chunkIds)});
  }
  if (!unplaced.empty()) {
    out.push_back(BatchPlanEntry{{}, std::move(unplaced)});
  }
  return out;
}

Dispatcher::BatchOutcome Dispatcher::collectBatch(
    const std::string& workerId,
    const std::vector<const ChunkQuerySpec*>& chunks,
    util::MpmcQueue<ChunkResult>& sink, const util::TracePtr& trace,
    std::atomic<std::size_t>* completed, const DispatchOptions& options) {
  auto& metrics = DispatchMetrics::instance();
  BatchOutcome outcome;
  xrd::XrdClient client(redirector_);
  util::Stopwatch watch;

  // The template once, then the chunk ids: every chunk of one batch shares
  // its query's template and class (runBatched groups them that way).
  std::string requestBytes =
      encodeChunkRequest(chunks, trace, config_.streamWindow);
  std::string batchId = util::Md5::hex(requestBytes);
  std::unordered_map<std::int32_t, const ChunkQuerySpec*> pending;
  pending.reserve(chunks.size());
  for (const ChunkQuerySpec* spec : chunks) {
    pending.emplace(spec->chunkId, spec);
  }

  util::ScopedSpan span(trace, "dispatcher",
                        util::format("batch %s", workerId.c_str()));
  span.attr("chunks", static_cast<std::int64_t>(chunks.size()))
      .attr("requestBytes", static_cast<std::int64_t>(requestBytes.size()));
  std::int64_t batchStartUs = util::Trace::nowUs();

  // Every pending chunk becomes a retry item carrying \p why and excluding
  // this worker — the shared bail-out of write failures and broken streams.
  auto retryPending = [&](const Status& why) {
    for (auto& [chunkId, spec] : pending) {
      redirector_->reportFailure(chunkId, workerId);
      metrics.replicaExclusions.add();
      metrics.batchChunkRetries.add();
      outcome.retries.push_back(
          RetryItem{spec, {workerId}, /*priorAttempts=*/1, why});
    }
    pending.clear();
  };

  {
    util::ScopedSpan xrdSpan(
        trace, "xrd",
        util::format("write /batch/%s", batchId.substr(0, 8).c_str()));
    xrdSpan.attr("worker", workerId);
    Status written = client.writeBatch(workerId, batchId, requestBytes);
    if (!written.isOk()) {
      QLOG(kWarn, "dispatch") << "batch " << batchId.substr(0, 8) << " to "
                              << workerId << " rejected: "
                              << written.toString();
      xrdSpan.attr("error", written.toString());
      span.attr("error", written.toString());
      retryPending(written.code() == util::ErrorCode::kUnavailable ||
                           written.code() == util::ErrorCode::kNotFound
                       ? Status::unavailable(written.message())
                       : written);
      return outcome;
    }
  }
  metrics.batches.add();
  metrics.batchChunks.observe(static_cast<double>(chunks.size()));

  std::size_t framesSeen = 0;
  std::size_t delivered = 0;
  std::int64_t streamBytes = 0;
  const std::size_t expected = chunks.size();
  while (!pending.empty()) {
    if (options.cancel.cancelled()) {
      client.cancelBatch(workerId, batchId);
      metrics.chunksCancelled.add(pending.size());
      outcome.cancelled += pending.size();
      if (completed != nullptr) {
        completed->fetch_add(pending.size(), std::memory_order_relaxed);
      }
      pending.clear();
      break;
    }
    if (framesSeen >= expected) {
      // The worker produced all its frames but some chunks never got a
      // readable one (damaged headers): re-fetch them per-chunk.
      retryPending(Status::dataLoss(util::format(
          "batch %s: result frame lost or damaged",
          batchId.substr(0, 8).c_str())));
      break;
    }
    Result<std::string> frameBytes = Status::internal("unreached");
    {
      util::ScopedSpan xrdSpan(
          trace, "xrd",
          util::format("read /bstream/%s", batchId.substr(0, 8).c_str()));
      xrdSpan.attr("worker", workerId);
      frameBytes = client.readBatchFrame(workerId, batchId, options.deadline);
    }
    if (!frameBytes.isOk()) {
      // Worker death / stream timeout / deadline: abandon the stream and
      // send the survivors through the per-chunk path (which re-checks the
      // deadline before spending another attempt).
      QLOG(kWarn, "dispatch")
          << "batch " << batchId.substr(0, 8) << " stream from " << workerId
          << " broke: " << frameBytes.status().toString();
      span.attr("error", frameBytes.status().toString());
      client.cancelBatch(workerId, batchId);
      retryPending(frameBytes.status());
      break;
    }
    ++framesSeen;
    streamBytes += static_cast<std::int64_t>(frameBytes->size());
    auto frame = decodeResultFrame(*frameBytes);
    if (!frame.isOk()) {
      // Unattributable frame: some chunk is now short one frame; it gets
      // retried when the stream runs dry.
      metrics.damagedFrames.add();
      continue;
    }
    auto it = pending.find(frame->chunkId);
    if (it == pending.end()) continue;  // duplicate or stale frame
    const ChunkQuerySpec* spec = it->second;
    std::int32_t chunkId = frame->chunkId;

    if (!frame->status.isOk()) {
      // The worker executed this chunk and failed.
      Status why = frame->status;
      if (isRetryable(why)) {
        redirector_->reportFailure(chunkId, workerId);
        metrics.replicaExclusions.add();
        metrics.batchChunkRetries.add();
        outcome.retries.push_back(
            RetryItem{spec, {workerId}, /*priorAttempts=*/1, why});
      } else {
        metrics.chunksFailed.add();
        if (trace) {
          util::TraceSpan failSpan;
          failSpan.component = "dispatcher";
          failSpan.name = util::format("chunk %d", chunkId);
          failSpan.startUs = batchStartUs;
          failSpan.endUs = util::Trace::nowUs();
          failSpan.threadId = util::threadId();
          failSpan.attrs.emplace_back("worker", workerId);
          failSpan.attrs.emplace_back("attempts", "1");
          failSpan.attrs.emplace_back("error", why.toString());
          trace->addSpan(std::move(failSpan));
        }
        outcome.failures.push_back(ChunkFailure{chunkId, 1, why});
        options.cancel.cancel(why);
        if (completed != nullptr) {
          completed->fetch_add(1, std::memory_order_relaxed);
        }
      }
      pending.erase(it);
      continue;
    }

    std::string dump = std::move(frame->body);
    Status integrity = verifyDumpChecksum(dump);
    if (integrity.isOk() && config_.requireDumpChecksum &&
        !hasDumpChecksum(dump)) {
      integrity = Status::dataLoss(util::format(
          "chunk %d: dump from %s carries no integrity checksum", chunkId,
          workerId.c_str()));
    }
    if (!integrity.isOk()) {
      metrics.checksumMismatches.add();
      redirector_->reportFailure(chunkId, workerId);
      metrics.replicaExclusions.add();
      metrics.batchChunkRetries.add();
      QLOG(kWarn, "dispatch")
          << "chunk " << chunkId << " in batch " << batchId.substr(0, 8)
          << " from " << workerId << " damaged: " << integrity.toString();
      outcome.retries.push_back(
          RetryItem{spec, {workerId}, /*priorAttempts=*/1, integrity});
      pending.erase(it);
      continue;
    }

    redirector_->reportSuccess(workerId);
    ChunkResult out;
    out.chunkId = chunkId;
    out.workerId = workerId;
    out.hash = batchTaskId(batchId, chunkId);
    if (auto obs = decodeObservables(dump)) out.observables = *obs;
    out.dump = std::move(dump);
    std::int64_t nowUs = util::Trace::nowUs();
    if (trace) {
      // The per-chunk dispatcher span trace consumers key on: one
      // "chunk <id>" per dispatched chunk, batched or not. It covers batch
      // write through frame arrival.
      util::TraceSpan chunkSpan;
      chunkSpan.component = "dispatcher";
      chunkSpan.name = util::format("chunk %d", chunkId);
      chunkSpan.startUs = batchStartUs;
      chunkSpan.endUs = nowUs;
      chunkSpan.threadId = util::threadId();
      chunkSpan.attrs.emplace_back("worker", workerId);
      chunkSpan.attrs.emplace_back("attempts", "1");
      chunkSpan.attrs.emplace_back("dumpBytes",
                                   std::to_string(out.dump.size()));
      trace->addSpan(std::move(chunkSpan));
    }
    metrics.chunksOk.add();
    metrics.chunkSeconds.observe(
        static_cast<double>(nowUs - batchStartUs) * 1e-6);
    ++outcome.ok;
    ++delivered;
    pending.erase(it);
    if (!sink.push(std::move(out))) {
      options.cancel.cancel(Status::aborted("result sink closed"));
    }
    if (completed != nullptr) {
      completed->fetch_add(1, std::memory_order_relaxed);
    }
  }
  span.attr("delivered", static_cast<std::int64_t>(delivered))
      .attr("streamBytes", streamBytes);
  metrics.batchSeconds.observe(watch.elapsedSeconds());
  return outcome;
}

Result<DispatchReport> Dispatcher::runBatched(
    const std::vector<ChunkQuerySpec>& specs, util::MpmcQueue<ChunkResult>& sink,
    const util::TracePtr& trace, std::atomic<std::size_t>* completed,
    const DispatchOptions& options) {
  auto& metrics = DispatchMetrics::instance();
  DispatchReport report;
  report.mode = DispatchMode::kBatched;

  // Plan: one batch per (query, worker) at the redirector's current
  // placement, keyed by template and class too so each batch ships one
  // template. Chunks without a live replica go straight to the per-chunk
  // path, which owns the precise error semantics.
  using BatchKey =
      std::tuple<std::string, const ChunkTemplate*, QueryClass>;
  std::map<BatchKey, std::vector<const ChunkQuerySpec*>> byWorker;
  std::vector<RetryItem> spill;
  for (const auto& spec : specs) {
    auto server = redirector_->locate(xrd::makeQueryPath(spec.chunkId));
    if (server.isOk()) {
      byWorker[{(*server)->id(), spec.chunkTemplate.get(), spec.queryClass}]
          .push_back(&spec);
    } else {
      spill.push_back(RetryItem{&spec, {}, 0, server.status()});
    }
  }
  report.batches = byWorker.size();
  report.fallbackChunks = spill.size();
  metrics.batchFallbackChunks.add(spill.size());

  // Wave 1: collectors stream each batch concurrently; unplaced chunks run
  // per-chunk alongside them. All tasks are pool leaves — they never wait on
  // other pool work — so a shared pool cannot deadlock.
  struct SoloOutcome {
    Status status = Status::internal("not dispatched");
    std::int32_t chunkId = 0;
    int attempts = 0;
    bool skipped = false;
  };
  auto submitSolo = [&](const RetryItem item) {
    return pool_.submit([this, item, &trace, &options, &sink, completed] {
      SoloOutcome outcome;
      outcome.chunkId = item.spec->chunkId;
      if (options.cancel.cancelled()) {
        outcome.skipped = true;
        outcome.status = Status::aborted(
            util::format("chunk %d cancelled: %s", item.spec->chunkId,
                         options.cancel.reason().message().c_str()));
        DispatchMetrics::instance().chunksCancelled.add();
      } else {
        auto result = runOne(*item.spec, trace, options, outcome.attempts,
                             item.exclude, item.priorAttempts, item.prior);
        outcome.status = result.status();
        if (result.isOk()) {
          if (!sink.push(std::move(result).value())) {
            outcome.status = Status::aborted("result sink closed");
          }
        } else if (result.status().code() != util::ErrorCode::kAborted) {
          options.cancel.cancel(result.status());
        }
      }
      if (completed != nullptr) {
        completed->fetch_add(1, std::memory_order_relaxed);
      }
      return outcome;
    });
  };

  std::vector<std::future<BatchOutcome>> collectors;
  collectors.reserve(byWorker.size());
  for (auto& [key, chunks] : byWorker) {
    collectors.push_back(pool_.submit(
        [this, workerId = std::get<0>(key), chunks = std::move(chunks), &sink,
         &trace, &options, completed] {
          return collectBatch(workerId, chunks, sink, trace, completed,
                              options);
        }));
  }
  std::vector<std::future<SoloOutcome>> solos;
  solos.reserve(spill.size());
  for (const RetryItem& item : spill) solos.push_back(submitSolo(item));

  std::vector<ChunkFailure> failures;
  std::size_t cancelled = 0;
  std::vector<RetryItem> retries;
  for (auto& f : collectors) {
    BatchOutcome outcome = f.get();
    report.chunksOk += outcome.ok;
    cancelled += outcome.cancelled;
    for (auto& failure : outcome.failures) {
      failures.push_back(std::move(failure));
    }
    for (auto& retry : outcome.retries) retries.push_back(std::move(retry));
  }

  // Wave 2: per-chunk retries for everything the batches could not deliver.
  // Submitted only after every collector finished so the caller thread never
  // waits on pool work that is itself queued behind pool work.
  std::vector<std::future<SoloOutcome>> retryWave;
  retryWave.reserve(retries.size());
  for (const RetryItem& item : retries) retryWave.push_back(submitSolo(item));

  auto drainSolos = [&](std::vector<std::future<SoloOutcome>>& wave) {
    for (auto& f : wave) {
      SoloOutcome outcome = f.get();
      if (outcome.status.isOk()) {
        ++report.chunksOk;
      } else if (outcome.skipped ||
                 outcome.status.code() == util::ErrorCode::kAborted) {
        ++cancelled;
      } else {
        failures.push_back(ChunkFailure{outcome.chunkId, outcome.attempts,
                                        outcome.status});
      }
    }
  };
  drainSolos(solos);
  drainSolos(retryWave);

  std::sort(failures.begin(), failures.end(),
            [](const ChunkFailure& a, const ChunkFailure& b) {
              return a.chunkId < b.chunkId;
            });
  QSERV_RETURN_IF_ERROR(aggregateFailures(std::move(failures), cancelled,
                                          report.chunksOk, specs.size(),
                                          options.cancel.reason()));
  return report;
}

}  // namespace qserv::core
