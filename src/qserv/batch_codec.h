/// \file batch_codec.h
/// \brief The chunk-request wire format, and the result frames of batched
/// per-worker dispatch (§7.6 remedy).
///
/// Production Qserv batches all chunk tasks destined for one worker into a
/// single "UberJob" request and streams per-chunk results back over one
/// shared channel. This codec defines both directions of that protocol, and
/// its request is also the one chunk-request format: a per-chunk dispatch
/// writes the same request, holding exactly one chunk entry, to
/// /query2/<chunkId> and reads the result back from /result/<md5 of the
/// request>. A batch is written to /batch/<md5 of the request>.
///
/// Request: the query's chunk template once, then the chunk ids it runs on.
///   -- QSERV-BATCH <nChunks> <streamWindow>\n
///   -- QSERV-TRACE: <traceId>\n              (only on traced queries)
///   -- QSERV-CLASS: <scan|interactive>\n
///   --#TEMPLATE <aggregate 0|1> <bindings> <sqlBytes>\n
///   <sqlBytes bytes: the template SELECT, base table names in FROM>\n
///   --#CHUNK <chunkId>[ <subChunkId>...]\n   ... repeated nChunks times
///
/// <bindings> holds one TableBinding character per FROM position (see
/// query_rewriter.h). The worker parses the template once per request and
/// binds each chunk's table names onto a copy, so no per-chunk SQL text is
/// rendered, shipped, hashed or re-parsed. A batch task is identified by
/// (batchId, chunkId); a /query2 task by the MD5 of its request.
///
/// Result frames (each one FileStore entry at /bstream/<batchId>):
///   --#FRAME <chunkId> ok <bodyBytes>\n<body>     body = the normal dump,
///       observables comment and MD5 integrity trailer included, or
///   --#FRAME <chunkId> err <code> <bodyBytes>\n<body>   body = the worker's
///       failure Status message, <code> its numeric ErrorCode.
///
/// Integrity: the per-chunk MD5 trailer inside each ok-frame body is
/// preserved end to end; a frame whose header fails to parse is counted as
/// damaged and its chunk is re-fetched through the per-chunk path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "qserv/query_rewriter.h"
#include "qserv/scan_scheduler.h"
#include "util/status.h"

namespace qserv::core {

/// One chunk of a request.
struct BatchChunk {
  std::int32_t chunkId = 0;
  std::vector<std::int32_t> subChunkIds;  ///< non-empty for near-neighbor
};

/// A chunk request: one query's chunk template and the chunks it runs on
/// (exactly one on /query2).
struct BatchRequest {
  /// Backpressure bound the worker applies to unread result frames
  /// (0 = unbounded; unused on /query2).
  int streamWindow = 0;
  std::uint64_t traceId = 0;  ///< 0 = untraced
  QueryClass queryClass = QueryClass::kScan;
  bool aggregate = false;  ///< results are partial aggregates
  std::vector<TableBinding> bindings;  ///< one per template FROM position
  std::string templateSql;
  std::vector<BatchChunk> chunks;
};

/// Serialize \p request into one request payload.
std::string encodeBatchRequest(const BatchRequest& request);

/// Decode a request; kInvalidArgument on any framing violation. Storage
/// stays proportional to the payload, whatever counts it claims.
util::Result<BatchRequest> decodeBatchRequest(const std::string& payload);

/// The 32-character result id of chunk \p chunkId in batch \p batchId (it
/// names the chunk's result table, the way the request MD5 does on /query2).
std::string batchTaskId(const std::string& batchId, std::int32_t chunkId);

/// One chunk's result frame on the batch stream.
struct BatchResultFrame {
  std::int32_t chunkId = 0;
  util::Status status;  ///< ok, or the worker-side failure
  std::string body;     ///< dump (ok) with trailer; empty on error frames
};

/// Serialize an ok frame carrying \p dump.
std::string encodeResultFrame(std::int32_t chunkId, const std::string& dump);

/// Serialize an error frame carrying \p status.
std::string encodeErrorFrame(std::int32_t chunkId, const util::Status& status);

/// Decode one result frame; kDataLoss when the header is damaged.
util::Result<BatchResultFrame> decodeResultFrame(const std::string& frame);

}  // namespace qserv::core
