#include "qserv/batch_codec.h"

#include <algorithm>
#include <optional>

#include "util/strings.h"

namespace qserv::core {

using util::Result;
using util::Status;

namespace {

constexpr std::string_view kBatchHeader = "-- QSERV-BATCH ";
constexpr std::string_view kTraceHeader = "-- QSERV-TRACE: ";
constexpr std::string_view kClassHeader = "-- QSERV-CLASS: ";
constexpr std::string_view kTemplateHeader = "--#TEMPLATE ";
constexpr std::string_view kChunkHeader = "--#CHUNK ";
constexpr std::string_view kFrameHeader = "--#FRAME ";
/// The shortest chunk entry, "--#CHUNK 0\n": bounds the entries a payload
/// can hold, whatever count its header claims.
constexpr std::size_t kMinChunkEntryBytes = kChunkHeader.size() + 2;

/// Parse a non-negative decimal integer starting at \p pos; advances \p pos
/// past it. nullopt when no digits are present or the value exceeds \p max.
std::optional<std::uint64_t> parseUint(const std::string& s, std::size_t& pos,
                                       std::uint64_t max = INT32_MAX) {
  std::size_t start = pos;
  std::uint64_t value = 0;
  while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
    const auto digit = static_cast<std::uint64_t>(s[pos] - '0');
    if (value > (max - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
    ++pos;
  }
  if (pos == start) return std::nullopt;
  return value;
}

bool skipChar(const std::string& s, std::size_t& pos, char c) {
  if (pos >= s.size() || s[pos] != c) return false;
  ++pos;
  return true;
}

bool skipText(const std::string& s, std::size_t& pos, std::string_view text) {
  if (s.compare(pos, text.size(), text) != 0) return false;
  pos += text.size();
  return true;
}

bool isBinding(char c) {
  switch (static_cast<TableBinding>(c)) {
    case TableBinding::kKeep:
    case TableBinding::kChunk:
    case TableBinding::kSubChunk:
    case TableBinding::kFullOverlap:
      return true;
  }
  return false;
}

}  // namespace

std::string encodeBatchRequest(const BatchRequest& request) {
  std::string out;
  out.reserve(128 + request.templateSql.size() + 16 * request.chunks.size());
  out += kBatchHeader;
  out += util::format("%zu %d\n", request.chunks.size(),
                      request.streamWindow);
  if (request.traceId != 0) {
    out += kTraceHeader;
    out += std::to_string(request.traceId);
    out += '\n';
  }
  out += kClassHeader;
  out += queryClassName(request.queryClass);
  out += '\n';
  out += kTemplateHeader;
  out += request.aggregate ? "1 " : "0 ";
  for (TableBinding b : request.bindings) out += static_cast<char>(b);
  out += util::format(" %zu\n", request.templateSql.size());
  out += request.templateSql;
  out += '\n';
  for (const BatchChunk& c : request.chunks) {
    out += kChunkHeader;
    out += std::to_string(c.chunkId);
    for (std::int32_t sc : c.subChunkIds) {
      out += ' ';
      out += std::to_string(sc);
    }
    out += '\n';
  }
  return out;
}

Result<BatchRequest> decodeBatchRequest(const std::string& payload) {
  std::size_t pos = 0;
  if (!skipText(payload, pos, kBatchHeader)) {
    return Status::invalidArgument("batch request: missing header");
  }
  auto count = parseUint(payload, pos);
  if (!count || !skipChar(payload, pos, ' ')) {
    return Status::invalidArgument("batch request: bad chunk count");
  }
  auto window = parseUint(payload, pos);
  if (!window || !skipChar(payload, pos, '\n')) {
    return Status::invalidArgument("batch request: bad stream window");
  }
  BatchRequest out;
  out.streamWindow = static_cast<int>(*window);
  if (skipText(payload, pos, kTraceHeader)) {
    // Trace ids span the full uint64 range; 0 means untraced and is never
    // written.
    auto traceId = parseUint(payload, pos, UINT64_MAX);
    if (!traceId || *traceId == 0 || !skipChar(payload, pos, '\n')) {
      return Status::invalidArgument("batch request: bad trace header");
    }
    out.traceId = *traceId;
  }
  if (!skipText(payload, pos, kClassHeader)) {
    return Status::invalidArgument("batch request: missing class header");
  }
  if (skipText(payload, pos, "scan\n")) {
    out.queryClass = QueryClass::kScan;
  } else if (skipText(payload, pos, "interactive\n")) {
    out.queryClass = QueryClass::kInteractive;
  } else {
    return Status::invalidArgument("batch request: unknown query class");
  }
  if (!skipText(payload, pos, kTemplateHeader)) {
    return Status::invalidArgument("batch request: missing template");
  }
  if (skipText(payload, pos, "1 ")) {
    out.aggregate = true;
  } else if (!skipText(payload, pos, "0 ")) {
    return Status::invalidArgument("batch request: bad aggregate flag");
  }
  while (pos < payload.size() && isBinding(payload[pos])) {
    out.bindings.push_back(static_cast<TableBinding>(payload[pos++]));
  }
  if (!skipChar(payload, pos, ' ')) {
    return Status::invalidArgument("batch request: bad table bindings");
  }
  auto len = parseUint(payload, pos);
  if (!len || !skipChar(payload, pos, '\n') || *len > payload.size() - pos) {
    return Status::invalidArgument("batch request: bad template length");
  }
  out.templateSql = payload.substr(pos, *len);
  pos += *len;
  if (!skipChar(payload, pos, '\n')) {
    return Status::invalidArgument("batch request: missing template end");
  }
  out.chunks.reserve(std::min(static_cast<std::size_t>(*count),
                              (payload.size() - pos) / kMinChunkEntryBytes));
  for (std::uint64_t i = 0; i < *count; ++i) {
    if (!skipText(payload, pos, kChunkHeader)) {
      return Status::invalidArgument(
          util::format("batch request: missing chunk entry %llu",
                       static_cast<unsigned long long>(i)));
    }
    BatchChunk chunk;
    auto chunkId = parseUint(payload, pos);
    if (!chunkId) {
      return Status::invalidArgument("batch request: bad chunk id");
    }
    chunk.chunkId = static_cast<std::int32_t>(*chunkId);
    while (skipChar(payload, pos, ' ')) {
      auto sc = parseUint(payload, pos);
      if (!sc) {
        return Status::invalidArgument(util::format(
            "batch request: bad subchunk id for chunk %d", chunk.chunkId));
      }
      chunk.subChunkIds.push_back(static_cast<std::int32_t>(*sc));
    }
    if (!skipChar(payload, pos, '\n')) {
      return Status::invalidArgument(util::format(
          "batch request: bad entry for chunk %d", chunk.chunkId));
    }
    out.chunks.push_back(std::move(chunk));
  }
  if (pos != payload.size()) {
    return Status::invalidArgument("batch request: trailing bytes");
  }
  return out;
}

std::string batchTaskId(const std::string& batchId, std::int32_t chunkId) {
  return util::format("%.24s%08x", batchId.c_str(),
                      static_cast<unsigned>(chunkId));
}

std::string encodeResultFrame(std::int32_t chunkId, const std::string& dump) {
  std::string out;
  out.reserve(dump.size() + 32);
  out += util::format("%s%d ok %zu\n", std::string(kFrameHeader).c_str(),
                      chunkId, dump.size());
  out += dump;
  return out;
}

std::string encodeErrorFrame(std::int32_t chunkId,
                             const util::Status& status) {
  const std::string& msg = status.message();
  std::string out;
  out.reserve(msg.size() + 32);
  out += util::format("%s%d err %d %zu\n", std::string(kFrameHeader).c_str(),
                      chunkId, static_cast<int>(status.code()), msg.size());
  out += msg;
  return out;
}

Result<BatchResultFrame> decodeResultFrame(const std::string& frame) {
  // Header damage is kDataLoss: the frame's chunk cannot be attributed and
  // must be re-fetched; body damage is caught by the per-chunk MD5 trailer.
  if (frame.compare(0, kFrameHeader.size(), kFrameHeader) != 0) {
    return Status::dataLoss("batch stream: damaged frame header");
  }
  std::size_t pos = kFrameHeader.size();
  auto chunkId = parseUint(frame, pos);
  if (!chunkId || !skipChar(frame, pos, ' ')) {
    return Status::dataLoss("batch stream: damaged frame chunk id");
  }
  BatchResultFrame out;
  out.chunkId = static_cast<std::int32_t>(*chunkId);
  bool ok;
  if (frame.compare(pos, 3, "ok ") == 0) {
    ok = true;
    pos += 3;
  } else if (frame.compare(pos, 4, "err ") == 0) {
    ok = false;
    pos += 4;
  } else {
    return Status::dataLoss("batch stream: damaged frame disposition");
  }
  std::uint64_t code = 0;
  if (!ok) {
    auto parsed = parseUint(frame, pos);
    if (!parsed || !skipChar(frame, pos, ' ')) {
      return Status::dataLoss("batch stream: damaged frame error code");
    }
    code = *parsed;
  }
  auto len = parseUint(frame, pos);
  if (!len || !skipChar(frame, pos, '\n') || pos + *len != frame.size()) {
    return Status::dataLoss("batch stream: damaged frame length");
  }
  if (ok) {
    out.status = Status::ok();
    out.body = frame.substr(pos);
  } else {
    out.status = Status(static_cast<util::ErrorCode>(code), frame.substr(pos));
    if (out.status.isOk()) {
      // An error frame must not decode to OK (code damaged to 0).
      return Status::dataLoss("batch stream: error frame with ok code");
    }
  }
  return out;
}

}  // namespace qserv::core
