#include "qserv/observables_codec.h"

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <type_traits>

#include "util/strings.h"

namespace qserv::core {

namespace {
constexpr std::string_view kMarker = "-- QSERV-OBS ";

/// Parse "<key><value><end>" at \p pos, advancing past it. The value must
/// start with a digit (no sign, space, nan or inf) and fit its type; a
/// double must also be finite.
template <typename T>
bool parseField(std::string_view line, std::size_t& pos, std::string_view key,
                char end, T& out) {
  if (line.substr(pos, key.size()) != key) return false;
  const char* first = line.data() + pos + key.size();
  const char* last = line.data() + line.size();
  if (first == last || *first < '0' || *first > '9') return false;
  auto [ptr, ec] = std::from_chars(first, last, out);
  if (ec != std::errc() || ptr == last || *ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(out)) return false;
  }
  pos = static_cast<std::size_t>(ptr - line.data()) + 1;
  return true;
}
}  // namespace

std::string encodeObservables(const simio::WorkObservables& w) {
  return util::format(
      "-- QSERV-OBS bytes=%.0f rows=%" PRIu64 " pairs=%" PRIu64
      " match=%" PRIu64 " built=%" PRIu64 " idx=%" PRIu64
      " rbytes=%.0f rrows=%" PRIu64 "\n",
      w.bytesScanned, w.rowsExamined, w.pairsEvaluated, w.joinMatches,
      w.rowsBuilt, w.indexLookups, w.resultBytes, w.resultRows);
}

std::optional<simio::WorkObservables> decodeObservables(
    std::string_view dump) {
  std::size_t start = dump.rfind(kMarker);
  if (start == std::string_view::npos) return std::nullopt;
  std::string_view line = dump.substr(start + kMarker.size());
  std::size_t pos = 0;
  simio::WorkObservables w;
  if (!parseField(line, pos, "bytes=", ' ', w.bytesScanned) ||
      !parseField(line, pos, "rows=", ' ', w.rowsExamined) ||
      !parseField(line, pos, "pairs=", ' ', w.pairsEvaluated) ||
      !parseField(line, pos, "match=", ' ', w.joinMatches) ||
      !parseField(line, pos, "built=", ' ', w.rowsBuilt) ||
      !parseField(line, pos, "idx=", ' ', w.indexLookups) ||
      !parseField(line, pos, "rbytes=", ' ', w.resultBytes) ||
      !parseField(line, pos, "rrows=", '\n', w.resultRows)) {
    return std::nullopt;
  }
  return w;
}

}  // namespace qserv::core
