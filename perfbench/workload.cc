#include "workload.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "util/rng.h"

namespace perfbench {
namespace {

// Per-sequence salts, so the point, scan and export streams of one seed are
// independent of each other.
constexpr std::uint64_t kPointSalt = 0x706f696e74ULL;
constexpr std::uint64_t kScanSalt = 0x7363616e00ULL;
constexpr std::uint64_t kExportSalt = 0x6578706f7274ULL;

constexpr const char* kNineColumns =
    "objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, rFlux_PS, iFlux_PS, "
    "zFlux_PS, yFlux_PS";

std::string format(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, fmt, args...);
  return buf;
}

/// AB magnitude -> flux, as the catalog generator defines it.
double magToFlux(double mag) { return std::pow(10.0, -(mag + 48.6) / 2.5); }

/// Round to \p decimals so the value printed into SQL is the value kept.
double rounded(double v, int decimals) {
  double scale = std::pow(10.0, decimals);
  return std::round(v * scale) / scale;
}

}  // namespace

const char* kindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kLv1: return "LV1";
    case QueryKind::kLv2: return "LV2";
    case QueryKind::kHv1: return "HV1";
    case QueryKind::kHv2: return "HV2";
    case QueryKind::kHv3: return "HV3";
    case QueryKind::kExport: return "export";
  }
  return "?";
}

std::vector<BenchQuery> pointSequence(std::span<const std::int64_t> ids,
                                      std::size_t pairs, std::uint64_t seed) {
  std::vector<BenchQuery> out;
  if (ids.empty()) return out;
  qserv::util::Rng rng(seed ^ kPointSalt);
  out.reserve(2 * pairs);
  for (std::size_t i = 0; i < pairs; ++i) {
    std::int64_t id = ids[rng.below(ids.size())];
    BenchQuery lv1;
    lv1.kind = QueryKind::kLv1;
    lv1.objectId = id;
    lv1.sql = format("SELECT * FROM Object WHERE objectId = %lld",
                     static_cast<long long>(id));
    lv1.oracleSql = lv1.sql;
    BenchQuery lv2;
    lv2.kind = QueryKind::kLv2;
    lv2.objectId = id;
    lv2.sql = format(
        "SELECT taiMidPoint, fluxToAbMag(psfFlux), fluxToAbMag(psfFluxErr), "
        "ra, decl FROM Source WHERE objectId = %lld",
        static_cast<long long>(id));
    lv2.oracleSql = lv2.sql;
    out.push_back(std::move(lv1));
    out.push_back(std::move(lv2));
  }
  return out;
}

std::vector<BenchQuery> scanSequence(std::size_t n, std::uint64_t seed) {
  qserv::util::Rng rng(seed ^ kScanSalt);
  std::vector<BenchQuery> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    BenchQuery q;
    switch (i % 3) {
      case 0:
        // r-band magnitudes span 16..27, so a g-band cut at 19..25 mag
        // keeps a large, varying fraction of every chunk.
        q.kind = QueryKind::kHv1;
        q.sql = format("SELECT COUNT(*) FROM Object WHERE gFlux_PS > %.6e",
                       magToFlux(rounded(rng.uniform(19.0, 25.0), 2)));
        break;
      case 1:
        q.kind = QueryKind::kHv3;
        q.sql = format(
            "SELECT COUNT(*) AS n, AVG(ra_PS), AVG(decl_PS), chunkId "
            "FROM Object WHERE fluxToAbMag(rFlux_PS) < %.2f GROUP BY chunkId",
            rounded(rng.uniform(20.0, 26.0), 2));
        break;
      default:
        // Red outliers carry i-z >= ~3.2; ordinary colours stay below 1.5.
        q.kind = QueryKind::kHv2;
        q.sql = format(
            "SELECT %s FROM Object "
            "WHERE fluxToAbMag(iFlux_PS) - fluxToAbMag(zFlux_PS) > %.2f",
            kNineColumns, rounded(rng.uniform(2.5, 3.1), 2));
        break;
    }
    q.oracleSql = q.sql;
    out.push_back(std::move(q));
  }
  return out;
}

std::vector<BenchQuery> exportSequence(std::size_t n, std::uint64_t seed) {
  qserv::util::Rng rng(seed ^ kExportSalt);
  std::vector<BenchQuery> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    BenchQuery q;
    q.kind = QueryKind::kExport;
    double ra = rounded(rng.uniform(0.0, 360.0 - kExportBoxRaDeg), 2);
    double decl = rounded(rng.uniform(-75.0, 77.0 - kExportBoxDeclDeg), 2);
    q.box[0] = ra;
    q.box[1] = decl;
    q.box[2] = rounded(ra + kExportBoxRaDeg, 2);
    q.box[3] = rounded(decl + kExportBoxDeclDeg, 2);
    q.sql = format(
        "SELECT %s FROM Object WHERE qserv_areaspec_box(%.2f, %.2f, %.2f, "
        "%.2f)",
        kNineColumns, q.box[0], q.box[1], q.box[2], q.box[3]);
    q.oracleSql = format(
        "SELECT %s FROM Object WHERE qserv_ptInSphericalBox(ra_PS, decl_PS, "
        "%.2f, %.2f, %.2f, %.2f) = 1",
        kNineColumns, q.box[0], q.box[1], q.box[2], q.box[3]);
    out.push_back(std::move(q));
  }
  return out;
}

double quantileSorted(std::span<const double> sorted, double q) {
  const std::size_t n = sorted.size();
  long k = static_cast<long>(std::ceil(q * static_cast<double>(n) - 1e-9)) - 1;
  k = std::clamp<long>(k, 0, static_cast<long>(n) - 1);
  return sorted[static_cast<std::size_t>(k)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

long tailRank(std::size_t n, double q, std::size_t beyond) {
  if (n <= beyond) return -1;
  long k = static_cast<long>(std::ceil(q * static_cast<double>(n) - 1e-9)) - 1;
  long cap = static_cast<long>(n - 1 - beyond);
  return std::clamp<long>(k, 0, cap);
}

bool validName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

}  // namespace perfbench
