/// \file workload.h
/// \brief Seeded query sequences and the latency statistics of the
/// wall-clock benchmark (see README.md in this directory).
///
/// Everything here is a pure function of its arguments: the same seed gives
/// the same SQL sequence, so two commits are measured on identical inputs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A reported metric: name and unit, as BENCHMARK.json lists them.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Reported with --trace 0, in this order.
inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"qps", "1/s"},          {"p50_ms", "ms"},      {"tail_ms", "ms"},
    {"cpu_ms_per_query", "ms"}, {"makespan_s", "s"}, {"peak_rss_mb", "MB"},
    {"setup_s", "s"},
};

/// Reported with --trace 1 (the traced run), in this order.
inline constexpr MetricSpec kLayerMetrics[] = {
    {"czar.parse_ms", "ms"},
    {"czar.analyze_ms", "ms"},
    {"czar.prune_ms", "ms"},
    {"czar.rewrite_ms", "ms"},
    {"czar.chunks", "count"},
    {"dispatch.wait_ms", "ms"},
    {"dispatch.first_result_ms", "ms"},
    {"dispatch.batches", "count"},
    {"dispatch.retries", "count"},
    {"dispatch.fallback_chunks", "count"},
    {"merger.merge_ms", "ms"},
    {"merger.finalize_ms", "ms"},
    {"merger.rows_merged", "count"},
    {"merger.decode_ms", "ms"},
    {"worker.execute_ms", "ms"},
    {"worker.encode_ms", "ms"},
    {"worker.rows_examined", "count"},
    {"worker.useful_row_ratio", "ratio"},
    {"worker.zone_map_prunes", "count"},
    {"worker.vector_rows_in", "count"},
    {"worker.scan_passes", "count"},
    {"worker.scan_join_ratio", "ratio"},
    {"worker.interactive_queue_wait_p50_ms", "ms"},
    {"worker.scan_queue_wait_p50_ms", "ms"},
    {"xrd.result_bytes", "bytes"},
    {"xrd.redirector.cache_hit_ratio", "ratio"},
    {"trace.coverage_pct", "%"},
    {"trace.wall_gap_pct", "%"},
    {"util.profile_overhead_pct", "%"},
    {"setup.generate_s", "s"},
    {"setup.cluster_s", "s"},
};

/// Query shapes, named after the paper's §6.2 query classes.
enum class QueryKind {
  kLv1,     ///< SELECT * FROM Object WHERE objectId = ?
  kLv2,     ///< Source time series of one objectId
  kHv1,     ///< full-sky COUNT(*) with a kernel flux predicate
  kHv2,     ///< full-sky red-outlier colour cut (fluxToAbMag residual)
  kHv3,     ///< full-sky GROUP BY chunkId with a fluxToAbMag residual
  kExport,  ///< 9-column projection over a qserv_areaspec_box region
};

const char* kindName(QueryKind kind);

struct BenchQuery {
  QueryKind kind = QueryKind::kLv1;
  std::string sql;
  /// The same query for a monolithic database: qserv_areaspec_box is a
  /// frontend pseudo-function, so the oracle gets the explicit box filter.
  std::string oracleSql;
  std::int64_t objectId = -1;     ///< kLv1 / kLv2
  double box[4] = {0, 0, 0, 0};   ///< kExport: raMin, declMin, raMax, declMax
};

/// Export regions: 20 x 15 degree boxes, kept inside the benchmark sky
/// region (declination -75.9 .. 77.9) so every box holds rows.
inline constexpr double kExportBoxRaDeg = 20.0;
inline constexpr double kExportBoxDeclDeg = 15.0;

/// LV1 then LV2 for each of \p pairs objectIds drawn uniformly (with
/// replacement) from \p ids.
std::vector<BenchQuery> pointSequence(std::span<const std::int64_t> ids,
                                      std::size_t pairs, std::uint64_t seed);

/// \p n full-sky scans rotating HV1, HV3, HV2 with seeded thresholds chosen
/// inside ranges where every query selects rows.
std::vector<BenchQuery> scanSequence(std::size_t n, std::uint64_t seed);

/// \p n export projections over seeded boxes.
std::vector<BenchQuery> exportSequence(std::size_t n, std::uint64_t seed);

/// Nearest-rank quantile of ascending \p sorted, q in (0, 1]. Precondition:
/// sorted is non-empty.
double quantileSorted(std::span<const double> sorted, double q);

/// Median of \p values (mean of the middle pair for even counts); 0 when
/// empty.
double median(std::vector<double> values);

/// The tail percentile actually reported for a sample of \p n values: the
/// requested \p q, lowered until at least \p beyond samples lie above the
/// reported rank. Returns the 0-based rank into the ascending sample; -1
/// when n <= beyond.
long tailRank(std::size_t n, double q, std::size_t beyond = 10);

/// Metric and workload names: non-empty, at most 64 of [A-Za-z0-9_.-],
/// starting with a letter or digit.
bool validName(std::string_view name);

}  // namespace perfbench
