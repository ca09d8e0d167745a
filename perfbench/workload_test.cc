// Tests of the benchmark's own logic: seeded sequences, the tail
// percentile, and metric names (BENCHMARK.json's workload names are
// checked by test_contract.py). Exits non-zero on any failure.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "workload.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<std::string> sqlOf(const std::vector<perfbench::BenchQuery>& qs) {
  std::vector<std::string> out;
  for (const auto& q : qs) out.push_back(q.sql);
  return out;
}

void sameSeedSameSequence() {
  using namespace perfbench;
  std::vector<std::int64_t> ids(1000);
  std::iota(ids.begin(), ids.end(), 100);
  check(sqlOf(pointSequence(ids, 200, 7)) == sqlOf(pointSequence(ids, 200, 7)),
        "point: same seed, same SQL");
  check(sqlOf(scanSequence(30, 7)) == sqlOf(scanSequence(30, 7)),
        "scan: same seed, same SQL");
  check(sqlOf(exportSequence(50, 7)) == sqlOf(exportSequence(50, 7)),
        "export: same seed, same SQL");
  check(sqlOf(pointSequence(ids, 200, 7)) != sqlOf(pointSequence(ids, 200, 8)),
        "point: another seed, another sequence");
  check(sqlOf(scanSequence(30, 7)) != sqlOf(scanSequence(30, 8)),
        "scan: another seed, another sequence");
  check(sqlOf(exportSequence(50, 7)) != sqlOf(exportSequence(50, 8)),
        "export: another seed, another sequence");

  // Shapes: LV1/LV2 pairs on one id; scans rotate HV1, HV3, HV2; export
  // boxes stay 20 x 15 degrees inside the benchmark sky.
  auto point = pointSequence(ids, 50, 3);
  check(point.size() == 100, "point: two queries per id");
  for (std::size_t i = 0; i + 1 < point.size(); i += 2) {
    check(point[i].kind == QueryKind::kLv1 &&
              point[i + 1].kind == QueryKind::kLv2 &&
              point[i].objectId == point[i + 1].objectId,
          "point: LV1 then LV2 of the same id");
  }
  auto scans = scanSequence(6, 3);
  const QueryKind rotation[] = {QueryKind::kHv1, QueryKind::kHv3,
                                QueryKind::kHv2};
  for (std::size_t i = 0; i < scans.size(); ++i) {
    check(scans[i].kind == rotation[i % 3], "scan: HV1, HV3, HV2 rotation");
  }
  for (const auto& q : exportSequence(500, 3)) {
    check(std::fabs(q.box[2] - q.box[0] - kExportBoxRaDeg) < 1e-9 &&
              std::fabs(q.box[3] - q.box[1] - kExportBoxDeclDeg) < 1e-9 &&
              q.box[0] >= 0 &&
              q.box[2] <= 360 && q.box[1] >= -75.9 && q.box[3] <= 77.9,
          "export: box inside the benchmark sky: " + q.sql);
  }
}

void tailPercentile() {
  using perfbench::quantileSorted;
  using perfbench::tailRank;
  // 100 samples: rank 89 (p90) has exactly 10 samples beyond it.
  check(tailRank(100, 0.90) == 89, "p90 of 100 is rank 89");
  check(100 - 1 - tailRank(100, 0.90) == 10, "p90 of 100 leaves 10 beyond");
  // Higher percentiles are lowered to keep 10 samples beyond.
  check(tailRank(100, 0.99) == 89, "p99 of 100 falls back to rank 89");
  check(tailRank(30, 0.9) == 19, "30 samples: rank 19 (p66.7)");
  check(tailRank(11, 0.5) == 0, "11 samples: only rank 0 has 10 beyond");
  check(tailRank(10, 0.5) == -1, "10 samples: no rank has 10 beyond");
  check(tailRank(1000, 0.99) == 989, "p99 of 1000 is rank 989");
  check(tailRank(1000, 0.95) == 949, "p95 of 1000 is rank 949");

  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  check(quantileSorted(v, 0.5) == 50.0, "nearest-rank p50 of 1..100 is 50");
  check(quantileSorted(v, 0.9) == 90.0, "nearest-rank p90 of 1..100 is 90");
  check(v[tailRank(v.size(), 0.9)] == 90.0, "tail p90 value of 1..100 is 90");
  check(perfbench::median({3, 1, 2}) == 2.0, "odd median");
  check(perfbench::median({4, 1, 2, 3}) == 2.5, "even median");
}

void names() {
  using perfbench::validName;
  for (const auto& m : perfbench::kEndToEndMetrics) {
    check(validName(m.name), std::string("end-to-end metric ") + m.name);
  }
  for (const auto& m : perfbench::kLayerMetrics) {
    check(validName(m.name), std::string("per-layer metric ") + m.name);
  }
  check(!validName(""), "empty name rejected");
  check(!validName("_x"), "leading underscore rejected");
  check(!validName("p50 ms"), "space rejected");
  check(!validName("a/b"), "slash rejected");
  check(!validName(std::string(65, 'a')), "65 letters rejected");
  check(validName(std::string(64, 'a')), "64 letters accepted");
}

}  // namespace

int main() {
  sameSeedSameSequence();
  tailPercentile();
  names();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
