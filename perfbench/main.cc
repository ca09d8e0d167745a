/// \file main.cc
/// \brief Closed-loop wall-clock benchmark of an in-process Qserv cluster.
///
///   qserv_perfbench --workload point|scan|export|mixed --seed N
///                   --seconds S --trace 0|1
///
/// Builds the benchmark sky and a 4-worker MiniCluster, runs an untimed
/// warm-up, then a fixed seeded query sequence sized to take about S
/// seconds, and prints one JSON line: end-to-end metrics with --trace 0, the
/// per-layer breakdown of the traced run with --trace 1. A seeded sample of
/// the workload's queries is then checked against a monolithic oracle
/// database. README.md in this directory explains every metric.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "datagen/schemas.h"
#include "layers.h"
#include "qserv/cluster.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace core = qserv::core;
namespace sql = qserv::sql;
namespace datagen = qserv::datagen;
using qserv::util::Stopwatch;

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: qserv_perfbench --workload "
               "point|scan|export|mixed --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (key == "--seconds") {
      a.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end != '\0' || a.seconds < 1 || a.seconds > 600) {
        usage("--seconds takes an integer in [1, 600]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else {
      usage(("unknown option " + key).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// ------------------------------------------------------------ deployment

/// Setups per run; setup_s and the setup.* layers report their median.
constexpr int kSetups = 3;
/// The timed phase is split into this many equal-work blocks.
constexpr int kBlocks = 5;

/// The benchmark sky: the paper geometry (85 x 12 stripes) over the non-polar
/// bands the figure benches use, Sources in an equatorial patch.
struct Deployment {
  datagen::PartitionedCatalog data;
  std::unique_ptr<core::MiniCluster> cluster;
  double generateSeconds = 0.0;
  double clusterSeconds = 0.0;
};

std::unique_ptr<Deployment> deploy() {
  auto d = std::make_unique<Deployment>();
  core::CatalogConfig catalog = core::CatalogConfig::lsst();
  core::SkyDataOptions data;
  data.basePatchObjects = 900;
  data.withSources = true;
  data.region = qserv::sphgeom::SphericalBox(0.0, -75.9, 360.0, 77.9);
  data.sourceRegion = qserv::sphgeom::SphericalBox(0.0, -7.0, 90.0, 7.0);
  // Enough red outliers that every HV2-style cut selects rows.
  data.basePatch.redOutlierFraction = 3e-3;
  Stopwatch watch;
  auto generated = core::buildSkyCatalog(catalog, data);
  if (!generated.isOk()) {
    std::fprintf(stderr, "catalog: %s\n",
                 generated.status().toString().c_str());
    std::exit(1);
  }
  d->data = std::move(generated).value();
  d->generateSeconds = watch.elapsedSeconds();

  // Library defaults (batched dispatch, default transfer format) except the
  // scheduler: under FIFO, mixed-workload point queries convoy behind queued
  // scan chunks and their latency swings by 10x between runs.
  core::ClusterOptions options;
  options.numWorkers = 4;
  options.worker.slots = 2;
  options.worker.scheduler = core::SchedulerMode::kSharedScan;
  options.frontend.catalog = catalog;
  watch.reset();
  auto cluster = core::MiniCluster::create(options, d->data);
  if (!cluster.isOk()) {
    std::fprintf(stderr, "cluster: %s\n", cluster.status().toString().c_str());
    std::exit(1);
  }
  d->cluster = std::move(cluster).value();
  d->clusterSeconds = watch.elapsedSeconds();
  d->cluster->frontend().setProfilingEnabled(false);
  return d;
}

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ workloads

struct Plan {
  int clients = 1;  ///< closed-loop foreground clients
  /// Foreground sequence. With a background sequence it is a pool the
  /// clients cycle through until the background finishes.
  std::vector<BenchQuery> fg;
  std::vector<BenchQuery> bg;  ///< mixed: one client's scan sequence
  std::vector<BenchQuery> warmFg, warmBg;
  double tailQ = 0.9;
};

/// Sequence lengths come from rates measured on a 4-core x86 VM, so that a
/// run measures roughly --seconds of work (scans take about twice that: 45
/// of them are needed before a tail percentile has 10 samples beyond it).
/// The length is fixed by the arguments alone, never by a clock.
Plan makePlan(const Args& a, std::span<const std::int64_t> ids) {
  const std::uint64_t warmSeed = a.seed ^ 0x5741524dULL;
  const auto s = static_cast<std::size_t>(a.seconds);
  // Scans come in whole HV1/HV3/HV2 rotations, the same mix in every block.
  const std::size_t rotations = 3 * kBlocks;
  const std::size_t scans =
      rotations * std::max<std::size_t>(1, (3 * s + 5) / 10);
  Plan p;
  if (a.workload == "point") {
    // Clients = cores: with one client, latency tracks host wake-up jitter.
    p.clients = 4;
    p.fg = pointSequence(ids, 3000 * s, a.seed);
    p.warmFg = pointSequence(ids, 1500, warmSeed);
    p.tailQ = 0.95;
  } else if (a.workload == "scan") {
    p.clients = 1;
    p.fg = scanSequence(scans, a.seed);
    p.warmFg = scanSequence(3, warmSeed);
    p.tailQ = 0.99;  // capped by the sample: p77.8 for 45 scans
  } else if (a.workload == "export") {
    p.clients = 2;
    p.fg = exportSequence(60 * s, a.seed);
    p.warmFg = exportSequence(20, warmSeed);
    p.tailQ = 0.9;
  } else if (a.workload == "mixed") {
    // One rotation per block. Point clients cycle through their pool.
    p.clients = 3;
    p.bg = scanSequence(rotations * std::max<std::size_t>(1, s / 10), a.seed);
    p.fg = pointSequence(ids, 20000, a.seed);
    p.warmBg = scanSequence(3, warmSeed);
    p.warmFg = pointSequence(ids, 5000, warmSeed);
    p.tailQ = 0.9;
  } else {
    usage(("unknown workload " + a.workload).c_str());
  }
  return p;
}

// ------------------------------------------------------------ correctness

/// Cheap per-query invariants checked on every timed query.
class Invariants {
 public:
  explicit Invariants(const datagen::PartitionedCatalog& data) {
    for (const auto& chunk : data.chunks) {
      auto col = chunk.sources->schema().indexOf("objectId");
      if (!col) continue;
      for (std::size_t r = 0; r < chunk.sources->numRows(); ++r) {
        ++sourceCounts_[chunk.sources->cell(r, *col).asInt()];
      }
    }
  }

  /// Checks \p t and counts a violation when it fails.
  bool holds(const BenchQuery& q, const sql::Table& t) const {
    if (check(q, t)) return true;
    violations_.fetch_add(1);
    std::fprintf(stderr, "invariant broken: %s\n", q.sql.c_str());
    return false;
  }

  std::size_t violations() const { return violations_.load(); }

 private:
  bool check(const BenchQuery& q, const sql::Table& t) const {
    switch (q.kind) {
      case QueryKind::kLv1: {
        auto col = t.schema().indexOf("objectId");
        return t.numRows() == 1 && col &&
               t.cell(0, *col).isInt() && t.cell(0, *col).asInt() == q.objectId;
      }
      case QueryKind::kLv2: {
        auto it = sourceCounts_.find(q.objectId);
        std::size_t expect = it == sourceCounts_.end() ? 0 : it->second;
        return t.numRows() == expect && t.numColumns() == 5;
      }
      case QueryKind::kHv1:
        return t.numRows() == 1 && t.cell(0, 0).isNumeric() &&
               t.cell(0, 0).toDouble() > 0;
      case QueryKind::kHv3:
        if (t.numRows() == 0) return false;
        for (std::size_t r = 0; r < t.numRows(); ++r) {
          if (!t.cell(r, 0).isNumeric() || t.cell(r, 0).toDouble() <= 0) {
            return false;
          }
        }
        return true;
      case QueryKind::kHv2:
        return t.numRows() > 0 && t.numColumns() == 9;
      case QueryKind::kExport: {
        if (t.numRows() == 0 || t.numColumns() != 9) return false;
        const double eps = 1e-9;
        for (std::size_t r = 0; r < t.numRows(); ++r) {
          double ra = t.cell(r, 1).toDouble(), decl = t.cell(r, 2).toDouble();
          if (ra < q.box[0] - eps || ra > q.box[2] + eps ||
              decl < q.box[1] - eps || decl > q.box[3] + eps) {
            return false;
          }
        }
        return true;
      }
    }
    return false;
  }

  std::unordered_map<std::int64_t, std::size_t> sourceCounts_;
  mutable std::atomic<std::size_t> violations_{0};
};

/// Row-order-free comparison with a relative tolerance on doubles (partial
/// aggregates are summed in a different order than on one database).
bool sameResult(const sql::Table& a, const sql::Table& b) {
  if (a.numRows() != b.numRows() || a.numColumns() != b.numColumns()) {
    return false;
  }
  auto sortedRows = [](const sql::Table& t) {
    std::vector<std::pair<std::string, std::vector<sql::Value>>> rows;
    rows.reserve(t.numRows());
    for (std::size_t r = 0; r < t.numRows(); ++r) {
      std::vector<sql::Value> row = t.row(r);
      std::string key;
      char buf[64];
      for (const sql::Value& v : row) {
        if (v.isDouble()) {
          std::snprintf(buf, sizeof buf, "%.9g|", v.asDouble());
          key += buf;
        } else {
          key += v.toSqlLiteral() + "|";
        }
      }
      rows.emplace_back(std::move(key), std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    return rows;
  };
  auto ra = sortedRows(a), rb = sortedRows(b);
  for (std::size_t r = 0; r < ra.size(); ++r) {
    for (std::size_t c = 0; c < a.numColumns(); ++c) {
      const sql::Value& x = ra[r].second[c];
      const sql::Value& y = rb[r].second[c];
      if (x.isDouble() || y.isDouble()) {
        if (!x.isNumeric() || !y.isNumeric()) return false;
        double dx = x.toDouble(), dy = y.toDouble();
        double scale = std::max(std::fabs(dx), std::fabs(dy));
        if (std::fabs(dx - dy) > 1e-9 * scale) {
          return false;
        }
      } else if (!(x == y)) {
        return false;
      }
    }
  }
  return true;
}

/// Run a seeded sample of the workload's queries on the cluster and on one
/// monolithic database holding every row, and compare the answers.
bool oracleCheck(Deployment& d, const Plan& plan, std::uint64_t seed) {
  sql::Database oracle("oracle");
  auto object = std::make_shared<sql::Table>("Object", datagen::objectSchema());
  auto source = std::make_shared<sql::Table>("Source", datagen::sourceSchema());
  for (const auto& chunk : d.data.chunks) {
    for (std::size_t r = 0; r < chunk.objects->numRows(); ++r) {
      if (!object->appendRow(chunk.objects->row(r)).isOk()) return false;
    }
    for (std::size_t r = 0; r < chunk.sources->numRows(); ++r) {
      if (!source->appendRow(chunk.sources->row(r)).isOk()) return false;
    }
  }
  if (!oracle.registerTable(object).isOk() ||
      !oracle.registerTable(source).isOk() ||
      !oracle.createIndex("Object", "objectId").isOk() ||
      !oracle.createIndex("Source", "objectId").isOk()) {
    return false;
  }

  // Every scan shape once (one rotation), and a seeded sample of the cheap
  // shapes.
  qserv::util::Rng rng(seed ^ 0x4f5241434c45ULL);
  std::vector<const BenchQuery*> sample;
  for (const auto* seq : {&plan.fg, &plan.bg}) {
    if (seq->empty()) continue;
    const bool scan = (*seq)[0].kind == QueryKind::kHv1;
    for (std::size_t i = 0; i < (scan ? 3 : 24); ++i) {
      sample.push_back(&(*seq)[scan ? i : rng.below(seq->size())]);
    }
  }

  bool ok = true;
  for (const BenchQuery* q : sample) {
    auto got = d.cluster->frontend().query(q->sql);
    auto want = oracle.execute(q->oracleSql);
    if (!got.isOk() || !want.isOk() || !got->result ||
        !sameResult(*got->result, **want)) {
      std::fprintf(stderr, "oracle mismatch (%s): %s\n", kindName(q->kind),
                   q->sql.c_str());
      ok = false;
    }
  }
  std::fprintf(stderr, "oracle check: %zu queries, %s\n", sample.size(),
               ok ? "all equal" : "MISMATCH");
  return ok;
}

// ------------------------------------------------------------ load

struct Outcome {
  bool ok = false;
  double ms = 0.0;
};
using RunFn = std::function<Outcome(const BenchQuery&, bool foreground)>;

struct BlockStats {
  double wallS = 0, cpuS = 0, bgWallS = 0;
  std::size_t fg = 0, bg = 0;
};

struct PhaseStats {
  std::vector<double> fgMs;            ///< foreground latencies
  std::vector<std::vector<double>> blockFgMs;
  std::vector<BlockStats> blocks;
  std::size_t attempted = 0, failed = 0;
};

/// Closed loop: each client issues its next query when the previous one
/// completes. Without a background sequence, clients share the fixed
/// foreground sequence; with one, a single client runs it while the others
/// cycle through the foreground pool until it finishes. Blocks end at a
/// barrier so each block's rate is measured on a fixed amount of work.
PhaseStats runPhase(const Plan& plan, const std::vector<BenchQuery>& fg,
                    const std::vector<BenchQuery>& bg, int blocks,
                    const RunFn& run,
                    const std::function<void(int)>& beforeBlock = nullptr) {
  PhaseStats out;
  std::atomic<std::size_t> failed{0};
  std::size_t poolNext = 0;  // mixed: where the next block resumes the pool
  const std::size_t total = bg.empty() ? fg.size() : bg.size();
  for (int b = 0; b < blocks; ++b) {
    if (beforeBlock) beforeBlock(b);
    const std::size_t lo = total * b / blocks, hi = total * (b + 1) / blocks;
    std::atomic<std::size_t> next{bg.empty() ? lo : poolNext};
    std::atomic<bool> bgDone{bg.empty()};
    std::vector<std::vector<double>> lat(plan.clients);
    BlockStats st;
    const double cpu0 = cpuSeconds();
    Stopwatch wall;
    std::thread bgThread;
    if (!bg.empty()) {
      bgThread = std::thread([&] {
        Stopwatch bgWall;
        for (std::size_t i = lo; i < hi; ++i) {
          if (!run(bg[i], false).ok) failed.fetch_add(1);
        }
        st.bgWallS = bgWall.elapsedSeconds();
        bgDone.store(true);
      });
    }
    std::vector<std::thread> clients;
    for (int c = 0; c < plan.clients; ++c) {
      clients.emplace_back([&, c] {
        for (;;) {
          std::size_t i;
          if (bg.empty()) {
            i = next.fetch_add(1);
            if (i >= hi) break;
          } else {
            if (bgDone.load()) break;
            i = next.fetch_add(1) % fg.size();
          }
          Outcome o = run(fg[i], true);
          if (!o.ok) failed.fetch_add(1);
          lat[c].push_back(o.ms);
        }
      });
    }
    for (auto& t : clients) t.join();
    if (bgThread.joinable()) bgThread.join();
    st.wallS = wall.elapsedSeconds();
    st.cpuS = cpuSeconds() - cpu0;
    std::vector<double> blockMs;
    for (auto& l : lat) blockMs.insert(blockMs.end(), l.begin(), l.end());
    st.fg = blockMs.size();
    st.bg = hi - (bg.empty() ? hi : lo);
    if (!bg.empty()) poolNext = next.load() % fg.size();
    out.attempted += st.fg + st.bg;
    out.fgMs.insert(out.fgMs.end(), blockMs.begin(), blockMs.end());
    out.blockFgMs.push_back(std::move(blockMs));
    out.blocks.push_back(st);
  }
  out.failed = failed.load();
  return out;
}

RunFn frontendRunner(core::QservFrontend& frontend, const Invariants& inv) {
  return [&frontend, &inv](const BenchQuery& q, bool) {
    Stopwatch watch;
    auto r = frontend.query(q.sql);
    Outcome o;
    o.ms = watch.elapsedMillis();
    if (!r.isOk()) {
      std::fprintf(stderr, "query failed: %s: %s\n", q.sql.c_str(),
                   r.status().toString().c_str());
      return o;
    }
    o.ok = r->result && inv.holds(q, *r->result);
    return o;
  };
}

// ------------------------------------------------------------ output

/// Metric values by name; printResult emits them in spec order.
using Values = std::map<std::string, double>;

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 std::span<const MetricSpec> specs, const Values& values) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    auto it = values.find(specs[i].name);
    if (it == values.end() || !validName(specs[i].name)) {
      std::fprintf(stderr, "internal error: metric %s not measured\n",
                   specs[i].name);
      std::exit(3);
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g",
                  std::isfinite(it->second) ? it->second : 0.0);
    if (i > 0) json += ", ";
    json += std::string("\"") + specs[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

double sortedTail(std::vector<double> v, double q, double* effectiveQ) {
  std::sort(v.begin(), v.end());
  long k = tailRank(v.size(), q);
  if (k < 0) k = static_cast<long>(v.size()) - 1;
  if (effectiveQ) {
    *effectiveQ = static_cast<double>(k + 1) / static_cast<double>(v.size());
  }
  return v.empty() ? 0.0 : v[static_cast<std::size_t>(k)];
}

/// Latency at quantile \p q as the median over blocks of each block's own
/// value, so a host disturbance confined to a minority of blocks does not
/// move it. Falls back to the pooled sample (with its tail cap) when a block
/// has fewer than 10 samples beyond its rank.
double blockLatency(const PhaseStats& ph, double q, double* effectiveQ) {
  std::vector<double> perBlock;
  for (const auto& ms : ph.blockFgMs) {
    if (static_cast<double>(ms.size()) * (1.0 - q) < 10.0 && q > 0.5) {
      return sortedTail(ph.fgMs, q, effectiveQ);
    }
    std::vector<double> sorted = ms;
    std::sort(sorted.begin(), sorted.end());
    perBlock.push_back(sorted.empty() ? 0.0 : quantileSorted(sorted, q));
  }
  if (effectiveQ) *effectiveQ = q;
  return median(perBlock);
}

// ------------------------------------------------------------ runs

Values endToEnd(const Plan& plan, const PhaseStats& ph, double setupS) {
  std::vector<double> qps, cpuMs;
  double makespan = 0;
  for (const BlockStats& b : ph.blocks) {
    qps.push_back(static_cast<double>(b.fg) / b.wallS);
    cpuMs.push_back(1e3 * b.cpuS / static_cast<double>(b.fg + b.bg));
    makespan += plan.bg.empty() ? b.wallS : b.bgWallS;
    std::fprintf(stderr,
                 "  block: %.3f s, %zu fg + %zu bg, %.1f qps, %.4f cpu ms/q\n",
                 b.wallS, b.fg, b.bg, qps.back(), cpuMs.back());
  }
  double q = 0;
  const double tail = blockLatency(ph, plan.tailQ, &q);
  std::fprintf(stderr, "%zu foreground queries, tail at p%.2f, %zu blocks\n",
               ph.fgMs.size(), 100 * q, ph.blocks.size());
  for (double cand : {0.75, 0.9, 0.95, 0.99}) {
    std::fprintf(stderr, "  candidate p%g: %.4f ms\n", 100 * cand,
                 blockLatency(ph, cand, nullptr));
  }
  return {
      {"qps", median(qps)},
      {"p50_ms", blockLatency(ph, 0.5, nullptr)},
      {"tail_ms", tail},
      {"cpu_ms_per_query", median(cpuMs)},
      {"makespan_s", makespan},
      {"peak_rss_mb", peakRssMb()},
      {"setup_s", setupS},
  };
}

/// The traced run: per-layer metrics from driving each layer from outside.
Values traced(Deployment& d, const Plan& plan, const Invariants& inv,
              std::uint64_t seed, std::size_t& attempted, std::size_t& failed,
              bool& coverageOk) {
  core::QservFrontend& frontend = d.cluster->frontend();
  auto& registry = qserv::util::MetricsRegistry::instance();

  // Profiling overhead: the frontend with profiling on and off in
  // alternating blocks of the same sequence; the off blocks double as the
  // untraced baseline of the wall gap.
  const int overheadBlocks = 6;
  PhaseStats alt = runPhase(
      plan, plan.fg, plan.bg, overheadBlocks, frontendRunner(frontend, inv),
      [&](int b) { frontend.setProfilingEnabled(b % 2 == 1); });
  frontend.setProfilingEnabled(false);
  std::vector<double> offMs, onMs;
  for (int b = 0; b < overheadBlocks; ++b) {
    auto& dst = b % 2 == 1 ? onMs : offMs;
    dst.insert(dst.end(), alt.blockFgMs[b].begin(), alt.blockFgMs[b].end());
  }
  const double offP50 = median(offMs), onP50 = median(onMs);

  // The driven pass, with the registry zeroed so its counters and
  // histograms cover exactly this pass.
  registry.reset();
  LayerRunner runner(*d.cluster);
  RunFn driven = [&](const BenchQuery& q, bool foreground) {
    Stopwatch watch;
    auto r = runner.run(q.sql, foreground);
    Outcome o{false, watch.elapsedMillis()};
    if (!r.isOk()) {
      std::fprintf(stderr, "driven query failed: %s: %s\n", q.sql.c_str(),
                   r.status().toString().c_str());
      return o;
    }
    o.ok = *r && inv.holds(q, **r);
    return o;
  };
  PhaseStats ph = runPhase(plan, plan.fg, plan.bg, kBlocks, driven);
  const qserv::util::MetricsSnapshot snap = registry.snapshot();
  attempted = alt.attempted + ph.attempted;
  failed = alt.failed + ph.failed;

  // Layer means over the foreground queries (the scans of mixed are its
  // background), so each mean sits beside the workload's latency metrics.
  std::vector<LayerTimes> recs;
  for (const LayerTimes& t : runner.records()) {
    if (t.foreground) recs.push_back(t);
  }
  const double n = std::max<double>(1.0, static_cast<double>(recs.size()));
  LayerTimes sum;  // field-wise sums over the foreground queries
  double prune = 0, layerSum = 0, wallSum = 0;
  std::vector<double> drivenMs;
  for (const LayerTimes& t : recs) {
    sum.parse += t.parse;
    sum.analyze += t.analyze;
    sum.rewrite += t.rewrite;
    sum.mergeSelf += t.mergeSelf;
    sum.dispatchWall += t.dispatchWall;
    sum.firstResult += t.firstResult;
    sum.finalize += t.finalize;
    sum.chunks += t.chunks;
    sum.batches += t.batches;
    sum.fallbackChunks += t.fallbackChunks;
    sum.rowsMerged += t.rowsMerged;
    sum.resultBytes += t.resultBytes;
    sum.rowsExamined += t.rowsExamined;
    sum.rowsReturned += t.rowsReturned;
    prune += t.prune();
    layerSum += t.layerSum();
    wallSum += t.wall();
    drivenMs.push_back(t.wall());
  }
  auto perQuery = [n](auto total) { return static_cast<double>(total) / n; };
  const double coverage = wallSum > 0 ? 100.0 * layerSum / wallSum : 0.0;
  coverageOk = std::fabs(coverage - 100.0) <= 10.0;
  const double drivenP50 = median(drivenMs);
  const double gapPct = offP50 > 0 ? 100.0 * (drivenP50 - offP50) / offP50 : 0;

  // Worker-side replay of a seeded sample of the sequence's chunk queries.
  qserv::util::Rng rng(seed ^ 0x5245504cULL);
  const std::vector<BenchQuery>& replaySeq = plan.fg;
  const std::size_t replayQueries = std::min<std::size_t>(12, replaySeq.size());
  ReplayTimes replay;
  for (std::size_t i = 0; i < replayQueries; ++i) {
    const BenchQuery& q = replaySeq[rng.below(replaySeq.size())];
    auto r = replayChunkQueries(*d.cluster, q.sql, 16, rng());
    if (!r.isOk()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   r.status().toString().c_str());
      ++failed;
      continue;
    }
    replay.execute += r->execute / static_cast<double>(replayQueries);
    replay.encode += r->encode / static_cast<double>(replayQueries);
    replay.decode += r->decode / static_cast<double>(replayQueries);
  }

  auto counter = [&](const char* name) -> double {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto hist = [&](const char* name) {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? qserv::util::Histogram::Snapshot{}
                                       : it->second;
  };
  const double allQueries = std::max<double>(1.0, ph.attempted);
  const double lookups = counter("xrd.redirector.lookups");
  const double scanTasks = static_cast<double>(
      hist("worker.scan_queue_wait_seconds").count);

  std::fprintf(stderr,
               "traced: %zu driven queries, layers cover %.1f%% of driven "
               "wall, driven p50 %.3f ms vs frontend p50 %.3f ms (gap "
               "%+.1f%%), profiling on p50 %.3f ms\n",
               recs.size(), coverage, drivenP50, offP50, gapPct, onP50);
  return {
      {"czar.parse_ms", perQuery(sum.parse)},
      {"czar.analyze_ms", perQuery(sum.analyze)},
      {"czar.prune_ms", perQuery(prune)},
      {"czar.rewrite_ms", perQuery(sum.rewrite)},
      {"czar.chunks", perQuery(sum.chunks)},
      {"dispatch.wait_ms", perQuery(sum.dispatchWall - sum.mergeSelf)},
      {"dispatch.first_result_ms", perQuery(sum.firstResult)},
      {"dispatch.batches", perQuery(sum.batches)},
      // Totals over the driven pass: both must read 0.
      {"dispatch.retries",
       counter("dispatch.retries") + counter("dispatch.batch_chunk_retries")},
      {"dispatch.fallback_chunks", static_cast<double>(sum.fallbackChunks)},
      {"merger.merge_ms", perQuery(sum.mergeSelf)},
      {"merger.finalize_ms", perQuery(sum.finalize)},
      {"merger.rows_merged", perQuery(sum.rowsMerged)},
      {"merger.decode_ms", replay.decode},
      {"worker.execute_ms", replay.execute},
      {"worker.encode_ms", replay.encode},
      {"worker.rows_examined", perQuery(sum.rowsExamined)},
      {"worker.useful_row_ratio",
       sum.rowsExamined > 0 ? static_cast<double>(sum.rowsReturned) /
                                  static_cast<double>(sum.rowsExamined)
                            : 0.0},
      {"worker.zone_map_prunes",
       counter("worker.zone_map_prunes") / allQueries},
      {"worker.vector_rows_in", counter("worker.vector_rows_in") / allQueries},
      {"worker.scan_passes", counter("worker.scan_passes") / allQueries},
      {"worker.scan_join_ratio",
       scanTasks > 0 ? counter("worker.scan_joins") / scanTasks : 0.0},
      {"worker.interactive_queue_wait_p50_ms",
       1e3 * hist("worker.interactive_queue_wait_seconds").p50},
      {"worker.scan_queue_wait_p50_ms",
       1e3 * hist("worker.scan_queue_wait_seconds").p50},
      {"xrd.result_bytes", perQuery(sum.resultBytes)},
      {"xrd.redirector.cache_hit_ratio",
       lookups > 0 ? counter("xrd.redirector.cache_hits") / lookups : 0.0},
      {"trace.coverage_pct", coverage},
      {"trace.wall_gap_pct", gapPct},
      {"util.profile_overhead_pct",
       offP50 > 0 ? 100.0 * (onP50 - offP50) / offP50 : 0.0},
  };
}

int benchMain(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);

  std::vector<double> setupS, generateS, clusterS;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();  // one deployment alive at a time
    d = deploy();
    generateS.push_back(d->generateSeconds);
    clusterS.push_back(d->clusterSeconds);
    setupS.push_back(d->generateSeconds + d->clusterSeconds);
  }
  std::vector<std::int64_t> ids;
  ids.reserve(d->data.index.size());
  for (const auto& e : d->data.index) ids.push_back(e.objectId);
  const Plan plan = makePlan(args, ids);
  const Invariants inv(d->data);
  std::fprintf(stderr,
               "%s: %zu chunks, %zu objects, setup median %.3f s, %zu "
               "foreground / %zu background queries\n",
               args.workload.c_str(), d->data.chunks.size(), ids.size(),
               median(setupS), plan.fg.size(), plan.bg.size());

  core::QservFrontend& frontend = d->cluster->frontend();
  PhaseStats warm = runPhase(plan, plan.warmFg, plan.warmBg, 1,
                             frontendRunner(frontend, inv));
  if (warm.failed > 0) {
    std::fprintf(stderr, "warm-up: %zu of %zu queries failed\n", warm.failed,
                 warm.attempted);
  }

  Values values;
  std::size_t attempted = 0, failed = 0;
  bool coverageOk = true;
  if (!args.trace) {
    PhaseStats ph = runPhase(plan, plan.fg, plan.bg, kBlocks,
                             frontendRunner(frontend, inv));
    attempted = ph.attempted;
    failed = ph.failed;
    // Read before the oracle exists, so its memory stays out of the metric.
    values = endToEnd(plan, ph, median(setupS));
  } else {
    values = traced(*d, plan, inv, args.seed, attempted, failed, coverageOk);
    values["setup.generate_s"] = median(generateS);
    values["setup.cluster_s"] = median(clusterS);
  }
  failed += warm.failed;
  attempted += warm.attempted;

  const bool oracleOk = oracleCheck(*d, plan, args.seed);
  for (const auto& [name, value] : values) {
    std::fprintf(stderr, "  %-40s %14.6g\n", name.c_str(), value);
  }
  const bool correct = oracleOk && coverageOk && inv.violations() == 0;
  if (args.trace) {
    printResult(correct, attempted, failed, kLayerMetrics, values);
  } else {
    printResult(correct, attempted, failed, kEndToEndMetrics, values);
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::benchMain(argc, argv); }
