/// \file bench_transfer.cc
/// \brief Ablation — result-transfer format (§5.4 / §7.1).
///
/// "Using mysqldump introduces overheads, but is the only user-level method
/// provided by MySQL to transfer tables between database servers. ... its
/// costs in speed, disk, network, and database transactions are strong
/// motivations to explore a more efficient method." This bench runs the
/// same row-heavy full-sky query with the paper's SQL-dump transfer and
/// with the binary row codec, comparing shipped bytes, real wall time, and
/// the modeled serialized collect stage on the master.
#include <cstdio>

#include "bench_util.h"
#include "util/metrics.h"

namespace {

using namespace qserv;
using namespace qserv::bench;

struct TransferResult {
  double resultBytes = 0;
  double collectSec = 0;
  double wallMs = 0;
  std::uint64_t rows = 0;
};

TransferResult runWith(core::TransferFormat format) {
  PaperSetupOptions opts;
  opts.basePatchObjects = 900;
  opts.workerConfig.transfer = format;
  PaperSetup setup = makePaperSetup(opts);

  // A row-heavy retrieval: every object in a band (lots of result traffic).
  auto exec = runQuery(setup,
                       "SELECT objectId, ra_PS, decl_PS, uFlux_PS, gFlux_PS, "
                       "rFlux_PS, iFlux_PS, zFlux_PS, yFlux_PS FROM Object "
                       "WHERE decl_PS BETWEEN -2 AND 2");
  TransferResult out;
  out.wallMs = exec.wallSeconds * 1e3;
  out.rows = exec.rowsMerged;
  simio::CostParams params = simio::CostParams::paper150();
  // INSERT-text replay costs ~2 us/row of master CPU; binary decode ~0.2 us.
  params.resultPerRowOverheadSec =
      format == core::TransferFormat::kBinary ? 2e-7 : 2e-6;
  for (const auto& a : exec.accounting) {
    out.resultBytes += a.observables.resultBytes;
    out.collectSec += simio::masterCollectSeconds(a.observables, params);
  }
  return out;
}

}  // namespace

int main() {
  printBanner("Ablation — mysqldump-style vs binary result transfer",
              "§5.4 Query Results Transfer; §7.1 Latency",
              "binary codec cuts shipped bytes and master replay time");

  auto dump = runWith(core::TransferFormat::kSqlDump);
  auto binary = runWith(core::TransferFormat::kBinary);

  std::printf("\n  %-22s %16s %14s %12s\n", "format", "paper-scale bytes",
              "collect s", "wall ms");
  std::printf("  %-22s %16s %14.1f %12.0f\n", "SQL dump (paper)",
              util::humanBytes(dump.resultBytes).c_str(), dump.collectSec,
              dump.wallMs);
  std::printf("  %-22s %16s %14.1f %12.0f\n", "binary column codec",
              util::humanBytes(binary.resultBytes).c_str(), binary.collectSec,
              binary.wallMs);
  if (dump.rows != binary.rows) {
    std::fprintf(stderr, "row-count mismatch between formats!\n");
    return 1;
  }
  std::printf("\n");
  double bytesRatio = dump.resultBytes / binary.resultBytes;
  double collectSpeedup = dump.collectSec / binary.collectSec;
  printKeyValue("rows merged (identical)",
                util::format("%llu", (unsigned long long)dump.rows));
  printKeyValue("bytes saved", util::format("%.1fx", bytesRatio));
  printKeyValue("modeled master collect speedup",
                util::format("%.1fx", collectSpeedup));

  auto& reg = util::MetricsRegistry::instance();
  reg.gauge("bench.transfer.bytes_ratio_x100")
      .set(static_cast<std::int64_t>(bytesRatio * 100));
  reg.gauge("bench.transfer.collect_speedup_x100")
      .set(static_cast<std::int64_t>(collectSpeedup * 100));

  // Speedup floors: the binary codec must keep paying for itself.
  int violations = 0;
  if (bytesRatio < 2.0) {
    std::fprintf(stderr, "GATE: binary codec saves only %.2fx bytes (need "
                 ">= 2x)\n", bytesRatio);
    ++violations;
  }
  if (collectSpeedup < 2.0) {
    std::fprintf(stderr, "GATE: modeled collect speedup only %.2fx (need "
                 ">= 2x)\n", collectSpeedup);
    ++violations;
  }
  return violations == 0 ? 0 : 1;
}
