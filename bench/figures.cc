// Reproduces Figures 3 and 4 from one sweep: the Best-Path query on random
// graphs of N = 10..100 nodes (mean out-degree 3) under NDLog / SeNDLog /
// SeNDLogProv, averaged over several runs (the paper used 10). Each run
// yields both metrics, so one sweep prints both tables:
//
//   Figure 3  query completion time (s);
//   Figure 4  total bandwidth (MB) across all nodes. Exact: every byte
//             enqueued on the simulated wire is counted, decomposed into
//             tuple payload, says authentication tags, and condensed-
//             provenance annotations.
//
// Absolute times differ from the paper (its testbed ran 100 P2 OS processes
// with OpenSSL on 2008 hardware); the claims under reproduction are the
// *shape*: all three curves grow superlinearly, SeNDLog sits above NDLog
// (per-tuple signing), SeNDLogProv sits above SeNDLog (condensed
// provenance), and the relative overheads shrink as N grows.
//
// Environment knobs:
//   PROVNET_BENCH_RUNS   repetitions per point (default 3)
//   PROVNET_BENCH_MAXN   largest N (default 100)
//   PROVNET_BENCH_STEP   N increment (default 10)

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/bestpath.h"
#include "net/topology.h"
#include "util/logging.h"

namespace provnet {
namespace {

struct SweepPoint {
  size_t n = 0;
  double wall_seconds[3] = {0, 0, 0};  // indexed by Variant
  double megabytes[3] = {0, 0, 0};
};

struct SweepConfig {
  size_t min_n = 10;
  size_t max_n = 100;
  size_t step = 10;
  size_t runs = 3;
  size_t outdegree = 3;
  uint64_t seed = 20080407;  // ICDE 2008 workshop date
};

SweepConfig ConfigFromEnv() {
  SweepConfig cfg;
  if (const char* v = std::getenv("PROVNET_BENCH_RUNS")) {
    cfg.runs = static_cast<size_t>(std::atoi(v));
  }
  if (const char* v = std::getenv("PROVNET_BENCH_MAXN")) {
    cfg.max_n = static_cast<size_t>(std::atoi(v));
  }
  if (const char* v = std::getenv("PROVNET_BENCH_STEP")) {
    cfg.step = static_cast<size_t>(std::atoi(v));
  }
  if (cfg.runs < 1) cfg.runs = 1;
  if (cfg.step < 1) cfg.step = 10;
  if (cfg.max_n < cfg.min_n) cfg.max_n = cfg.min_n;
  return cfg;
}

std::vector<SweepPoint> RunSweep(const SweepConfig& cfg) {
  std::vector<SweepPoint> points;
  for (size_t n = cfg.min_n; n <= cfg.max_n; n += cfg.step) {
    SweepPoint point;
    point.n = n;
    for (size_t run = 0; run < cfg.runs; ++run) {
      Rng rng(cfg.seed + run * 1000003 + n);
      Topology topo = Topology::RingPlusRandom(n, cfg.outdegree, rng);
      for (int v = 0; v < 3; ++v) {
        EngineOptions base;
        base.seed = cfg.seed + run;
        Result<BestPathRun> result =
            RunBestPath(topo, static_cast<Variant>(v), base);
        PROVNET_CHECK(result.ok()) << result.status();
        point.wall_seconds[v] += result.value().stats.wall_seconds;
        point.megabytes[v] +=
            static_cast<double>(result.value().stats.bytes) / (1024.0 * 1024.0);
      }
    }
    for (int v = 0; v < 3; ++v) {
      point.wall_seconds[v] /= static_cast<double>(cfg.runs);
      point.megabytes[v] /= static_cast<double>(cfg.runs);
    }
    points.push_back(point);
    std::fprintf(stderr, "  swept N=%zu\n", n);
  }
  return points;
}

// Prints one figure's table, then the Section 6 in-text summary: average
// and at-max-N overheads of SeNDLog over NDLog and SeNDLogProv over
// SeNDLog.
void PrintFigure(const std::vector<SweepPoint>& points, bool use_time) {
  auto metric = [use_time](const SweepPoint& p, int v) {
    return use_time ? p.wall_seconds[v] : p.megabytes[v];
  };
  const std::string unit = use_time ? "(s)" : "(MB)";
  std::printf("\n=== Figure %d: Best-Path %s %s ===\n", use_time ? 3 : 4,
              use_time ? "query completion time" : "bandwidth utilization",
              unit.c_str());
  std::printf("%8s %14s %14s %16s %10s %10s\n", "N", ("NDLog" + unit).c_str(),
              ("SeNDLog" + unit).c_str(), ("SeNDLogProv" + unit).c_str(),
              "auth_ovh", "prov_ovh");
  double sum_auth = 0, sum_prov = 0;
  for (const SweepPoint& p : points) {
    double auth = metric(p, 1) / metric(p, 0) - 1.0;
    double prov = metric(p, 2) / metric(p, 1) - 1.0;
    sum_auth += auth;
    sum_prov += prov;
    std::printf("%8zu %14.3f %14.3f %16.3f %9.0f%% %9.0f%%\n", p.n,
                metric(p, 0), metric(p, 1), metric(p, 2), 100.0 * auth,
                100.0 * prov);
  }
  const SweepPoint& last = points.back();
  std::printf("\nSection 6 summary (%s):\n", use_time ? "time" : "bandwidth");
  std::printf("  SeNDLog over NDLog:       avg %+.0f%%, at N=%zu %+.0f%%"
              "   (paper: avg +%s, at N=100 +%s)\n",
              100.0 * sum_auth / points.size(), last.n,
              100.0 * (metric(last, 1) / metric(last, 0) - 1.0),
              use_time ? "53%" : "36%", use_time ? "44%" : "17%");
  std::printf("  SeNDLogProv over SeNDLog: avg %+.0f%%, at N=%zu %+.0f%%"
              "   (paper: avg +%s, at N=100 +%s)\n",
              100.0 * sum_prov / points.size(), last.n,
              100.0 * (metric(last, 2) / metric(last, 1) - 1.0),
              use_time ? "41%" : "54%", use_time ? "6%" : "10%");
}

}  // namespace
}  // namespace provnet

int main() {
  provnet::SweepConfig cfg = provnet::ConfigFromEnv();
  std::printf("workload: random graph, mean out-degree %zu, %zu run(s) per "
              "point\n",
              cfg.outdegree, cfg.runs);
  std::vector<provnet::SweepPoint> points = provnet::RunSweep(cfg);
  provnet::PrintFigure(points, /*use_time=*/true);
  provnet::PrintFigure(points, /*use_time=*/false);
  return 0;
}
