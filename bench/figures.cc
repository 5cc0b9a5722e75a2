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
// Writes BENCH_figures.json: each N's seconds (mean, min and max over the
// runs) and MB per variant, and at the largest N each Section 6 overhead
// with the paper's value and whether its shape holds (the variant costs
// more than its baseline, by at most twice the paper's overhead).
//
// Environment knobs:
//   PROVNET_BENCH_RUNS   repetitions per point (default 3)
//   PROVNET_BENCH_MAXN   largest N (default 100)
//   PROVNET_BENCH_STEP   N increment (default 10)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "apps/bestpath.h"
#include "net/topology.h"
#include "obs/export.h"
#include "util/logging.h"

namespace provnet {
namespace {

const char* const kVariantNames[3] = {"ndlog", "sendlog", "sendlog_prov"};

// Section 6's in-text overheads (%), averaged over the sweep and at N=100,
// indexed [figure: 0 time, 1 bandwidth][pair: 0 SeNDLog over NDLog,
// 1 SeNDLogProv over SeNDLog].
struct PaperOverhead {
  double avg;
  double at_100;
};
constexpr PaperOverhead kPaper[2][2] = {{{53, 44}, {41, 6}},
                                        {{36, 17}, {54, 10}}};

struct SweepPoint {
  size_t n = 0;
  double wall_seconds[3] = {0, 0, 0};  // indexed by Variant; mean over runs
  double wall_min[3] = {0, 0, 0};      // run-to-run spread of wall_seconds
  double wall_max[3] = {0, 0, 0};
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
        const double secs = result.value().stats.wall_seconds;
        point.wall_seconds[v] += secs;
        point.wall_min[v] = run == 0 ? secs : std::min(point.wall_min[v], secs);
        point.wall_max[v] = std::max(point.wall_max[v], secs);
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

double Metric(const SweepPoint& p, bool use_time, int v) {
  return use_time ? p.wall_seconds[v] : p.megabytes[v];
}

// Overhead of variant pair + 1 over variant pair, as a fraction.
double Overhead(const SweepPoint& p, bool use_time, int pair) {
  return Metric(p, use_time, pair + 1) / Metric(p, use_time, pair) - 1.0;
}

// Prints one figure's table, then the Section 6 in-text summary: average
// and at-max-N overheads of SeNDLog over NDLog and SeNDLogProv over
// SeNDLog.
void PrintFigure(const std::vector<SweepPoint>& points, bool use_time) {
  const std::string unit = use_time ? "(s)" : "(MB)";
  std::printf("\n=== Figure %d: Best-Path %s %s ===\n", use_time ? 3 : 4,
              use_time ? "query completion time" : "bandwidth utilization",
              unit.c_str());
  std::printf("%8s %14s %14s %16s %10s %10s\n", "N", ("NDLog" + unit).c_str(),
              ("SeNDLog" + unit).c_str(), ("SeNDLogProv" + unit).c_str(),
              "auth_ovh", "prov_ovh");
  double sum[2] = {0, 0};
  for (const SweepPoint& p : points) {
    for (int pair = 0; pair < 2; ++pair) {
      sum[pair] += Overhead(p, use_time, pair);
    }
    std::printf("%8zu %14.3f %14.3f %16.3f %9.0f%% %9.0f%%\n", p.n,
                Metric(p, use_time, 0), Metric(p, use_time, 1),
                Metric(p, use_time, 2), 100.0 * Overhead(p, use_time, 0),
                100.0 * Overhead(p, use_time, 1));
  }
  const SweepPoint& last = points.back();
  const PaperOverhead* paper = kPaper[use_time ? 0 : 1];
  std::printf("\nSection 6 summary (%s):\n", use_time ? "time" : "bandwidth");
  const char* const labels[2] = {"SeNDLog over NDLog:      ",
                                 "SeNDLogProv over SeNDLog:"};
  for (int pair = 0; pair < 2; ++pair) {
    std::printf("  %s avg %+.0f%%, at N=%zu %+.0f%%"
                "   (paper: avg +%.0f%%, at N=100 +%.0f%%)\n",
                labels[pair], 100.0 * sum[pair] / points.size(), last.n,
                100.0 * Overhead(last, use_time, pair), paper[pair].avg,
                paper[pair].at_100);
  }
}

void WriteJson(const SweepConfig& cfg, const std::vector<SweepPoint>& points) {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("bench", "figures")
      .Field("workload", "bestpath-random")
      .Field("outdegree", uint64_t{cfg.outdegree})
      .Field("seed", cfg.seed)
      .Field("runs", uint64_t{cfg.runs})
      .Field("hw_threads",
             uint64_t{std::max(1u, std::thread::hardware_concurrency())});
  w.Key("points").BeginArray();
  for (const SweepPoint& p : points) {
    w.BeginObject().Field("n", uint64_t{p.n});
    for (bool use_time : {true, false}) {
      w.Key(use_time ? "seconds" : "megabytes").BeginObject();
      for (int v = 0; v < 3; ++v) {
        w.Field(kVariantNames[v], Metric(p, use_time, v), "%.4f");
      }
      w.EndObject();
    }
    for (const auto& [key, spread] :
         {std::pair{"seconds_min", p.wall_min}, {"seconds_max", p.wall_max}}) {
      w.Key(key).BeginObject();
      for (int v = 0; v < 3; ++v) w.Field(kVariantNames[v], spread[v], "%.4f");
      w.EndObject();
    }
    w.EndObject();
  }
  w.EndArray();

  const SweepPoint& last = points.back();
  w.Key("overheads_at_max_n")
      .BeginObject()
      .Field("n", uint64_t{last.n})
      .Field("shape_rule",
             "measured_pct > 0 and measured_pct <= 2 * paper_pct_at_100");
  const char* const names[2][2] = {{"auth_time", "prov_time"},
                                   {"auth_bandwidth", "prov_bandwidth"}};
  for (int fig = 0; fig < 2; ++fig) {
    for (int pair = 0; pair < 2; ++pair) {
      const double measured = 100.0 * Overhead(last, fig == 0, pair);
      const double paper = kPaper[fig][pair].at_100;
      w.Key(names[fig][pair])
          .BeginObject()
          .Field("measured_pct", measured, "%.1f")
          .Field("paper_pct_at_100", paper, "%.0f")
          .Field("shape_holds", measured > 0 && measured <= 2 * paper)
          .EndObject();
    }
  }
  w.EndObject().EndObject();

  const std::string body = w.Take() + "\n";
  FILE* f = std::fopen("BENCH_figures.json", "w");
  PROVNET_CHECK(f != nullptr) << "cannot open BENCH_figures.json";
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("\nwrote BENCH_figures.json\n");
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
  provnet::WriteJson(cfg, points);
  return 0;
}
