// Reproducible fixpoint benchmark: Best-Path fixpoint time, derivation
// throughput, and accounted memory peaks across node counts x ProvMode
// {none, condensed, full}. Seeds the perf trajectory for the rule-firing
// inner loop (the paper's Figures 4-6 are about making provenance cheap
// enough to leave on; this bench tracks whether our evaluator keeps up as
// networks grow).
//
// Writes a JSON report (default ./BENCH_fixpoint.json, i.e. the repo root
// when run from there) so CI can archive per-PR numbers. Every point and
// fault-axis row records the mean wall time of its runs and their spread
// (`wall_seconds_min`/`_max`); each run draws its own topology, so the
// spread is topology variance plus timing noise.
//
// Thread-count axis (the parallel sharded executor, ISSUE 7): none and
// condensed points repeat at threads in {1, 2, 4, hw} (deduped after
// resolving hw = hardware concurrency) with `speedup_vs_1t` relative to the
// same (n, mode) at one thread. Full mode pins itself sequential (the
// shared derivation arena and receive-side provenance-variable interning
// must stay in arrival order), so its points carry threads=1 only. The
// top-level `hw_threads` field records the machine the numbers came from —
// a 1-CPU host honestly reports ~1x speedups.
//
// Durable-store axis (ISSUE 9): each full-mode point repeats once with the
// on-disk offline archive enabled ("full+disk" rows, `archive: 1` in the
// JSON) and reports `archive_disk_bytes`, the page-log footprint summed
// over nodes. The arena's accounted peak rides along in every full point
// as mem_peak_bytes.prov_arena.
//
// Fault axis (ISSUE 10): a 50-node condensed fixture repeats under the
// ack/retransmit transport at uniform link loss in {0, 1%, 5%}
// (`fault_axis` rows in the JSON). Each row records the wall time, the
// virtual-time convergence instant (the real cost of loss — retransmission
// backoff runs on the virtual clock), and the retransmit overhead: frames
// resent per data frame delivered. The loss=0 row is the armed-but-idle
// transport, so the 1%/5% deltas isolate the faults from the ack machinery.
//
// Usage:
//   bench_fixpoint [--quick] [--out PATH]
//
//   --quick      node counts {10, 25, 50}, 1 run per point, threads {1, hw},
//                no 500-node point (CI smoke)
//   --out PATH   JSON output path (default BENCH_fixpoint.json)
//
// Environment knobs:
//   PROVNET_FIXPOINT_RUNS   repetitions per point (default 3; --quick: 1)
//   PROVNET_FIXPOINT_SEED   topology seed (default 20080407)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "apps/programs.h"
#include "core/engine.h"
#include "net/topology.h"
#include "obs/export.h"
#include "obs/mem.h"
#include "obs/profiler.h"
#include "util/logging.h"

using namespace provnet;

namespace {

struct Config {
  std::vector<size_t> node_counts = {10, 25, 50, 75, 100};
  // 0 = hardware concurrency; resolved and deduped in main().
  std::vector<size_t> thread_counts = {1, 2, 4, 0};
  size_t runs = 3;
  uint64_t seed = 20080407;
  std::string out_path = "BENCH_fixpoint.json";
  bool big_point = true;  // the 500-node condensed point (1 run)
};

struct Point {
  size_t n = 0;
  ProvMode mode = ProvMode::kNone;
  size_t threads = 1;
  bool archive = false;            // offline archive on disk (full mode)
  uint64_t archive_disk_bytes = 0; // page-log bytes summed over nodes
  size_t runs = 1;                 // runs averaged into this point
  double wall_seconds = 0.0;       // mean over runs
  double wall_min_s = 0.0;         // run-to-run spread of wall_seconds
  double wall_max_s = 0.0;
  double speedup_vs_1t = 1.0;      // wall(1 thread) / wall, same (n, mode)
  double derivations = 0.0;        // mean over runs
  double derivations_per_sec = 0.0;
  double join_candidates = 0.0;
  double events = 0.0;
  double messages = 0.0;
  double mbytes = 0.0;
  // From the point's last run (profiler + memory accounting enabled):
  // serial-commit share of the parallel executor's time, and per-subsystem
  // accounted peaks.
  double commit_serial_fraction = 0.0;
  uint64_t mem_peak[obs::kNumMemSubsystems] = {};
  uint64_t total_peak_bytes = 0;
};

// One row of the loss axis: the same Best-Path fixpoint with the reliable
// transport armed and a seeded uniform-loss plan on every link.
struct FaultPoint {
  size_t n = 0;
  double loss = 0.0;
  size_t runs = 1;
  double wall_seconds = 0.0;      // mean over runs
  double wall_min_s = 0.0;        // run-to-run spread of wall_seconds
  double wall_max_s = 0.0;
  double vt_converge_s = 0.0;     // virtual-time quiescence instant (mean)
  double derivations = 0.0;
  double messages = 0.0;          // data frames delivered
  double retransmits = 0.0;
  double acks = 0.0;
  double losses = 0.0;            // frames the injector dropped
  double retransmit_overhead = 0.0;  // retransmits per delivered data frame
};

EngineOptions OptionsFor(ProvMode mode, uint64_t seed, size_t threads) {
  EngineOptions opts;
  opts.seed = seed;
  opts.prov_mode = mode;
  opts.threads = threads;
  // Condensed/full annotations at tuple grain: the configuration the
  // incremental evaluator's restriction pruning needs (bench_churn's "prov"
  // variant), i.e. the cost of leaving provenance on.
  if (mode != ProvMode::kNone) opts.prov_grain = ProvGrain::kTuple;
  return opts;
}

Result<Point> RunPoint(size_t n, ProvMode mode, size_t threads, bool archive,
                       size_t runs, const Config& cfg) {
  Point point;
  point.n = n;
  point.mode = mode;
  point.threads = threads;
  point.archive = archive;
  point.runs = runs;
  const std::string archive_dir =
      archive ? "/tmp/provnet_bench_fixpoint_archive" : "";
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  for (size_t run = 0; run < runs; ++run) {
    // Per-run accounting window: peaks reported for a point belong to its
    // last run alone (tables/queues from the previous engine are released
    // when it dies; Reset clears the peak high-water marks).
    mem.Reset();
    mem.Enable();
    if (archive) {
      std::error_code ec;
      std::filesystem::remove_all(archive_dir, ec);  // fresh logs per run
    }
    Rng rng(cfg.seed + run * 1000003 + n);
    Topology topo = Topology::RingPlusRandom(n, /*outdegree=*/3, rng);
    EngineOptions opts = OptionsFor(mode, cfg.seed + run, threads);
    if (archive) {
      opts.record_offline = true;
      opts.archive_dir = archive_dir;
    }
    PROVNET_ASSIGN_OR_RETURN(
        std::unique_ptr<Engine> engine,
        Engine::Create(topo, BestPathNdlogProgram(), opts));
    engine->profiler().Enable();
    PROVNET_RETURN_IF_ERROR(engine->InsertLinkFacts());
    auto t0 = std::chrono::steady_clock::now();
    PROVNET_ASSIGN_OR_RETURN(RunStats stats, engine->Run());
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    point.wall_seconds += secs;
    point.wall_min_s = run == 0 ? secs : std::min(point.wall_min_s, secs);
    point.wall_max_s = std::max(point.wall_max_s, secs);
    point.derivations += static_cast<double>(stats.derivations);
    point.join_candidates += static_cast<double>(stats.join_candidates);
    point.events += static_cast<double>(stats.events);
    point.messages += static_cast<double>(stats.messages);
    point.mbytes += static_cast<double>(stats.bytes) / 1e6;
    if (run + 1 == runs) {
      point.commit_serial_fraction = engine->profiler().CommitSerialFraction();
      for (size_t i = 0; i < obs::kNumMemSubsystems; ++i) {
        point.mem_peak[i] =
            mem.PeakBytes(static_cast<obs::MemSubsystem>(i));
      }
      point.total_peak_bytes = mem.TotalPeakBytes();
      for (NodeId node = 0; node < engine->num_nodes(); ++node) {
        point.archive_disk_bytes +=
            engine->node(node).offline_store().DiskBytes();
      }
    }
  }
  if (archive) {
    std::error_code ec;
    std::filesystem::remove_all(archive_dir, ec);
  }
  double nruns = static_cast<double>(runs);
  point.wall_seconds /= nruns;
  point.derivations /= nruns;
  point.join_candidates /= nruns;
  point.events /= nruns;
  point.messages /= nruns;
  point.mbytes /= nruns;
  point.derivations_per_sec =
      point.wall_seconds > 0 ? point.derivations / point.wall_seconds : 0.0;
  return point;
}

uint64_t CounterValue(const Engine& engine, const char* name) {
  const obs::Counter* c = engine.metrics().FindCounter(name);
  return c != nullptr ? c->value : 0;
}

Result<FaultPoint> RunFaultPoint(size_t n, double loss, size_t runs,
                                 const Config& cfg) {
  FaultPoint point;
  point.n = n;
  point.loss = loss;
  point.runs = runs;
  for (size_t run = 0; run < runs; ++run) {
    Rng rng(cfg.seed + run * 1000003 + n);
    Topology topo = Topology::RingPlusRandom(n, /*outdegree=*/3, rng);
    EngineOptions opts =
        OptionsFor(ProvMode::kCondensed, cfg.seed + run, /*threads=*/1);
    // loss=0 still arms the ack/retransmit transport so the row measures
    // the idle transport, not the lossless fast path.
    opts.reliable_transport = true;
    if (loss > 0) opts.fault_plan = FaultPlan::UniformLoss(loss, cfg.seed + run);
    PROVNET_ASSIGN_OR_RETURN(
        std::unique_ptr<Engine> engine,
        Engine::Create(topo, BestPathNdlogProgram(), opts));
    PROVNET_RETURN_IF_ERROR(engine->InsertLinkFacts());
    auto t0 = std::chrono::steady_clock::now();
    PROVNET_ASSIGN_OR_RETURN(RunStats stats, engine->Run());
    auto t1 = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(t1 - t0).count();
    point.wall_seconds += secs;
    point.wall_min_s = run == 0 ? secs : std::min(point.wall_min_s, secs);
    point.wall_max_s = std::max(point.wall_max_s, secs);
    point.vt_converge_s += engine->network().now();
    point.derivations += static_cast<double>(stats.derivations);
    point.messages += static_cast<double>(stats.messages);
    point.retransmits +=
        static_cast<double>(CounterValue(*engine, "net.retransmits"));
    point.acks +=
        static_cast<double>(CounterValue(*engine, "net.acks_received"));
    point.losses += static_cast<double>(CounterValue(*engine, "faults.losses"));
  }
  double nruns = static_cast<double>(runs);
  point.wall_seconds /= nruns;
  point.vt_converge_s /= nruns;
  point.derivations /= nruns;
  point.messages /= nruns;
  point.retransmits /= nruns;
  point.acks /= nruns;
  point.losses /= nruns;
  point.retransmit_overhead =
      point.messages > 0 ? point.retransmits / point.messages : 0.0;
  return point;
}

bool WriteFile(const std::string& path, const std::string& body) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

void WriteJson(const Config& cfg, const std::vector<Point>& points,
               const std::vector<FaultPoint>& fault_points) {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("bench", "fixpoint")
      .Field("workload", "bestpath-ndlog")
      .Field("outdegree", 3)
      .Field("seed", cfg.seed)
      .Field("runs", uint64_t{cfg.runs})
      .Field("hw_threads",
             uint64_t{std::max(1u, std::thread::hardware_concurrency())});
  w.Key("points").BeginArray();
  for (const Point& p : points) {
    w.BeginObject()
        .Field("n", uint64_t{p.n})
        .Field("prov_mode", ProvModeName(p.mode))
        .Field("threads", uint64_t{p.threads})
        .Field("archive", uint64_t{p.archive ? 1u : 0u})
        .Field("archive_disk_bytes", p.archive_disk_bytes)
        .Field("runs", uint64_t{p.runs})
        .Field("wall_seconds", p.wall_seconds, "%.6f")
        .Field("wall_seconds_min", p.wall_min_s, "%.6f")
        .Field("wall_seconds_max", p.wall_max_s, "%.6f")
        .Field("speedup_vs_1t", p.speedup_vs_1t, "%.3f")
        .Field("derivations", p.derivations, "%.0f")
        .Field("derivations_per_sec", p.derivations_per_sec, "%.0f")
        .Field("join_candidates", p.join_candidates, "%.0f")
        .Field("events", p.events, "%.0f")
        .Field("messages", p.messages, "%.0f")
        .Field("mbytes", p.mbytes, "%.3f")
        .Field("commit_serial_fraction", p.commit_serial_fraction, "%.6f");
    w.Key("mem_peak_bytes").BeginObject();
    for (size_t i = 0; i < obs::kNumMemSubsystems; ++i) {
      w.Field(obs::MemSubsystemName(static_cast<obs::MemSubsystem>(i)),
              p.mem_peak[i]);
    }
    w.EndObject();
    w.Field("total_peak_bytes", p.total_peak_bytes);
    w.EndObject();
  }
  w.EndArray();
  w.Key("fault_axis").BeginArray();
  for (const FaultPoint& p : fault_points) {
    w.BeginObject()
        .Field("n", uint64_t{p.n})
        .Field("loss", p.loss, "%.3f")
        .Field("runs", uint64_t{p.runs})
        .Field("wall_seconds", p.wall_seconds, "%.6f")
        .Field("wall_seconds_min", p.wall_min_s, "%.6f")
        .Field("wall_seconds_max", p.wall_max_s, "%.6f")
        .Field("vt_converge_s", p.vt_converge_s, "%.4f")
        .Field("derivations", p.derivations, "%.0f")
        .Field("messages", p.messages, "%.0f")
        .Field("retransmits", p.retransmits, "%.1f")
        .Field("acks", p.acks, "%.1f")
        .Field("losses", p.losses, "%.1f")
        .Field("retransmit_overhead", p.retransmit_overhead, "%.4f")
        .EndObject();
  }
  w.EndArray().EndObject();
  std::printf("\n");
  WriteFile(cfg.out_path, w.Take() + "\n");
}

// One extra instrumented run at the largest node count: its full metrics
// snapshot and (sampled) trace stream are the per-PR observability
// artifacts CI archives next to the BENCH json.
Status WriteObsArtifacts(const Config& cfg) {
  size_t n = cfg.node_counts.back();
  Rng rng(cfg.seed + n);
  Topology topo = Topology::RingPlusRandom(n, /*outdegree=*/3, rng);
  PROVNET_ASSIGN_OR_RETURN(
      std::unique_ptr<Engine> engine,
      Engine::Create(topo, BestPathNdlogProgram(),
                     OptionsFor(ProvMode::kCondensed, cfg.seed,
                                /*threads=*/1)));
  engine->tracer().Enable(/*capacity=*/8192, /*sample_every=*/16);
  PROVNET_RETURN_IF_ERROR(engine->InsertLinkFacts());
  PROVNET_RETURN_IF_ERROR(engine->Run().status());
  WriteFile("OBS_fixpoint.json", obs::SnapshotJson(engine->metrics()));
  WriteFile("TRACE_fixpoint.jsonl", engine->tracer().ToJsonl());
  return OkStatus();
}

// PROF_fixpoint.json: wall-clock phase profile, lane utilization, and
// per-subsystem memory peaks for the two 100-node acceptance fixtures
// (condensed at full thread width, full pinned sequential). Written on
// every invocation, --quick included, so CI always archives it.
Status WriteProfArtifact(const Config& cfg) {
  const size_t n = 100;
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  struct Fixture {
    ProvMode mode;
    size_t threads;
  };
  // The condensed fixture runs at least 4 lanes even on small containers:
  // commit_serial_fraction and lane utilization are only meaningful when
  // the parallel executor actually splits work.
  const Fixture fixtures[] = {{ProvMode::kCondensed, std::max<size_t>(hw, 4)},
                              {ProvMode::kFull, 1}};

  obs::JsonWriter w;
  w.BeginObject()
      .Field("bench", "fixpoint_profile")
      .Field("workload", "bestpath-ndlog")
      .Field("seed", cfg.seed)
      .Field("hw_threads", uint64_t{hw});
  w.Key("fixtures").BeginArray();
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  for (const Fixture& fx : fixtures) {
    mem.Reset();
    mem.Enable();
    Rng rng(cfg.seed + n);
    Topology topo = Topology::RingPlusRandom(n, /*outdegree=*/3, rng);
    PROVNET_ASSIGN_OR_RETURN(
        std::unique_ptr<Engine> engine,
        Engine::Create(topo, BestPathNdlogProgram(),
                       OptionsFor(fx.mode, cfg.seed, fx.threads)));
    engine->profiler().Enable();
    PROVNET_RETURN_IF_ERROR(engine->InsertLinkFacts());
    PROVNET_RETURN_IF_ERROR(engine->Run().status());
    w.BeginObject()
        .Field("n", uint64_t{n})
        .Field("prov_mode", ProvModeName(fx.mode))
        .Field("threads", uint64_t{fx.threads});
    obs::WriteProfileFields(w, engine->profiler(), mem);
    w.EndObject();
  }
  w.EndArray().EndObject();
  WriteFile("PROF_fixpoint.json", w.Take() + "\n");
  return OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.node_counts = {10, 25, 50};
      cfg.thread_counts = {1, 0};
      cfg.runs = 1;
      cfg.big_point = false;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  if (const char* v = std::getenv("PROVNET_FIXPOINT_RUNS")) {
    cfg.runs = static_cast<size_t>(std::atoll(v));
    if (cfg.runs < 1) cfg.runs = 1;
  }
  if (const char* v = std::getenv("PROVNET_FIXPOINT_SEED")) {
    cfg.seed = static_cast<uint64_t>(std::atoll(v));
  }
  // Resolve hw (0) and dedup, preserving order: on a 1-core host {1,2,4,hw}
  // becomes {1,2,4}.
  size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> thread_axis;
  for (size_t t : cfg.thread_counts) {
    size_t resolved = t == 0 ? hw : t;
    if (std::find(thread_axis.begin(), thread_axis.end(), resolved) ==
        thread_axis.end()) {
      thread_axis.push_back(resolved);
    }
  }

  const ProvMode modes[] = {ProvMode::kNone, ProvMode::kCondensed,
                            ProvMode::kFull};
  std::printf("bench_fixpoint: Best-Path fixpoint, outdegree 3, %zu run(s) "
              "per point, hw threads %zu\n\n",
              cfg.runs, hw);
  std::printf("%5s %-10s %3s %12s %8s %14s %14s %12s %10s\n", "n", "prov",
              "thr", "wall s", "speedup", "derivations", "deriv/sec",
              "candidates", "MB");

  std::vector<Point> points;
  auto run_point = [&](size_t n, ProvMode mode, size_t threads, bool archive,
                       size_t runs) -> bool {
    Result<Point> point = RunPoint(n, mode, threads, archive, runs, cfg);
    if (!point.ok()) {
      std::fprintf(stderr, "point n=%zu mode=%s threads=%zu failed: %s\n", n,
                   ProvModeName(mode), threads,
                   point.status().ToString().c_str());
      return false;
    }
    Point p = point.value();
    for (const Point& base : points) {
      if (base.n == p.n && base.mode == p.mode && base.archive == p.archive &&
          base.threads == 1 && p.wall_seconds > 0) {
        p.speedup_vs_1t = base.wall_seconds / p.wall_seconds;
        break;
      }
    }
    std::string label = ProvModeName(p.mode);
    if (p.archive) label += "+disk";
    std::printf("%5zu %-10s %3zu %12.4f %8.2f %14.0f %14.0f %12.0f %10.3f\n",
                p.n, label.c_str(), p.threads, p.wall_seconds,
                p.speedup_vs_1t, p.derivations, p.derivations_per_sec,
                p.join_candidates, p.mbytes);
    points.push_back(p);
    return true;
  };

  for (size_t n : cfg.node_counts) {
    for (ProvMode mode : modes) {
      // Full mode pins itself sequential (shared derivation arena plus
      // receive-side provenance-variable interning must stay in arrival
      // order); its thread-axis repeats would measure the identical pinned
      // path. It runs twice instead: memory-resident, then with the
      // on-disk offline archive (the durable-store cost axis).
      size_t axis_len = mode == ProvMode::kFull ? 1 : thread_axis.size();
      for (size_t ti = 0; ti < axis_len; ++ti) {
        if (!run_point(n, mode, thread_axis[ti], /*archive=*/false, cfg.runs)) {
          return 1;
        }
      }
      if (mode == ProvMode::kFull &&
          !run_point(n, mode, /*threads=*/1, /*archive=*/true, cfg.runs)) {
        return 1;
      }
    }
  }
  if (cfg.big_point) {
    // The headline scale point: 500-node condensed Best-Path, one run per
    // thread count (ROADMAP item 1's "500-node networks become routine").
    for (size_t threads : thread_axis) {
      if (!run_point(500, ProvMode::kCondensed, threads, /*archive=*/false,
                     1)) {
        return 1;
      }
    }
  }

  // Fault axis: 50-node condensed fixture under the reliable transport at
  // uniform loss in {0, 1%, 5%} — convergence time and retransmit overhead.
  const double loss_axis[] = {0.0, 0.01, 0.05};
  std::vector<FaultPoint> fault_points;
  std::printf("\nfault axis: 50-node condensed, reliable transport, "
              "uniform loss\n");
  std::printf("%6s %12s %12s %12s %12s %10s %12s\n", "loss", "wall s",
              "vt conv s", "messages", "retransmits", "losses", "rtx/frame");
  for (double loss : loss_axis) {
    Result<FaultPoint> fp = RunFaultPoint(/*n=*/50, loss, cfg.runs, cfg);
    if (!fp.ok()) {
      std::fprintf(stderr, "fault point loss=%.2f failed: %s\n", loss,
                   fp.status().ToString().c_str());
      return 1;
    }
    const FaultPoint& p = fp.value();
    std::printf("%6.2f %12.4f %12.4f %12.0f %12.1f %10.1f %12.4f\n", p.loss,
                p.wall_seconds, p.vt_converge_s, p.messages, p.retransmits,
                p.losses, p.retransmit_overhead);
    fault_points.push_back(p);
  }

  WriteJson(cfg, points, fault_points);
  Status obs_status = WriteObsArtifacts(cfg);
  if (!obs_status.ok()) {
    std::fprintf(stderr, "obs artifacts failed: %s\n",
                 obs_status.ToString().c_str());
    return 1;
  }
  Status prof_status = WriteProfArtifact(cfg);
  if (!prof_status.ok()) {
    std::fprintf(stderr, "profile artifact failed: %s\n",
                 prof_status.ToString().c_str());
    return 1;
  }
  return 0;
}
