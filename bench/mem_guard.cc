// mem_guard: the CI memory-regression tripwire.
//
// Runs a fixed guard fixture — 50-node ring+random Best-Path at one thread,
// fixed seed — with per-subsystem memory accounting enabled, and compares
// the accounted total peak (obs::MemAccounting::TotalPeakBytes) against the
// checked-in baseline. The accounted total is deterministic at one thread
// (allocation order is canonical), unlike process RSS, so the guard has no
// flake margin to eat: a >20% growth over baseline fails the build and
// forces the regression (or a deliberate baseline bump) into review.
//
// Three fixtures cover the three memory regimes:
//   condensed — the lean path (prov_annotations dominates);
//   full      — the durable-store path: the derivation arena and
//               offline-archive pages carry the footprint, so regressions
//               in prov_arena / archive_pages trip here;
//   pointers  — the forensic path: SeNDlog Best-Path with HMAC says,
//               pointer provenance and the in-memory archive, so the online
//               provenance store (online_records) carries the footprint.
//
// Usage:
//   mem_guard [--fixture condensed|full|pointers] [--baseline PATH]
//             [--write-baseline] [--tolerance PCT]
//
//   --fixture NAME    guard fixture (default condensed)
//   --baseline PATH   baseline JSON (default bench/baselines/
//                     MEM_fixpoint_50_<fixture>.json, i.e. run from the
//                     repo root)
//   --write-baseline  write the measured numbers to the baseline path and
//                     exit 0 (how the baseline gets bumped deliberately)
//   --tolerance PCT   allowed growth in percent (default 20)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "apps/programs.h"
#include "core/engine.h"
#include "net/topology.h"
#include "obs/export.h"
#include "obs/mem.h"
#include "util/logging.h"

using namespace provnet;

namespace {

constexpr size_t kNodes = 50;
constexpr uint64_t kSeed = 20080407;

struct Measurement {
  uint64_t total_peak_bytes = 0;
  uint64_t per_subsystem[obs::kNumMemSubsystems] = {};
};

Result<Measurement> RunGuardFixture(const std::string& fixture) {
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  mem.Reset();
  mem.Enable();

  Rng rng(kSeed + kNodes);
  Topology topo = Topology::RingPlusRandom(kNodes, /*outdegree=*/3, rng);
  EngineOptions opts;
  opts.seed = kSeed;
  opts.threads = 1;
  const std::string* program = &BestPathNdlogProgram();
  if (fixture == "pointers") {
    program = &BestPathSendlogProgram();
    opts.authenticate = true;
    opts.says_level = SaysLevel::kHmac;
    opts.prov_mode = ProvMode::kPointers;
  } else {
    opts.prov_mode =
        fixture == "full" ? ProvMode::kFull : ProvMode::kCondensed;
    opts.prov_grain = ProvGrain::kTuple;
  }
  // The full and pointers fixtures archive offline records (memory-resident
  // pages), so the archive_pages subsystem is part of what they watch.
  opts.record_offline = fixture != "condensed";
  PROVNET_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                           Engine::Create(topo, *program, opts));
  PROVNET_RETURN_IF_ERROR(engine->InsertLinkFacts());
  PROVNET_RETURN_IF_ERROR(engine->Run().status());

  Measurement m;
  m.total_peak_bytes = mem.TotalPeakBytes();
  for (size_t i = 0; i < obs::kNumMemSubsystems; ++i) {
    m.per_subsystem[i] = mem.PeakBytes(static_cast<obs::MemSubsystem>(i));
  }
  return m;
}

std::string MeasurementJson(const Measurement& m, const std::string& fixture) {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("fixture", "fixpoint_50_" + fixture + "_t1")
      .Field("seed", kSeed)
      .Field("total_peak_bytes", m.total_peak_bytes);
  w.Key("peak_bytes").BeginObject();
  for (size_t i = 0; i < obs::kNumMemSubsystems; ++i) {
    w.Field(obs::MemSubsystemName(static_cast<obs::MemSubsystem>(i)),
            m.per_subsystem[i]);
  }
  w.EndObject().EndObject();
  return w.Take() + "\n";
}

// Minimal field extraction: the baseline is machine-written by
// --write-baseline, so "  \"total_peak_bytes\": N" appears verbatim.
bool ParseBaselineTotal(const std::string& body, uint64_t* out) {
  const std::string key = "\"total_peak_bytes\": ";
  size_t pos = body.find(key);
  if (pos == std::string::npos) return false;
  *out = std::strtoull(body.c_str() + pos + key.size(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fixture = "condensed";
  std::string baseline_path;
  bool write_baseline = false;
  double tolerance_pct = 20.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fixture") == 0 && i + 1 < argc) {
      fixture = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--write-baseline") == 0) {
      write_baseline = true;
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      tolerance_pct = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--fixture condensed|full|pointers] "
                   "[--baseline PATH] [--write-baseline] [--tolerance PCT]\n",
                   argv[0]);
      return 2;
    }
  }
  if (fixture != "condensed" && fixture != "full" && fixture != "pointers") {
    std::fprintf(stderr, "mem_guard: unknown fixture '%s'\n", fixture.c_str());
    return 2;
  }
  if (baseline_path.empty()) {
    baseline_path = "bench/baselines/MEM_fixpoint_50_" + fixture + ".json";
  }

  Result<Measurement> measured = RunGuardFixture(fixture);
  if (!measured.ok()) {
    std::fprintf(stderr, "mem_guard fixture failed: %s\n",
                 measured.status().ToString().c_str());
    return 1;
  }
  const Measurement& m = measured.value();
  std::printf("mem_guard: fixture n=%zu %s threads=1 "
              "total_peak_bytes=%llu\n",
              kNodes, fixture.c_str(), (unsigned long long)m.total_peak_bytes);
  for (size_t i = 0; i < obs::kNumMemSubsystems; ++i) {
    if (m.per_subsystem[i] == 0) continue;
    std::printf("  %-18s %llu\n",
                obs::MemSubsystemName(static_cast<obs::MemSubsystem>(i)),
                (unsigned long long)m.per_subsystem[i]);
  }

  if (write_baseline) {
    FILE* f = std::fopen(baseline_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   baseline_path.c_str());
      return 1;
    }
    std::string body = MeasurementJson(m, fixture);
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote baseline %s\n", baseline_path.c_str());
    return 0;
  }

  FILE* f = std::fopen(baseline_path.c_str(), "r");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "mem_guard: no baseline at %s (run with --write-baseline)\n",
                 baseline_path.c_str());
    return 1;
  }
  std::string body;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, got);
  std::fclose(f);

  uint64_t baseline = 0;
  if (!ParseBaselineTotal(body, &baseline) || baseline == 0) {
    std::fprintf(stderr, "mem_guard: malformed baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }

  double growth_pct =
      100.0 * (double(m.total_peak_bytes) - double(baseline)) /
      double(baseline);
  std::printf("mem_guard: baseline=%llu measured=%llu growth=%+.2f%% "
              "(tolerance %.0f%%)\n",
              (unsigned long long)baseline,
              (unsigned long long)m.total_peak_bytes, growth_pct,
              tolerance_pct);
  if (growth_pct > tolerance_pct) {
    std::fprintf(stderr,
                 "mem_guard: FAIL — accounted peak grew %.2f%% over the "
                 "checked-in baseline (limit %.0f%%). If the growth is "
                 "intentional, refresh the baseline with --write-baseline "
                 "and commit it.\n",
                 growth_pct, tolerance_pct);
    return 1;
  }
  std::printf("mem_guard: OK\n");
  return 0;
}
