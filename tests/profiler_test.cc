// Execution profiler, memory accounting, and cross-node causal traces
// (ISSUE 8): the observability additions must be *free* when off and
// *invisible* to the golden artifacts when on.
//
// The oracles:
//   * unit      - phase/lane accumulation, commit_serial_fraction, the
//     memory gauges' add/sub/peak discipline (the online provenance store
//     charges what it holds and releases it; an engine without
//     record_offline charges no archive page), and the trace.dropped_spans
//     counter;
//   * golden    - the full observability stack (profiler + memory accounting
//     + span recording) enabled vs. disabled leaves fixpoints, metric
//     snapshots, default-format trace streams, and RunStats byte-identical,
//     across ProvModes and thread counts;
//   * cost      - the disabled profiler/memory hooks price out under 2% of
//     a 50-node fixpoint's wall time;
//   * causality - a distributed ProvQuery walk's spans from three or more
//     nodes share one trace id and form a single connected tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "core/engine.h"
#include "net/topology.h"
#include "obs/export.h"
#include "obs/mem.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "query/provquery.h"

namespace provnet {
namespace {

// --- Profiler unit ----------------------------------------------------------

TEST(ProfilerTest, PhaseAndLaneAccumulation) {
  obs::Profiler prof;
  // Disabled: Scope must record nothing.
  {
    obs::Profiler::Scope scope(prof, obs::Phase::kFixpoint);
  }
  EXPECT_EQ(prof.PhaseNs(obs::Phase::kFixpoint), 0u);
  EXPECT_EQ(prof.PhaseCount(obs::Phase::kFixpoint), 0u);

  prof.Enable();
  prof.AddPhase(obs::Phase::kParallelCompute, 800);
  prof.AddPhase(obs::Phase::kCommitReplay, 200);
  prof.AddLane(0, 500);
  prof.AddLane(1, 300);
  prof.AddLane(1, 100);

  EXPECT_EQ(prof.PhaseNs(obs::Phase::kParallelCompute), 800u);
  EXPECT_EQ(prof.PhaseNs(obs::Phase::kCommitReplay), 200u);
  EXPECT_EQ(prof.num_lanes(), 2u);
  EXPECT_EQ(prof.LaneNs(0), 500u);
  EXPECT_EQ(prof.LaneNs(1), 400u);
  // commit / (parallel + commit).
  EXPECT_DOUBLE_EQ(prof.CommitSerialFraction(), 0.2);
  EXPECT_DOUBLE_EQ(prof.LaneUtilization(0), 500.0 / 800.0);

  {
    obs::Profiler::Scope scope(prof, obs::Phase::kVerify);
  }
  EXPECT_EQ(prof.PhaseCount(obs::Phase::kVerify), 1u);

  prof.Reset();
  EXPECT_EQ(prof.PhaseNs(obs::Phase::kParallelCompute), 0u);
  EXPECT_EQ(prof.num_lanes(), 0u);
  EXPECT_DOUBLE_EQ(prof.CommitSerialFraction(), 0.0);
}

// --- Memory accounting unit -------------------------------------------------

TEST(MemAccountingTest, GaugesTrackCurrentAndPeak) {
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  mem.Reset();

  // Disabled hooks are no-ops.
  mem.Disable();
  mem.Add(obs::MemSubsystem::kTableRows, 100);
  EXPECT_EQ(mem.CurrentBytes(obs::MemSubsystem::kTableRows), 0u);

  mem.Enable();
  mem.Add(obs::MemSubsystem::kTableRows, 300);
  mem.Add(obs::MemSubsystem::kTableRows, 200);
  mem.Sub(obs::MemSubsystem::kTableRows, 400);
  mem.Add(obs::MemSubsystem::kBddNodes, 50);
  EXPECT_EQ(mem.CurrentBytes(obs::MemSubsystem::kTableRows), 100u);
  EXPECT_EQ(mem.PeakBytes(obs::MemSubsystem::kTableRows), 500u);
  EXPECT_EQ(mem.TotalPeakBytes(), 550u);

  std::string summary = mem.PeakSummary();
  EXPECT_NE(summary.find("table_rows=500"), std::string::npos);
  EXPECT_NE(summary.find("bdd_nodes=50"), std::string::npos);
  EXPECT_EQ(summary.find("network_queues"), std::string::npos);

  mem.Reset();
  mem.Disable();
  EXPECT_EQ(mem.TotalPeakBytes(), 0u);
}

// The online provenance store charges what it holds and releases it on
// Clear() and on destruction.
TEST(MemAccountingTest, OnlineRecordsAreChargedAndReleased) {
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  mem.Reset();
  mem.Enable();
  auto run = [] {
    EngineOptions opts;
    opts.authenticate = true;
    opts.says_level = SaysLevel::kHmac;
    opts.prov_mode = ProvMode::kPointers;
    Rng rng(7);
    Topology topo = Topology::RingPlusRandom(12, 3, rng);
    auto engine = Engine::Create(topo, BestPathSendlogProgram(), opts).value();
    EXPECT_TRUE(engine->InsertLinkFacts().ok());
    EXPECT_TRUE(engine->Run().ok());
    return engine;
  };
  auto held = [](Engine& engine) {
    uint64_t bytes = 0;
    for (NodeId n = 0; n < engine.num_nodes(); ++n) {
      bytes += engine.node(n).online_store().bytes();
    }
    return bytes;
  };
  const obs::MemSubsystem kOnline = obs::MemSubsystem::kOnlineRecords;
  {
    std::unique_ptr<Engine> engine = run();
    EXPECT_GT(mem.CurrentBytes(kOnline), 0u);
    EXPECT_EQ(mem.CurrentBytes(kOnline), held(*engine));
    for (NodeId n = 0; n < engine->num_nodes(); ++n) {
      engine->node(n).online_store().Clear();
    }
    EXPECT_EQ(held(*engine), 0u);
    EXPECT_EQ(mem.CurrentBytes(kOnline), 0u);
  }
  {
    std::unique_ptr<Engine> engine = run();
    EXPECT_GT(mem.CurrentBytes(kOnline), 0u);
  }
  EXPECT_EQ(mem.CurrentBytes(kOnline), 0u);
  EXPECT_GT(mem.PeakBytes(kOnline), 0u);

  mem.Reset();
  mem.Disable();
}

// An engine that archives nothing opens no archive, so it charges no
// archive page; with record_offline every node's in-memory log charges the
// pages it holds.
TEST(MemAccountingTest, NoArchivePageWithoutRecordOffline) {
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  auto archive_peak = [&mem](bool record_offline) {
    mem.Reset();
    mem.Enable();
    {
      EngineOptions opts;
      opts.prov_mode = ProvMode::kCondensed;
      opts.record_offline = record_offline;
      opts.threads = 1;
      Rng rng(7);
      Topology topo = Topology::RingPlusRandom(12, 3, rng);
      auto engine =
          Engine::Create(topo, BestPathNdlogProgram(), opts).value();
      EXPECT_TRUE(engine->InsertLinkFacts().ok());
      EXPECT_TRUE(engine->Run().ok());
    }
    uint64_t peak = mem.PeakBytes(obs::MemSubsystem::kArchivePages);
    mem.Reset();
    mem.Disable();
    return peak;
  };
  EXPECT_EQ(archive_peak(false), 0u);
  // The 12 logs hold 43 pages, charged 4,160 bytes each.
  EXPECT_EQ(archive_peak(true), 178880u);
}

// --- Golden determinism: observability on vs. off ---------------------------

// Every stored tuple at every node, with asserter and annotation, in a
// canonical order — byte-equal iff the fixpoints are identical.
std::string Fingerprint(Engine& engine) {
  std::ostringstream out;
  for (NodeId n = 0; n < engine.num_nodes(); ++n) {
    for (Table* table : engine.node(n).AllTables()) {
      std::vector<std::string> lines;
      for (const StoredTuple* e : table->Scan()) {
        lines.push_back(e->tuple.ToString() + " by " + e->asserted_by +
                        " prov " + e->prov.ToString());
      }
      std::sort(lines.begin(), lines.end());
      for (const std::string& line : lines) {
        out << "n" << n << "|" << table->name() << "|" << line << "\n";
      }
    }
  }
  return out.str();
}

struct GoldenRun {
  std::string fingerprint;
  std::string metrics;
  std::string trace;  // default JSONL format (no spans)
  RunStats stats;
};

GoldenRun RunGolden(ProvMode mode, size_t threads, bool observe) {
  if (observe) {
    obs::MemAccounting::Global().Reset();
    obs::MemAccounting::Global().Enable();
  } else {
    obs::MemAccounting::Global().Disable();
  }
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = mode;
  opts.threads = threads;
  Rng rng(7);
  Topology topo = Topology::RingPlusRandom(24, 3, rng);
  auto engine = Engine::Create(topo, BestPathNdlogProgram(), opts).value();
  engine->tracer().Enable(/*capacity=*/1 << 14, /*sample_every=*/4,
                          /*record_wall=*/false, /*record_spans=*/observe);
  if (observe) engine->profiler().Enable();
  EXPECT_TRUE(engine->InsertLinkFacts().ok());
  Result<RunStats> stats = engine->Run();
  EXPECT_TRUE(stats.ok()) << stats.status();

  GoldenRun out;
  out.fingerprint = Fingerprint(*engine);
  out.metrics = obs::SnapshotJson(engine->metrics());
  // Serialized without spans on both sides: the *event stream* must be
  // identical; the ids are additive.
  out.trace = engine->tracer().ToJsonl(/*with_spans=*/false);
  out.stats = stats.value();
  obs::MemAccounting::Global().Disable();
  return out;
}

class ObsGoldenTest : public ::testing::TestWithParam<ProvMode> {};

TEST_P(ObsGoldenTest, ObservabilityOnChangesNoGoldenByte) {
  const ProvMode mode = GetParam();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    GoldenRun off = RunGolden(mode, threads, /*observe=*/false);
    GoldenRun on = RunGolden(mode, threads, /*observe=*/true);

    EXPECT_EQ(off.fingerprint, on.fingerprint);
    EXPECT_EQ(off.metrics, on.metrics);
    EXPECT_EQ(off.trace, on.trace);
    EXPECT_EQ(off.stats.sim_seconds, on.stats.sim_seconds);
    EXPECT_EQ(off.stats.deliveries, on.stats.deliveries);
    EXPECT_EQ(off.stats.messages, on.stats.messages);
    EXPECT_EQ(off.stats.bytes, on.stats.bytes);
    EXPECT_EQ(off.stats.tuple_bytes, on.stats.tuple_bytes);
    EXPECT_EQ(off.stats.auth_bytes, on.stats.auth_bytes);
    EXPECT_EQ(off.stats.prov_bytes, on.stats.prov_bytes);
    EXPECT_EQ(off.stats.events, on.stats.events);
    EXPECT_EQ(off.stats.derivations, on.stats.derivations);
    EXPECT_EQ(off.stats.join_candidates, on.stats.join_candidates);
    EXPECT_EQ(off.stats.signs, on.stats.signs);
    EXPECT_EQ(off.stats.verifies, on.stats.verifies);
    // The only permitted difference: the enabled run carries the memory
    // summary, the disabled run must not.
    EXPECT_TRUE(off.stats.peak_mem.empty());
    EXPECT_FALSE(on.stats.peak_mem.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(AllProvModes, ObsGoldenTest,
                         ::testing::Values(ProvMode::kNone,
                                           ProvMode::kCondensed,
                                           ProvMode::kFull),
                         [](const auto& info) {
                           return std::string(ProvModeName(info.param));
                         });

// --- Cost: disabled hooks ---------------------------------------------------

TEST(ProfilerTest, DisabledHookCostUnderTwoPercentOfFixpoint) {
  Rng rng(20080407);
  Topology topo = Topology::RingPlusRandom(50, 3, rng);
  EngineOptions opts;
  opts.prov_mode = ProvMode::kCondensed;
  auto engine = Engine::Create(topo, BestPathNdlogProgram(), opts).value();
  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  auto t0 = std::chrono::steady_clock::now();
  RunStats stats = engine->Run().value();
  auto t1 = std::chrono::steady_clock::now();
  double wall = std::chrono::duration<double>(t1 - t0).count();

  // Upper bound on profiler/memory instrumentation sites the run executed:
  // every event, delivery, message, and derivation passes a handful of
  // disabled-profiler Scopes and disabled MemAccounting hooks.
  uint64_t hooks = 4 * (stats.derivations + stats.events + stats.deliveries +
                        stats.messages + stats.join_candidates);

  // Price one disabled hook: exactly the code the hot path runs when the
  // profiler and the accounting are off — one relaxed bool load each.
  obs::Profiler prof;
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  mem.Disable();
  auto h0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < hooks; ++i) {
    obs::Profiler::Scope scope(prof, obs::Phase::kEvents);
    mem.Add(obs::MemSubsystem::kTableRows, i);
  }
  auto h1 = std::chrono::steady_clock::now();
  double hook_cost = std::chrono::duration<double>(h1 - h0).count();

  EXPECT_LT(hook_cost, 0.02 * wall + 0.001)
      << "hooks=" << hooks << " wall=" << wall;
}

// --- Satellite: trace.dropped_spans -----------------------------------------

TEST(ObsTracerTest, RingWrapIncrementsDroppedSpansCounter) {
  Rng rng(7);
  Topology topo = Topology::RingPlusRandom(16, 3, rng);
  EngineOptions opts;
  opts.prov_mode = ProvMode::kCondensed;
  auto engine = Engine::Create(topo, BestPathNdlogProgram(), opts).value();
  // A ring far smaller than the event volume: evictions are guaranteed.
  engine->tracer().Enable(/*capacity=*/64, /*sample_every=*/1);
  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());

  const obs::Counter* dropped =
      engine->metrics().FindCounter("trace.dropped_spans", {});
  ASSERT_NE(dropped, nullptr);
  EXPECT_GT(dropped->value, 0u);
  EXPECT_EQ(dropped->value, engine->tracer().dropped());
  // The counter rides the snapshot like any other registry cell.
  EXPECT_NE(obs::SnapshotJson(engine->metrics()).find("trace.dropped_spans"),
            std::string::npos);
}

// --- Causal traces: one connected tree per distributed walk -----------------

TEST(ObsCausalTest, DistributedWalkSpansFormOneConnectedTree) {
  Rng rng(20080407);
  Topology topo = Topology::RingPlusRandom(20, 3, rng);
  EngineOptions opts;
  opts.seed = 20080407;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = ProvMode::kPointers;  // distributed walks need records
  auto engine = Engine::Create(topo, BestPathSendlogProgram(), opts).value();
  engine->tracer().Enable(/*capacity=*/1 << 15, /*sample_every=*/1,
                          /*record_wall=*/false, /*record_spans=*/true);
  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());

  size_t issued = 0;
  for (const Tuple& t : engine->TuplesAt(0, "bestPath")) {
    if (issued++ >= 5) break;
    ASSERT_TRUE(ProvQueryBuilder(*engine)
                    .At(0)
                    .Of(t)
                    .WithScope(QueryScope::kDistributed)
                    .Run()
                    .ok());
  }

  // Collect the walk traces: each session root is a "provquery" event whose
  // span id doubles as the trace id.
  std::vector<const obs::TraceEvent*> events = engine->tracer().Events();
  std::set<uint64_t> walk_traces;
  for (const obs::TraceEvent* ev : events) {
    if (ev->kind == "provquery") {
      EXPECT_NE(ev->trace_id, 0u);
      EXPECT_EQ(ev->trace_id, ev->span_id);
      walk_traces.insert(ev->trace_id);
    }
  }
  ASSERT_GE(walk_traces.size(), 1u);

  size_t max_nodes = 0;
  for (uint64_t trace : walk_traces) {
    // span id -> nodes seen, and span id -> parent (the sender half of a
    // message span carries the parent link; the deliver half carries 0).
    std::map<uint64_t, uint64_t> parent_of;
    std::set<uint32_t> nodes;
    for (const obs::TraceEvent* ev : events) {
      if (ev->trace_id != trace || ev->span_id == 0) continue;
      nodes.insert(ev->node);
      auto [it, fresh] = parent_of.emplace(ev->span_id, ev->parent_span);
      if (!fresh && ev->parent_span != 0) it->second = ev->parent_span;
    }
    max_nodes = std::max(max_nodes, nodes.size());

    // Connectivity: every span must reach the root (the span whose id is
    // the trace id) by following parent links inside the span set.
    ASSERT_EQ(parent_of.count(trace), 1u);
    for (const auto& [span, parent] : parent_of) {
      uint64_t cur = span;
      size_t steps = 0;
      while (cur != trace && steps++ < parent_of.size()) {
        auto it = parent_of.find(parent_of[cur]);
        ASSERT_NE(it, parent_of.end())
            << "span " << cur << " has a parent outside the trace";
        cur = it->first;
      }
      EXPECT_EQ(cur, trace) << "span " << span << " never reaches the root";
    }
  }
  // At least one walk touched three or more nodes (the acceptance bar for
  // cross-node stitching).
  EXPECT_GE(max_nodes, 3u);
}

}  // namespace
}  // namespace provnet
