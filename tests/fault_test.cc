// Fault-tolerant transport (src/net/faults.*, transport machinery in
// src/net/network.cc, crash/restart in src/core/engine.cc, query
// degradation in src/query/): deterministic fault injection, ack/retransmit
// with backoff, fail-stop crash-restart recovery, and graceful ProvQuery
// degradation.
//
// The oracles:
//   * determinism   - every fault verdict is a pure function of (plan seed,
//     link, attempt counter); identical plans replay identical fault
//     sequences at any thread count;
//   * transparency  - benign loss/duplication/reorder under the reliable
//     transport converges to the fault-free fixpoint with zero kReplay
//     false positives (honest retransmits dedup below the ReplayGuard);
//   * recovery      - a scripted crash loses all in-memory state, yet the
//     restarted node re-derives to the fault-free fixpoint from its journal
//     and durable archive, and distributed proofs come back byte-identical;
//   * degradation   - a partitioned ProvQuery responder times out, retries
//     with backoff, then degrades to its offline archive (or an
//     `unreachable` proof leaf) instead of hanging or failing the query;
//   * inertness     - with no plan and no transport, the telemetry key set
//     and wire behavior are exactly the historical ones.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/bestpath.h"
#include "apps/programs.h"
#include "core/engine.h"
#include "net/faults.h"
#include "net/topology.h"
#include "query/provquery.h"
#include "util/random.h"

namespace provnet {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("provnet_fault_test_" + name + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

Tuple Link2(NodeId a, NodeId b) {
  return Tuple("link", {Value::Address(a), Value::Address(b)});
}

Tuple Reach(NodeId a, NodeId b) {
  return Tuple("reachable", {Value::Address(a), Value::Address(b)});
}

EngineOptions AuthOptions() {
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  return opts;
}

std::unique_ptr<Engine> RunReach(const Topology& topo, EngineOptions opts) {
  Result<std::unique_ptr<Engine>> created =
      Engine::Create(topo, ReachableSendlogProgram(), std::move(opts));
  EXPECT_TRUE(created.ok()) << created.status();
  std::unique_ptr<Engine> engine = std::move(created).value();
  for (const TopoEdge& e : topo.edges) {
    EXPECT_TRUE(engine->InsertFact(e.from, Link2(e.from, e.to)).ok());
  }
  EXPECT_TRUE(engine->Run().ok());
  return engine;
}

void ExpectSamePredAt(Engine& got, Engine& want, const std::string& pred) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (NodeId n = 0; n < got.num_nodes(); ++n) {
    EXPECT_EQ(got.TuplesAt(n, pred), want.TuplesAt(n, pred))
        << pred << " diverged at node " << n;
  }
}

uint64_t CounterValue(const Engine& engine, const std::string& name,
                      obs::Labels labels = {}) {
  const obs::Counter* c =
      engine.metrics().FindCounter(name, std::move(labels));
  return c != nullptr ? c->value : 0;
}

bool HasCounterNamed(const Engine& engine, const std::string& name) {
  for (const auto& [key, counter] : engine.metrics().counters()) {
    if (key.first == name) return true;
  }
  return false;
}

// --- Deterministic fault RNG ------------------------------------------------

TEST(FaultRngTest, VerdictsAreAPureFunctionOfPlanAndAttemptOrder) {
  FaultPlan plan;
  plan.seed = 42;
  plan.links.push_back(
      LinkFaultSpec{kAnyNode, kAnyNode, 0.3, 0.2, 0.1, 0.15, 0.05});
  FaultInjector a(plan);
  FaultInjector b(plan);
  bool any_fault = false;
  for (int i = 0; i < 200; ++i) {
    NodeId from = static_cast<NodeId>(i % 3);
    NodeId to = static_cast<NodeId>((i + 1) % 3);
    FaultInjector::Verdict va = a.OnTransmit(from, to);
    FaultInjector::Verdict vb = b.OnTransmit(from, to);
    EXPECT_EQ(va.drop, vb.drop);
    EXPECT_EQ(va.duplicate, vb.duplicate);
    EXPECT_EQ(va.corrupt, vb.corrupt);
    EXPECT_EQ(va.extra_delay_s, vb.extra_delay_s);
    any_fault |= va.drop || va.duplicate || va.corrupt;
  }
  EXPECT_TRUE(any_fault);  // 200 draws at these rates cannot all pass

  // A different seed scripts a different run.
  FaultPlan other = plan;
  other.seed = 43;
  FaultInjector c(other);
  bool diverged = false;
  FaultInjector d(plan);
  for (int i = 0; i < 200 && !diverged; ++i) {
    diverged = c.OnTransmit(0, 1).drop != d.OnTransmit(0, 1).drop;
  }
  EXPECT_TRUE(diverged);
}

TEST(FaultRngTest, DrawsAreIndependentPerLink) {
  FaultPlan plan = FaultPlan::UniformLoss(0.5, 7);
  FaultInjector injector(plan);
  // Interleaving transmissions on another link must not perturb the first
  // link's verdict sequence — that is what makes sharded execution replay
  // the same faults as sequential execution.
  FaultInjector interleaved(plan);
  for (int i = 0; i < 100; ++i) {
    FaultInjector::Verdict plain = injector.OnTransmit(0, 1);
    (void)interleaved.OnTransmit(2, 3);  // extra traffic elsewhere
    FaultInjector::Verdict mixed = interleaved.OnTransmit(0, 1);
    EXPECT_EQ(plain.drop, mixed.drop) << "draw " << i;
  }
}

TEST(FaultRngTest, ParseSpecRoundTrip) {
  bool ok = false;
  FaultPlan plan =
      FaultPlan::ParseSpec("loss=0.01,dup=0.002,corrupt=0.003,reorder=0.04,"
                           "seed=9",
                           &ok);
  ASSERT_TRUE(ok);
  ASSERT_EQ(plan.links.size(), 1u);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.links[0].loss, 0.01);
  EXPECT_DOUBLE_EQ(plan.links[0].duplication, 0.002);
  EXPECT_DOUBLE_EQ(plan.links[0].corruption, 0.003);
  EXPECT_DOUBLE_EQ(plan.links[0].reorder, 0.04);

  FaultPlan::ParseSpec("loss=0.01,bogus=1", &ok);
  EXPECT_FALSE(ok);
  FaultPlan empty = FaultPlan::ParseSpec("", &ok);
  EXPECT_TRUE(ok);
  EXPECT_TRUE(empty.Empty());
}

TEST(FaultRngTest, EnvVarInstallsPlanAtCreate) {
  ASSERT_EQ(::setenv("PROVNET_FAULT_PLAN", "loss=0.05,seed=3", 1), 0);
  Topology topo = Topology::Line(3);
  Result<std::unique_ptr<Engine>> created =
      Engine::Create(topo, ReachableSendlogProgram(), EngineOptions{});
  ::unsetenv("PROVNET_FAULT_PLAN");
  ASSERT_TRUE(created.ok()) << created.status();
  const FaultInjector* injector =
      created.value()->network().fault_injector();
  ASSERT_NE(injector, nullptr);
  ASSERT_EQ(injector->plan().links.size(), 1u);
  EXPECT_DOUBLE_EQ(injector->plan().links[0].loss, 0.05);
  EXPECT_TRUE(created.value()->network().TransportEnabled());
}

// --- Reliable transport under benign faults ---------------------------------

TEST(FaultTransportTest, LossMaskedByRetransmissionZeroReplayFalsePositives) {
  Topology topo = Topology::Line(5);
  std::unique_ptr<Engine> golden = RunReach(topo, AuthOptions());

  EngineOptions opts = AuthOptions();
  // 0.4 is high enough that this small run's ~10 data frames certainly see
  // losses (lower rates with this seed only clipped acks, which retransmit
  // but are not counted as faults.losses).
  opts.fault_plan = FaultPlan::UniformLoss(0.4, 7);
  std::unique_ptr<Engine> lossy = RunReach(topo, opts);

  // The fixpoint is the fault-free one: loss was masked, not absorbed.
  ExpectSamePredAt(*lossy, *golden, "link");
  ExpectSamePredAt(*lossy, *golden, "reachable");

  // Faults actually bit and the transport actually worked.
  EXPECT_GT(lossy->network().retransmits(), 0u);
  EXPECT_GT(lossy->network().acks_received(), 0u);
  EXPECT_GT(CounterValue(*lossy, "faults.losses"), 0u);
  EXPECT_EQ(CounterValue(*lossy, "net.retransmits"),
            lossy->network().retransmits());
  EXPECT_EQ(CounterValue(*lossy, "net.dropped", {{"cause", "fault"}}),
            CounterValue(*lossy, "faults.losses"));

  // Honest retransmits dedup below the adversary layer: no replay audits.
  EXPECT_EQ(lossy->security_log().CountOf(SecurityEventKind::kReplay), 0u);
  EXPECT_EQ(lossy->network().links_dead(), 0u);
}

TEST(FaultTransportTest, DuplicationAndReorderConvergeIdentically) {
  Topology topo = Topology::FigureAbc();
  std::unique_ptr<Engine> golden = RunReach(topo, AuthOptions());

  EngineOptions opts = AuthOptions();
  FaultPlan plan;
  plan.seed = 5;
  LinkFaultSpec spec;
  spec.duplication = 0.5;
  spec.reorder = 0.3;
  plan.links.push_back(spec);
  opts.fault_plan = plan;
  std::unique_ptr<Engine> noisy = RunReach(topo, opts);

  ExpectSamePredAt(*noisy, *golden, "reachable");
  EXPECT_GT(noisy->network().duplicates_deduped(), 0u);
  EXPECT_EQ(noisy->security_log().CountOf(SecurityEventKind::kReplay), 0u);
}

TEST(FaultTransportTest, TotalLossDeclaresTheLinkDeadAndTerminates) {
  Topology topo = Topology::Line(3);
  EngineOptions opts = AuthOptions();
  FaultPlan plan;
  plan.seed = 1;
  plan.links.push_back(LinkFaultSpec{0, 1, /*loss=*/1.0});
  opts.fault_plan = plan;
  // The run must terminate (bounded retry budget), with the dead link
  // surfaced, not spin retransmitting forever.
  std::unique_ptr<Engine> engine = RunReach(topo, opts);
  EXPECT_GE(engine->network().links_dead(), 1u);
  EXPECT_GE(CounterValue(*engine, "net.links_dead"), 1u);
  EXPECT_GT(CounterValue(*engine, "net.dropped", {{"cause", "fault"}}), 0u);
  // Node 1 still computes its own reachability (only 0->1 is cut).
  EXPECT_FALSE(engine->TuplesAt(1, "reachable").empty());
}

TEST(FaultTransportTest, ThreadCountDoesNotChangeTheFaultedRun) {
  Topology topo = Topology::Line(5);
  EngineOptions opts = AuthOptions();
  opts.fault_plan = FaultPlan::UniformLoss(0.15, 23);

  EngineOptions four = opts;
  four.threads = 4;
  std::unique_ptr<Engine> one_thread = RunReach(topo, opts);
  std::unique_ptr<Engine> four_threads = RunReach(topo, four);

  ExpectSamePredAt(*four_threads, *one_thread, "reachable");
  EXPECT_EQ(four_threads->network().retransmits(),
            one_thread->network().retransmits());
  EXPECT_EQ(CounterValue(*four_threads, "faults.losses"),
            CounterValue(*one_thread, "faults.losses"));
  EXPECT_EQ(four_threads->network().total_bytes(),
            one_thread->network().total_bytes());
}

TEST(FaultTransportTest, TimerWorkIsLinearInFrames) {
  // Each data frame arms one retransmission timer and its ack disarms it; a
  // retransmission pops the due timer and re-arms it. So timer work stays a
  // few operations per frame, never a walk over every unacked frame per step.
  for (double loss : {0.0, 0.01}) {
    Rng rng(20080407);
    Topology topo = Topology::RingPlusRandom(50, 3, rng);
    EngineOptions opts;
    opts.reliable_transport = true;
    opts.fault_plan = FaultPlan::UniformLoss(loss, 7);
    auto engine = Engine::Create(topo, BestPathNdlogProgram(), opts).value();
    ASSERT_TRUE(engine->InsertLinkFacts().ok());
    ASSERT_TRUE(engine->Run().ok());
    const Network& net = engine->network();
    EXPECT_GT(net.total_messages(), 0u);
    if (loss > 0.0) {
      EXPECT_GT(net.retransmits(), 0u);
    }
    EXPECT_LE(net.timer_ops(), 3 * (net.total_messages() + net.retransmits()))
        << "loss=" << loss;
    EXPECT_TRUE(net.Idle());
  }
}

TEST(FaultTransportTest, LossyBestPathMatchesTheShortestPathOracle) {
  // A frame lost once and overtaken by more than 64 newer frames on its link
  // must still be delivered when its retransmit lands. With a 64-deep
  // receive window it was acked and dropped, losing the advertisement for
  // good; the first topology here then ended above the oracle cost at both
  // loss rates.
  for (double loss : {0.01, 0.05}) {
    for (uint64_t s = 0; s < 2; ++s) {
      SCOPED_TRACE("loss=" + std::to_string(loss) + " seed=" +
                   std::to_string(s));
      Rng rng(1000 + s);
      Topology topo = Topology::RingPlusRandom(35, 3, rng);
      EngineOptions opts;
      opts.fault_plan = FaultPlan::UniformLoss(loss, 500 + s);
      Result<BestPathRun> run = RunBestPath(topo, Variant::kNdlog, opts);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_TRUE(VerifyBestPaths(*run.value().engine, topo).ok());
      EXPECT_GT(run.value().engine->network().retransmits(), 0u);
    }
  }
}

// --- Crash-restart recovery -------------------------------------------------

TEST(CrashRestartTest, ScriptedCrashRestartRederivesTheFaultFreeFixpoint) {
  TempDir dir("crash_restart");
  Topology topo = Topology::Line(4);
  std::unique_ptr<Engine> golden = RunReach(topo, AuthOptions());

  EngineOptions opts = AuthOptions();
  opts.prov_mode = ProvMode::kPointers;
  opts.record_online = true;
  opts.record_offline = true;
  opts.archive_dir = dir.str();
  opts.fault_plan.crashes.push_back(CrashSpec{/*crash_at=*/0.05,
                                              /*restart_at=*/0.5,
                                              /*node=*/2});
  std::unique_ptr<Engine> crashed = RunReach(topo, opts);

  ExpectSamePredAt(*crashed, *golden, "link");
  ExpectSamePredAt(*crashed, *golden, "reachable");
  EXPECT_EQ(CounterValue(*crashed, "faults.crashes"), 1u);
  EXPECT_EQ(CounterValue(*crashed, "faults.restarts"), 1u);
}

TEST(CrashRestartTest, CrashWithLossStillConvergesAtBothThreadCounts) {
  // The acceptance scenario: benign loss plus a crash window, run at
  // threads 1 and 4, all byte-identical to each other and tuple-identical
  // to the fault-free fixpoint.
  Topology topo = Topology::Line(4);
  std::unique_ptr<Engine> golden = RunReach(topo, AuthOptions());

  auto run = [&](size_t threads, const std::string& dir_name) {
    TempDir dir(dir_name);
    EngineOptions opts = AuthOptions();
    opts.threads = threads;
    opts.prov_mode = ProvMode::kPointers;
    opts.record_online = true;
    opts.record_offline = true;
    opts.archive_dir = dir.str();
    opts.fault_plan = FaultPlan::UniformLoss(0.05, 17);
    opts.fault_plan.crashes.push_back(CrashSpec{0.08, 0.6, 1});
    std::unique_ptr<Engine> engine = RunReach(topo, opts);
    ExpectSamePredAt(*engine, *golden, "reachable");
    return engine;
  };
  std::unique_ptr<Engine> t1 = run(1, "accept_t1");
  std::unique_ptr<Engine> t4 = run(4, "accept_t4");
  EXPECT_EQ(t1->network().retransmits(), t4->network().retransmits());
  EXPECT_EQ(CounterValue(*t1, "faults.losses"),
            CounterValue(*t4, "faults.losses"));
  EXPECT_EQ(t1->network().total_bytes(), t4->network().total_bytes());
}

TEST(CrashRestartTest, NeverRestartedNodeStaysDownWithoutHangingTheRun) {
  Topology topo = Topology::Line(3);
  EngineOptions opts = AuthOptions();
  opts.fault_plan.crashes.push_back(
      CrashSpec{/*crash_at=*/0.02, /*restart_at=*/-1.0, /*node=*/2});
  std::unique_ptr<Engine> engine = RunReach(topo, opts);
  EXPECT_TRUE(engine->network().IsCrashed(2));
  EXPECT_EQ(CounterValue(*engine, "faults.crashes"), 1u);
  EXPECT_EQ(CounterValue(*engine, "faults.restarts"), 0u);
  // The dead node's tables are gone; the survivors' fixpoint is intact.
  EXPECT_TRUE(engine->TuplesAt(2, "reachable").empty());
  EXPECT_FALSE(engine->TuplesAt(1, "reachable").empty());
}

TEST(CrashRestartTest, MidRunArchiveCrashKeepsDistributedProofsByteIdentical) {
  // Satellite: crash between archive writes (the abandoned page buffer
  // leaves a torn tail), restart mid-run, and the *distributed* proof of a
  // tuple flowing through the crashed node must come back byte-identical to
  // the fault-free engine's — recovery is invisible to forensics.
  Topology topo = Topology::Line(4);
  EngineOptions base = AuthOptions();
  base.prov_mode = ProvMode::kPointers;
  base.record_online = true;
  base.record_offline = true;

  TempDir golden_dir("proofs_golden");
  EngineOptions golden_opts = base;
  golden_opts.archive_dir = golden_dir.str();
  std::unique_ptr<Engine> golden = RunReach(topo, golden_opts);

  TempDir crash_dir("proofs_crash");
  EngineOptions crash_opts = base;
  crash_opts.archive_dir = crash_dir.str();
  crash_opts.fault_plan.crashes.push_back(CrashSpec{0.05, 0.5, 1});
  std::unique_ptr<Engine> crashed = RunReach(topo, crash_opts);

  ExpectSamePredAt(*crashed, *golden, "reachable");
  // reachable(S,D) lives at S, so ask each proof at its source node —
  // including S=1, the node that crashed and recovered.
  const std::pair<NodeId, Tuple> probes[] = {
      {0, Reach(0, 2)}, {0, Reach(0, 3)}, {1, Reach(1, 3)}};
  for (const auto& [asker, t] : probes) {
    Result<QueryResult> got = ProvQueryBuilder(*crashed)
                                  .At(asker)
                                  .Of(t)
                                  .WithScope(QueryScope::kDistributed)
                                  .Run();
    Result<QueryResult> want = ProvQueryBuilder(*golden)
                                   .At(asker)
                                   .Of(t)
                                   .WithScope(QueryScope::kDistributed)
                                   .Run();
    ASSERT_TRUE(got.ok()) << t.ToString() << ": " << got.status();
    ASSERT_TRUE(want.ok()) << t.ToString() << ": " << want.status();
    EXPECT_EQ(got.value().dag.CanonicalBytes(),
              want.value().dag.CanonicalBytes())
        << "proof diverged for " << t.ToString();
    EXPECT_EQ(got.value().stats.unreachable, 0u);
  }
}

TEST(CrashRestartTest, ArchiveAnsweredProofsAfterRecoveryMatchTheFaultFreeRun) {
  // Recovery logs every re-derived record into the live nodes' append-only
  // archives a second time. With online provenance aged out, every hop of a
  // distributed walk is answered from those archives, and each twin must
  // count once: the proofs equal the fault-free run's.
  Topology topo = Topology::Line(4);
  EngineOptions base = AuthOptions();
  base.prov_mode = ProvMode::kPointers;
  base.record_online = true;
  base.record_offline = true;

  TempDir golden_dir("archive_golden");
  EngineOptions golden_opts = base;
  golden_opts.archive_dir = golden_dir.str();
  std::unique_ptr<Engine> golden = RunReach(topo, golden_opts);

  TempDir crash_dir("archive_crash");
  EngineOptions crash_opts = base;
  crash_opts.archive_dir = crash_dir.str();
  crash_opts.fault_plan.crashes.push_back(CrashSpec{0.05, 0.5, 1});
  std::unique_ptr<Engine> crashed = RunReach(topo, crash_opts);
  EXPECT_GT(crashed->node(0).offline_store().size(),
            golden->node(0).offline_store().size());

  for (Engine* engine : {golden.get(), crashed.get()}) {
    for (NodeId n = 0; n < engine->num_nodes(); ++n) {
      engine->node(n).online_store().Clear();
    }
  }
  size_t proofs = 0;
  for (NodeId n = 0; n < topo.num_nodes; ++n) {
    for (const Tuple& t : golden->TuplesAt(n, "reachable")) {
      Result<QueryResult> got = ProvQueryBuilder(*crashed)
                                    .At(n)
                                    .Of(t)
                                    .WithScope(QueryScope::kDistributed)
                                    .Run();
      Result<QueryResult> want = ProvQueryBuilder(*golden)
                                     .At(n)
                                     .Of(t)
                                     .WithScope(QueryScope::kDistributed)
                                     .Run();
      ASSERT_TRUE(got.ok()) << t.ToString() << ": " << got.status();
      ASSERT_TRUE(want.ok()) << t.ToString() << ": " << want.status();
      EXPECT_GT(got.value().stats.offline_hits, 0u);
      EXPECT_EQ(got.value().dag.CanonicalBytes(),
                want.value().dag.CanonicalBytes())
          << "archive-answered proof diverged for " << t.ToString();
      ++proofs;
    }
  }
  EXPECT_EQ(proofs, 6u);
}

// --- Graceful ProvQuery degradation -----------------------------------------

// A plan that isolates node 0 from everyone starting at t=5 (well after the
// fixpoint converges) — the asker keeps its local records but every remote
// hop of a later query is partitioned away.
FaultPlan IsolateAskerAfterFixpoint(size_t num_nodes) {
  FaultPlan plan;
  plan.seed = 3;
  for (NodeId n = 1; n < num_nodes; ++n) {
    plan.partitions.push_back(PartitionSpec{5.0, 1e9, 0, n, true});
  }
  return plan;
}

TEST(QueryDegradationTest, PartitionedResponderDegradesToUnreachableLeaf) {
  Topology topo = Topology::Line(3);
  EngineOptions opts = AuthOptions();
  opts.prov_mode = ProvMode::kPointers;
  opts.record_online = true;  // no offline archive: nothing to fall back on
  opts.fault_plan = IsolateAskerAfterFixpoint(topo.num_nodes);
  std::unique_ptr<Engine> engine = RunReach(topo, opts);
  engine->network().AdvanceTime(10.0);  // into the partition window

  Result<QueryResult> result = ProvQueryBuilder(*engine)
                                   .At(0)
                                   .Of(Reach(0, 2))
                                   .WithScope(QueryScope::kDistributed)
                                   .Run();
  ASSERT_TRUE(result.ok()) << result.status();
  const QueryResult& out = result.value();
  // The query degraded instead of hanging: deadlines fired, retries were
  // attempted, and the cut branches surface as `unreachable` leaves.
  EXPECT_GT(out.stats.timeouts, 0u);
  EXPECT_GT(out.stats.retries, 0u);
  EXPECT_GT(out.stats.unreachable, 0u);
  bool has_unreachable_leaf = false;
  for (const ProofNode& n : out.dag.nodes) {
    if (n.rule == kUnreachableRule) {
      has_unreachable_leaf = true;
      EXPECT_FALSE(n.IsOrigin());  // never mistaken for a base assertion
    }
    EXPECT_NE(n.rule, kMissingRule)
        << "a partitioned branch must read unreachable, not missing";
  }
  EXPECT_TRUE(has_unreachable_leaf);
}

TEST(QueryDegradationTest, OfflineArchiveIsTheStandardAnswerWhenPartitioned) {
  Topology topo = Topology::Line(3);
  EngineOptions base = AuthOptions();
  base.prov_mode = ProvMode::kPointers;
  base.record_online = true;
  base.record_offline = true;

  // Golden: same transport, no partitions — the wire answer.
  TempDir golden_dir("degrade_golden");
  EngineOptions golden_opts = base;
  golden_opts.archive_dir = golden_dir.str();
  golden_opts.reliable_transport = true;
  std::unique_ptr<Engine> golden = RunReach(topo, golden_opts);
  Result<QueryResult> want = ProvQueryBuilder(*golden)
                                 .At(0)
                                 .Of(Reach(0, 2))
                                 .WithScope(QueryScope::kDistributed)
                                 .Run();
  ASSERT_TRUE(want.ok()) << want.status();

  TempDir part_dir("degrade_part");
  EngineOptions part_opts = base;
  part_opts.archive_dir = part_dir.str();
  part_opts.fault_plan = IsolateAskerAfterFixpoint(topo.num_nodes);
  std::unique_ptr<Engine> engine = RunReach(topo, part_opts);
  engine->network().AdvanceTime(10.0);

  Result<QueryResult> got = ProvQueryBuilder(*engine)
                                .At(0)
                                .Of(Reach(0, 2))
                                .WithScope(QueryScope::kDistributed)
                                .Run();
  ASSERT_TRUE(got.ok()) << got.status();
  // Every partitioned hop was answered from the responder's durable archive
  // — the degraded proof is byte-identical to the wire proof.
  EXPECT_EQ(got.value().dag.CanonicalBytes(),
            want.value().dag.CanonicalBytes());
  EXPECT_GT(got.value().stats.timeouts, 0u);
  EXPECT_GT(got.value().stats.offline_hits, 0u);
  EXPECT_EQ(got.value().stats.unreachable, 0u);
  // The QueryStats line names the degradation; the golden one is unchanged.
  EXPECT_NE(got.value().stats.ToString().find("timeouts="),
            std::string::npos);
  EXPECT_EQ(want.value().stats.ToString().find("timeouts="),
            std::string::npos);
}

TEST(QueryDegradationTest, HealedPartitionAnswersOverTheWireAgain) {
  Topology topo = Topology::Line(3);
  EngineOptions opts = AuthOptions();
  opts.prov_mode = ProvMode::kPointers;
  opts.record_online = true;
  FaultPlan plan;
  plan.seed = 3;
  // Partition heals at t=20.
  plan.partitions.push_back(PartitionSpec{5.0, 20.0, 0, 1, true});
  plan.partitions.push_back(PartitionSpec{5.0, 20.0, 0, 2, true});
  opts.fault_plan = plan;
  std::unique_ptr<Engine> engine = RunReach(topo, opts);
  engine->network().AdvanceTime(30.0);  // past the healed window

  Result<QueryResult> result = ProvQueryBuilder(*engine)
                                   .At(0)
                                   .Of(Reach(0, 2))
                                   .WithScope(QueryScope::kDistributed)
                                   .Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value().stats.timeouts, 0u);
  EXPECT_EQ(result.value().stats.unreachable, 0u);
  EXPECT_GT(result.value().stats.responses, 0u);
}

// --- Telemetry inertness ----------------------------------------------------

TEST(FaultTelemetryTest, FaultFreeRunsRegisterNoFaultOrTransportKeys) {
  Topology topo = Topology::FigureAbc();
  std::unique_ptr<Engine> engine = RunReach(topo, AuthOptions());
  for (const char* name :
       {"net.retransmits", "net.acks_received", "net.links_dead",
        "net.dup_deduped", "net.corrupt_dropped", "net.dropped",
        "faults.losses", "faults.duplicates", "faults.corruptions",
        "faults.reorders", "faults.partition_drops", "faults.crashes",
        "faults.restarts"}) {
    EXPECT_FALSE(HasCounterNamed(*engine, name))
        << name << " leaked into a fault-free run's telemetry";
  }
  EXPECT_FALSE(engine->network().TransportEnabled());
}

TEST(FaultTelemetryTest, FaultedRunsRegisterTheFullKeySet) {
  EngineOptions opts = AuthOptions();
  opts.fault_plan = FaultPlan::UniformLoss(0.1, 2);
  std::unique_ptr<Engine> engine = RunReach(Topology::FigureAbc(), opts);
  for (const char* name : {"net.retransmits", "net.acks_received",
                           "faults.losses", "faults.duplicates"}) {
    EXPECT_TRUE(HasCounterNamed(*engine, name)) << name;
  }
}

TEST(FaultTelemetryTest, DropCausesAreLabeledSeparately) {
  Topology topo = Topology::Line(3);
  EngineOptions opts = AuthOptions();
  FaultPlan plan;
  plan.seed = 1;
  plan.links.push_back(LinkFaultSpec{0, 1, /*loss=*/1.0});
  plan.partitions.push_back(PartitionSpec{0.0, 1e9, 1, 2, true});
  opts.fault_plan = plan;
  std::unique_ptr<Engine> engine = RunReach(topo, opts);
  EXPECT_GT(CounterValue(*engine, "net.dropped", {{"cause", "fault"}}), 0u);
  EXPECT_GT(CounterValue(*engine, "net.dropped", {{"cause", "partition"}}),
            0u);
  EXPECT_EQ(CounterValue(*engine, "net.dropped", {{"cause", "partition"}}),
            CounterValue(*engine, "faults.partition_drops"));
}

}  // namespace
}  // namespace provnet
