// Incremental update & churn subsystem (src/dynamics/): provenance-aware
// deletion, DRed over-delete/re-derive, principal revocation, expiry
// deltas, and the dynamic-network scenario driver.
//
// The load-bearing oracle: after churn, an incrementally-maintained engine
// must store exactly what a fresh engine computes from the final base
// facts. Every hard case (cycles, alternate paths, aggregates, revocation)
// is checked against that golden fixpoint.
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/bestpath.h"
#include "apps/programs.h"
#include "core/engine.h"
#include "dynamics/churn.h"
#include "net/topology.h"
#include "provenance/prov_expr.h"
#include "util/hash.h"

namespace provnet {
namespace {

Tuple Link2(NodeId a, NodeId b) {
  return Tuple("link", {Value::Address(a), Value::Address(b)});
}

Tuple Link3(NodeId a, NodeId b, int64_t c) {
  return Tuple("link", {Value::Address(a), Value::Address(b), Value::Int(c)});
}

Tuple Reach(NodeId a, NodeId b) {
  return Tuple("reachable", {Value::Address(a), Value::Address(b)});
}

EngineOptions TupleGrainProv() {
  EngineOptions opts;
  opts.prov_mode = ProvMode::kCondensed;
  opts.prov_grain = ProvGrain::kTuple;
  return opts;
}

// Builds an engine over arity-2 link facts (the reachable programs) and
// runs it to fixpoint.
std::unique_ptr<Engine> ReachEngine(const std::string& source,
                                    const Topology& topo,
                                    EngineOptions opts) {
  Result<std::unique_ptr<Engine>> engine = Engine::Create(topo, source, opts);
  EXPECT_TRUE(engine.ok()) << engine.status();
  std::unique_ptr<Engine> e = std::move(engine).value();
  for (const TopoEdge& edge : topo.edges) {
    EXPECT_TRUE(e->InsertFact(edge.from, Link2(edge.from, edge.to)).ok());
  }
  EXPECT_TRUE(e->Run().ok());
  return e;
}

// Builds a Best-Path engine over arity-3 link facts and runs to fixpoint.
std::unique_ptr<Engine> BestPathEngine(const Topology& topo,
                                       EngineOptions opts) {
  Result<std::unique_ptr<Engine>> engine =
      Engine::Create(topo, BestPathNdlogProgram(), opts);
  EXPECT_TRUE(engine.ok()) << engine.status();
  std::unique_ptr<Engine> e = std::move(engine).value();
  EXPECT_TRUE(e->InsertLinkFacts().ok());
  EXPECT_TRUE(e->Run().ok());
  return e;
}

// The incremental engine must match the golden fixpoint tuple-for-tuple.
void ExpectSamePred(Engine& incremental, Engine& golden,
                    const std::string& pred) {
  ASSERT_EQ(incremental.num_nodes(), golden.num_nodes());
  for (NodeId n = 0; n < incremental.num_nodes(); ++n) {
    std::vector<Tuple> got = incremental.TuplesAt(n, pred);
    std::vector<Tuple> want = golden.TuplesAt(n, pred);
    EXPECT_EQ(got.size(), want.size())
        << pred << " mismatch at node " << n;
    for (size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i], want[i])
          << pred << " at node " << n << ": got " << got[i].ToString()
          << " want " << want[i].ToString();
    }
  }
}

Topology Diamond() {
  // Two disjoint routes 0 -> 3 (via 1 and via 2).
  Topology topo;
  topo.num_nodes = 4;
  topo.edges = {{0, 1, 1}, {1, 3, 1}, {0, 2, 1}, {2, 3, 1}};
  return topo;
}

Topology RingWithChord() {
  // Directed ring plus chord 0 -> 2: cyclic derivations, and alternate
  // support for part of the closure when 1 -> 2 disappears.
  Topology topo;
  topo.num_nodes = 4;
  topo.edges = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {3, 0, 1}, {0, 2, 1}};
  return topo;
}

Topology Without(const Topology& topo, NodeId from, NodeId to) {
  Topology out;
  out.num_nodes = topo.num_nodes;
  for (const TopoEdge& e : topo.edges) {
    if (e.from == from && e.to == to) continue;
    out.edges.push_back(e);
  }
  return out;
}

// --- ProvExpr restriction (the pruning primitive) ---------------------------

TEST(ProvRestrictTest, SubstitutesZeroAndSimplifies) {
  ProvExpr ab = ProvExpr::Times(ProvExpr::Var(1), ProvExpr::Var(2));
  ProvExpr expr = ProvExpr::Plus(ab, ProvExpr::Var(3));

  EXPECT_TRUE(expr.DependsOnAny({2}));
  EXPECT_FALSE(expr.DependsOnAny({7}));

  // Killing b leaves the alternative c.
  ProvExpr no_b = expr.Restrict({2});
  EXPECT_FALSE(no_b.IsZero());
  EXPECT_EQ(no_b.Variables(), (std::vector<ProvVar>{3}));

  // Killing b and c leaves no derivation.
  EXPECT_TRUE(expr.Restrict({2, 3}).IsZero());

  // Killing an unrelated variable is the identity.
  EXPECT_TRUE(expr.Restrict({9}).Equals(expr));
}

// --- DeleteFact: alternate-path survival (acceptance criterion) -------------

void DeleteLinkOnDiamond(EngineOptions opts) {
  Topology topo = Diamond();
  std::unique_ptr<Engine> e =
      ReachEngine(ReachableNdlogProgram(), topo, opts);
  ASSERT_NE(e, nullptr);

  // Both routes to 3 exist.
  ASSERT_TRUE(e->AnnotationOf(0, Reach(0, 3)).ok());

  ASSERT_TRUE(e->DeleteFact(1, Link2(1, 3)).ok());
  Result<RunStats> stats = e->Run();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_GT(stats.value().retractions, 0u);

  // Routes solely derived from the deleted link are gone...
  EXPECT_TRUE(e->TuplesAt(1, "reachable").empty());
  // ...while the independently-derived route survives.
  std::vector<Tuple> at0 = e->TuplesAt(0, "reachable");
  EXPECT_NE(std::find(at0.begin(), at0.end(), Reach(0, 3)), at0.end());

  // Golden: a fresh fixpoint over the post-deletion facts.
  std::unique_ptr<Engine> golden =
      ReachEngine(ReachableNdlogProgram(), Without(topo, 1, 3), opts);
  ASSERT_NE(golden, nullptr);
  ExpectSamePred(*e, *golden, "reachable");
}

TEST(DeleteFactTest, AlternatePathSurvivesWithAnnotationPruning) {
  DeleteLinkOnDiamond(TupleGrainProv());
}

TEST(DeleteFactTest, AlternatePathSurvivesWithPureDRed) {
  DeleteLinkOnDiamond(EngineOptions{});  // no provenance: re-derivation path
}

TEST(DeleteFactTest, SurvivorKeepsRestrictedAnnotation) {
  Topology topo = Diamond();
  std::unique_ptr<Engine> e =
      ReachEngine(ReachableNdlogProgram(), topo, TupleGrainProv());
  ASSERT_NE(e, nullptr);

  ASSERT_TRUE(e->DeleteFact(1, Link2(1, 3)).ok());
  ASSERT_TRUE(e->Run().ok());

  // The surviving route's annotation no longer mentions the dead link.
  Result<ProvExpr> prov = e->AnnotationOf(0, Reach(0, 3));
  ASSERT_TRUE(prov.ok()) << prov.status();
  ProvVar dead = e->registry().Find(Link2(1, 3).ToString()).value();
  EXPECT_FALSE(prov.value().DependsOnAny({dead}));
  EXPECT_FALSE(prov.value().IsZero());
}

TEST(DeleteFactTest, MissingTupleIsNotFound) {
  std::unique_ptr<Engine> e =
      ReachEngine(ReachableNdlogProgram(), Diamond(), EngineOptions{});
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->DeleteFact(0, Link2(0, 3)).ok());
}

// --- Cyclic programs: deletion over a ring ----------------------------------

void DeleteLinkOnRing(EngineOptions opts) {
  Topology topo = RingWithChord();
  std::unique_ptr<Engine> e =
      ReachEngine(ReachableNdlogProgram(), topo, opts);
  ASSERT_NE(e, nullptr);
  // The full ring closure: everyone reaches everyone.
  EXPECT_EQ(e->TuplesAt(1, "reachable").size(), 4u);

  ASSERT_TRUE(e->DeleteFact(1, Link2(1, 2)).ok());
  ASSERT_TRUE(e->Run().ok());

  // Tuples re-derivable via the chord survive; the cycle must not keep
  // dead tuples alive through mutual support (reachable(1,*) relied on
  // 1->2 alone and has to go).
  std::unique_ptr<Engine> golden =
      ReachEngine(ReachableNdlogProgram(), Without(topo, 1, 2), opts);
  ASSERT_NE(golden, nullptr);
  ExpectSamePred(*e, *golden, "reachable");

  std::vector<Tuple> at3 = e->TuplesAt(3, "reachable");
  EXPECT_NE(std::find(at3.begin(), at3.end(), Reach(3, 2)), at3.end())
      << "3 -> 0 -> 2 via the chord must survive";
  EXPECT_TRUE(e->TuplesAt(1, "reachable").empty())
      << "node 1 lost its only outgoing link";
}

TEST(CyclicDeleteTest, RingWithChordAnnotationPruning) {
  DeleteLinkOnRing(TupleGrainProv());
}

TEST(CyclicDeleteTest, RingWithChordPureDRed) {
  DeleteLinkOnRing(EngineOptions{});
}

// --- Aggregates: Best-Path reroutes after a deletion ------------------------

void BestPathReroutes(EngineOptions opts) {
  // Cheap two-hop route 0->1->2 (cost 2) vs direct fallback 0->2 (cost 5).
  Topology topo;
  topo.num_nodes = 3;
  topo.edges = {{0, 1, 1}, {1, 2, 1}, {0, 2, 5}};
  std::unique_ptr<Engine> e = BestPathEngine(topo, opts);
  ASSERT_NE(e, nullptr);

  std::vector<Tuple> best = e->TuplesAt(0, "bestPath");
  auto cost_to_2 = [](const std::vector<Tuple>& tuples) -> int64_t {
    for (const Tuple& t : tuples) {
      if (t.arg(1).AsAddress() == 2) return t.arg(3).AsInt();
    }
    return -1;
  };
  ASSERT_EQ(cost_to_2(best), 2);

  ASSERT_TRUE(e->DeleteFact(1, Link3(1, 2, 1)).ok());
  Result<RunStats> stats = e->Run();
  ASSERT_TRUE(stats.ok()) << stats.status();

  // The MIN aggregate re-derives from surviving paths: the route falls
  // back to the direct (more expensive) link.
  EXPECT_EQ(cost_to_2(e->TuplesAt(0, "bestPath")), 5);

  std::unique_ptr<Engine> golden =
      BestPathEngine(Without(topo, 1, 2), opts);
  ASSERT_NE(golden, nullptr);
  ExpectSamePred(*e, *golden, "bestPath");
  ExpectSamePred(*e, *golden, "bestPathCost");
  ExpectSamePred(*e, *golden, "path");
}

TEST(AggregateDeleteTest, BestPathReroutesAnnotationPruning) {
  BestPathReroutes(TupleGrainProv());
}

TEST(AggregateDeleteTest, BestPathReroutesPureDRed) {
  BestPathReroutes(EngineOptions{});
}

// --- Principal revocation: cascade across nodes -----------------------------

TEST(RetractPrincipalTest, RevocationCascadesAcrossNodes) {
  Topology topo = RingWithChord();
  EngineOptions opts;
  opts.prov_mode = ProvMode::kCondensed;
  opts.prov_grain = ProvGrain::kPrincipal;
  std::unique_ptr<Engine> e =
      ReachEngine(ReachableSendlogProgram(), topo, opts);
  ASSERT_NE(e, nullptr);

  ASSERT_TRUE(e->RetractPrincipal("n1").ok());
  ASSERT_TRUE(e->Run().ok());

  // Golden: node 1 never asserted its links. Reachability *through* node 1
  // dies on every node; routes into 1 asserted by others survive.
  Topology reduced;
  reduced.num_nodes = topo.num_nodes;
  for (const TopoEdge& edge : topo.edges) {
    if (edge.from != 1) reduced.edges.push_back(edge);
  }
  std::unique_ptr<Engine> golden =
      ReachEngine(ReachableSendlogProgram(), reduced, opts);
  ASSERT_NE(golden, nullptr);
  ExpectSamePred(*e, *golden, "reachable");

  // Concretely: 0 reached 3 only through 1's exports... unless the chord
  // 0->2 keeps it alive. 1's own forwarding is gone everywhere.
  std::vector<Tuple> at2 = e->TuplesAt(2, "reachable");
  EXPECT_NE(std::find(at2.begin(), at2.end(), Reach(2, 1)), at2.end())
      << "2 -> 3 -> 0 -> 1 avoids n1's assertions and must survive";
}

TEST(RetractPrincipalTest, BestPathHealsAroundRevokedPrincipal) {
  // The compromise_response example's configuration: NDlog Best-Path with
  // principal-grained condensed provenance. Revoking a transit node must
  // leave exactly the fixpoint of a network where that node asserts no
  // links.
  Rng rng(5);
  Topology topo = Topology::RingPlusRandom(8, 3, rng);
  EngineOptions opts;
  opts.prov_mode = ProvMode::kCondensed;
  opts.prov_grain = ProvGrain::kPrincipal;
  std::unique_ptr<Engine> e = BestPathEngine(topo, opts);
  ASSERT_NE(e, nullptr);

  const NodeId suspect = 3;
  ASSERT_TRUE(e->RetractPrincipal(e->PrincipalOf(suspect)).ok());
  ASSERT_TRUE(e->Run().ok());

  Topology reduced;
  reduced.num_nodes = topo.num_nodes;
  for (const TopoEdge& edge : topo.edges) {
    if (edge.from != suspect) reduced.edges.push_back(edge);
  }
  std::unique_ptr<Engine> golden = BestPathEngine(reduced, opts);
  ASSERT_NE(golden, nullptr);
  ExpectSamePred(*e, *golden, "bestPathCost");
  // No surviving route transits the revoked node.
  for (NodeId n = 0; n < e->num_nodes(); ++n) {
    for (const Tuple& t : e->TuplesAt(n, "bestPath")) {
      for (const Value& hop : t.arg(2).AsList()) {
        EXPECT_TRUE(hop.AsAddress() != suspect ||
                    t.arg(1).AsAddress() == suspect)
            << "route still transits the revoked node: " << t.ToString();
      }
    }
  }
}

TEST(RetractPrincipalTest, RevocationWithRsaSaysTags) {
  // Authenticated variant: retraction messages carry verified says tags.
  Topology topo = Diamond();
  EngineOptions opts;
  opts.authenticate = true;
  opts.rsa_bits = 256;  // the engine's default modulus
  opts.prov_mode = ProvMode::kCondensed;
  opts.prov_grain = ProvGrain::kPrincipal;
  std::unique_ptr<Engine> e =
      ReachEngine(ReachableSendlogProgram(), topo, opts);
  ASSERT_NE(e, nullptr);

  ASSERT_TRUE(e->RetractPrincipal("n1").ok());
  Result<RunStats> stats = e->Run();
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats.value().auth_failures, 0u);

  Topology reduced;
  reduced.num_nodes = topo.num_nodes;
  for (const TopoEdge& edge : topo.edges) {
    if (edge.from != 1) reduced.edges.push_back(edge);
  }
  std::unique_ptr<Engine> golden =
      ReachEngine(ReachableSendlogProgram(), reduced, opts);
  ASSERT_NE(golden, nullptr);
  ExpectSamePred(*e, *golden, "reachable");
}

// --- Soft-state expiry fires deletion deltas --------------------------------

TEST(ExpiryDeltaTest, ExpiredLinkTearsDownDerivedRoutes) {
  Topology topo;
  topo.num_nodes = 3;
  topo.edges = {{0, 1, 1}, {1, 2, 1}};
  EngineOptions opts = TupleGrainProv();
  Result<std::unique_ptr<Engine>> engine =
      Engine::Create(topo, ReachableNdlogProgram(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status();
  std::unique_ptr<Engine> e = std::move(engine).value();
  ASSERT_TRUE(e->InsertFact(0, Link2(0, 1), /*ttl=*/5.0).ok());
  ASSERT_TRUE(e->InsertFact(1, Link2(1, 2)).ok());
  ASSERT_TRUE(e->Run().ok());
  EXPECT_EQ(e->TuplesAt(0, "reachable").size(), 2u);

  e->network().AdvanceTime(10.0);
  e->ExpireNow();
  ASSERT_TRUE(e->Run().ok());

  // The expired link's derived routes are gone; the unexpired remainder
  // of the closure survives.
  EXPECT_TRUE(e->TuplesAt(0, "reachable").empty());
  std::vector<Tuple> at1 = e->TuplesAt(1, "reachable");
  EXPECT_NE(std::find(at1.begin(), at1.end(), Reach(1, 2)), at1.end());
}

// --- Incremental insertion after the fixpoint -------------------------------

TEST(IncrementalInsertTest, LateLinkMatchesFreshFixpoint) {
  Topology partial;
  partial.num_nodes = 3;
  partial.edges = {{0, 1, 1}, {1, 2, 1}};
  std::unique_ptr<Engine> e =
      ReachEngine(ReachableNdlogProgram(), partial, TupleGrainProv());
  ASSERT_NE(e, nullptr);

  // Close the ring after the fixpoint: only the new strands re-fire.
  ASSERT_TRUE(e->InsertFact(2, Link2(2, 0)).ok());
  ASSERT_TRUE(e->Run().ok());

  Topology full = partial;
  full.edges.push_back({2, 0, 1});
  std::unique_ptr<Engine> golden =
      ReachEngine(ReachableNdlogProgram(), full, TupleGrainProv());
  ASSERT_NE(golden, nullptr);
  ExpectSamePred(*e, *golden, "reachable");
}

// --- Churn driver: flap sequences return to steady state --------------------

void FlapsReturnToSteadyState(EngineOptions opts) {
  Rng rng(42);
  Topology topo = Topology::RingPlusRandom(12, 3, rng);
  std::unique_ptr<Engine> e = BestPathEngine(topo, opts);
  ASSERT_NE(e, nullptr);

  // Snapshot the steady state before churn. bestPathCost is the
  // deterministic part of the fixpoint; bestPath may legitimately hold a
  // different representative among equal-cost routes depending on
  // derivation order, so it is checked against the shortest-path oracle
  // instead of tuple-for-tuple.
  std::vector<std::vector<Tuple>> before;
  for (NodeId n = 0; n < e->num_nodes(); ++n) {
    before.push_back(e->TuplesAt(n, "bestPathCost"));
  }

  Rng flap_rng(7);
  ChurnScript script =
      ChurnScript::RandomLinkFlaps(topo, /*flaps=*/4, /*start=*/1.0,
                                   /*spacing=*/1.0, flap_rng);
  ASSERT_EQ(script.events.size(), 8u);
  ChurnDriver driver(*e, /*link_arity=*/3);
  Result<ChurnReport> report = driver.Replay(script);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_GT(report.value().total_retractions, 0u);

  // Every link came back up: the maintained state must equal the original
  // steady-state fixpoint.
  for (NodeId n = 0; n < e->num_nodes(); ++n) {
    std::vector<Tuple> after = e->TuplesAt(n, "bestPathCost");
    ASSERT_EQ(after.size(), before[n].size())
        << "bestPathCost diverged at node " << n;
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i], before[n][i])
          << "bestPathCost at node " << n << ": got " << after[i].ToString()
          << " want " << before[n][i].ToString();
    }
  }
  Status oracle = VerifyBestPaths(*e, topo);
  EXPECT_TRUE(oracle.ok()) << oracle;
}

TEST(ChurnDriverTest, FlapsReturnToSteadyStateAnnotationPruning) {
  FlapsReturnToSteadyState(TupleGrainProv());
}

TEST(ChurnDriverTest, FlapsReturnToSteadyStatePureDRed) {
  FlapsReturnToSteadyState(EngineOptions{});
}

// Every stored tuple at every node, sorted per table, hashed.
uint64_t FixpointFingerprint(Engine& engine) {
  std::string out;
  for (NodeId n = 0; n < engine.num_nodes(); ++n) {
    for (Table* table : engine.node(n).AllTables()) {
      std::vector<std::string> lines;
      for (const StoredTuple* e : table->Scan()) {
        lines.push_back(e->tuple.ToString() + " by " + e->asserted_by);
      }
      std::sort(lines.begin(), lines.end());
      for (const std::string& line : lines) {
        out += "n" + std::to_string(n) + "|" + table->name() + "|" + line +
               "\n";
      }
    }
  }
  return Fnv1a64(out);
}

// The exact DRed work of the pure-DRed flap script above: the over-deletion
// cascade, re-derivation's head matching, and the joins both run. A change
// in how re-derivation matches heads or seeds its joins shows up here even
// when the fixpoint still heals. The counts hold at every thread count on
// a lossless network (loss reorders deliveries, and the work with them).
TEST(ChurnWorkGoldenTest, PureDRedFlapScriptWorkIsPinned) {
  Rng rng(42);
  Topology topo = Topology::RingPlusRandom(12, 3, rng);
  std::unique_ptr<Engine> e = BestPathEngine(topo, EngineOptions{});
  ASSERT_NE(e, nullptr);
  Rng flap_rng(7);
  ChurnDriver driver(*e, /*link_arity=*/3);
  ASSERT_TRUE(driver
                  .Replay(ChurnScript::RandomLinkFlaps(
                      topo, /*flaps=*/4, /*start=*/1.0, /*spacing=*/1.0,
                      flap_rng))
                  .ok());

  const obs::Registry& m = e->metrics();
  EXPECT_EQ(m.CounterTotal("engine.retractions"), 251u);
  EXPECT_EQ(m.CounterTotal("engine.rederivations"), 257u);
  EXPECT_EQ(m.CounterTotal("rule.candidates"), 3325u);
  EXPECT_EQ(FixpointFingerprint(*e), 0xfbfb8f957c3ea881ull);
}

// --- COUNT aggregates: a deletion recounts the group ------------------------

const char* kDegreeProgram = R"(
  materialize(link, infinity, infinity, keys(1,2)).
  materialize(deg, infinity, infinity, keys(1)).
  d1 deg(@S, count<D>) :- link(@S, D, C).
)";

Tuple Deg(NodeId s, int64_t count) {
  return Tuple("deg", {Value::Address(s), Value::Int(count)});
}

TEST(CountDeltaTest, DeletionDecrementsCount) {
  // Star: node 0 links to 1, 2, 3.
  Topology topo;
  topo.num_nodes = 4;
  topo.edges = {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}};
  Result<std::unique_ptr<Engine>> created =
      Engine::Create(topo, kDegreeProgram, EngineOptions{});
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<Engine> e = std::move(created).value();
  ASSERT_TRUE(e->InsertLinkFacts().ok());
  ASSERT_TRUE(e->Run().ok());
  ASSERT_EQ(e->TuplesAt(0, "deg"), std::vector<Tuple>{Deg(0, 3)});

  // One dead witness: the count drops by exactly one.
  ASSERT_TRUE(e->DeleteFact(0, Link3(0, 2, 1)).ok());
  ASSERT_TRUE(e->Run().ok());
  EXPECT_EQ(e->TuplesAt(0, "deg"), std::vector<Tuple>{Deg(0, 2)});

  // Down to one, then to an empty group: the deg row itself disappears.
  ASSERT_TRUE(e->DeleteFact(0, Link3(0, 1, 1)).ok());
  ASSERT_TRUE(e->Run().ok());
  EXPECT_EQ(e->TuplesAt(0, "deg"), std::vector<Tuple>{Deg(0, 1)});
  ASSERT_TRUE(e->DeleteFact(0, Link3(0, 3, 1)).ok());
  ASSERT_TRUE(e->Run().ok());
  EXPECT_TRUE(e->TuplesAt(0, "deg").empty());

  // Golden: a fresh engine over the final base facts agrees.
  Topology empty;
  empty.num_nodes = 4;
  Result<std::unique_ptr<Engine>> golden =
      Engine::Create(empty, kDegreeProgram, EngineOptions{});
  ASSERT_TRUE(golden.ok());
  ASSERT_TRUE(golden.value()->Run().ok());
  EXPECT_EQ(e->TuplesAt(0, "deg"), golden.value()->TuplesAt(0, "deg"));
}

TEST(CountDeltaTest, WitnessWithTwoDerivationsSurvivesOne) {
  // The same witness value (S, D) derived through two distinct rules: when
  // one derivation dies, re-deriving the group still finds the other, so
  // the count must not change.
  const char* program = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(backlink, infinity, infinity, keys(1,2)).
    materialize(deg, infinity, infinity, keys(1)).
    d1 deg(@S, count<D>) :- link(@S, D, C).
    d2 deg(@S, count<D>) :- backlink(@S, D, C).
  )";
  Topology topo;
  topo.num_nodes = 3;
  topo.edges = {{0, 1, 1}, {0, 2, 1}};
  Result<std::unique_ptr<Engine>> created =
      Engine::Create(topo, program, EngineOptions{});
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<Engine> e = std::move(created).value();
  ASSERT_TRUE(e->InsertLinkFacts().ok());
  Tuple backlink("backlink",
                 {Value::Address(0), Value::Address(1), Value::Int(5)});
  ASSERT_TRUE(e->InsertFact(0, backlink).ok());
  ASSERT_TRUE(e->Run().ok());
  ASSERT_EQ(e->TuplesAt(0, "deg"), std::vector<Tuple>{Deg(0, 2)});

  // Witness (0,1) loses its link derivation but keeps the backlink one.
  ASSERT_TRUE(e->DeleteFact(0, Link3(0, 1, 1)).ok());
  ASSERT_TRUE(e->Run().ok());
  EXPECT_EQ(e->TuplesAt(0, "deg"), std::vector<Tuple>{Deg(0, 2)});

  // Now the backlink too: the witness dies, the count drops.
  ASSERT_TRUE(e->DeleteFact(0, backlink).ok());
  ASSERT_TRUE(e->Run().ok());
  EXPECT_EQ(e->TuplesAt(0, "deg"), std::vector<Tuple>{Deg(0, 1)});
}

TEST(CountDeltaTest, JointDerivationDeletedTwiceInOneEpochDecrementsOnce) {
  // One derivation joins two body tuples; deleting both in the same epoch
  // enumerates the dead derivation from each delta's delete strand. The
  // witness must still be counted out exactly once.
  const char* program = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(mark, infinity, infinity, keys(1,2)).
    materialize(deg, infinity, infinity, keys(1)).
    j1 deg(@S, count<D>) :- link(@S, D, C), mark(@S, D).
  )";
  Topology topo;
  topo.num_nodes = 3;
  topo.edges = {{0, 1, 1}, {0, 2, 1}};
  Result<std::unique_ptr<Engine>> created =
      Engine::Create(topo, program, EngineOptions{});
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<Engine> e = std::move(created).value();
  ASSERT_TRUE(e->InsertLinkFacts().ok());
  Tuple mark1("mark", {Value::Address(0), Value::Address(1)});
  Tuple mark2("mark", {Value::Address(0), Value::Address(2)});
  ASSERT_TRUE(e->InsertFact(0, mark1).ok());
  ASSERT_TRUE(e->InsertFact(0, mark2).ok());
  ASSERT_TRUE(e->Run().ok());
  ASSERT_EQ(e->TuplesAt(0, "deg"), std::vector<Tuple>{Deg(0, 2)});

  // Both body tuples of witness (0,1)'s only derivation die together.
  ASSERT_TRUE(e->DeleteFact(0, Link3(0, 1, 1)).ok());
  ASSERT_TRUE(e->DeleteFact(0, mark1).ok());
  ASSERT_TRUE(e->Run().ok());
  EXPECT_EQ(e->TuplesAt(0, "deg"), std::vector<Tuple>{Deg(0, 1)});
}

TEST(ChurnDriverTest, CompromiseScriptRevokesPrincipal) {
  Topology topo = Diamond();
  EngineOptions opts;
  opts.prov_mode = ProvMode::kCondensed;
  opts.prov_grain = ProvGrain::kPrincipal;
  std::unique_ptr<Engine> e =
      ReachEngine(ReachableSendlogProgram(), topo, opts);
  ASSERT_NE(e, nullptr);

  ChurnDriver driver(*e, /*link_arity=*/2);
  Result<ChurnReport> report =
      driver.Replay(ChurnScript::CompromiseAt(1.0, "n1"));
  ASSERT_TRUE(report.ok()) << report.status();

  // 0 -> 3 survives via 2; node 1's own (revoked) routes are gone.
  std::vector<Tuple> at0 = e->TuplesAt(0, "reachable");
  EXPECT_NE(std::find(at0.begin(), at0.end(), Reach(0, 3)), at0.end());
  EXPECT_TRUE(e->TuplesAt(1, "reachable").empty())
      << "everything node 1 stored was asserted by the revoked n1";
}

}  // namespace
}  // namespace provnet
