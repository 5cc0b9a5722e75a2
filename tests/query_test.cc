// ProvQuery subsystem (src/query/): the typed provenance-query API, its
// proof DAGs, semiring evaluations, limits, per-query accounting, and the
// authenticated wire path.
//
// The oracles:
//   * equivalence - the distributed pointer-walk reconstructs, byte for
//     byte (canonical form), the proof the local full-provenance tree
//     stores, on golden topologies;
//   * accounting  - query traffic is real metered traffic, visible in
//     QueryStats, the network meters, and the engine's cumulative
//     prov_queries / prov_query_bytes counters;
//   * hostility   - forged, replayed, misdirected, and unsolicited
//     kMsgProvResponse messages are rejected, counted, and audited; a
//     request of an unknown kind is malformed; framed annotation cubes are
//     rejected by the receive-side framing check.

#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/adversary.h"
#include "adversary/campaign.h"
#include "apps/programs.h"
#include "core/engine.h"
#include "core/envelope.h"
#include "net/faults.h"
#include "net/topology.h"
#include "query/provquery.h"

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

std::unique_ptr<Engine> RunReach(const Topology& topo, EngineOptions opts) {
  auto engine =
      Engine::Create(topo, ReachableSendlogProgram(), std::move(opts)).value();
  for (const TopoEdge& e : topo.edges) {
    EXPECT_TRUE(engine->InsertFact(e.from, Link2(e.from, e.to)).ok());
  }
  EXPECT_TRUE(engine->Run().ok());
  return engine;
}

EngineOptions PointerAuthOptions() {
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = ProvMode::kPointers;
  return opts;
}

Topology Diamond() {
  Topology topo;
  topo.num_nodes = 4;
  topo.edges = {{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}};
  return topo;
}

// --- Golden equivalence: distributed walk == local full tree ----------------

class GoldenEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GoldenEquivalence, DistributedDagByteIdenticalToLocalTree) {
  Topology topo =
      GetParam() == 0 ? Topology::FigureAbc() : Topology::Line(4);
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = ProvMode::kFull;  // store trees *and* pointer records
  opts.record_online = true;
  auto engine = RunReach(topo, opts);

  for (NodeId n = 0; n < engine->num_nodes(); ++n) {
    for (const Tuple& t : engine->TuplesAt(n, "reachable")) {
      QueryResult local = ProvQueryBuilder(*engine)
                              .At(n)
                              .Of(t)
                              .WithScope(QueryScope::kLocal)
                              .Run()
                              .value();
      QueryResult distributed = ProvQueryBuilder(*engine)
                                    .At(n)
                                    .Of(t)
                                    .WithScope(QueryScope::kDistributed)
                                    .Run()
                                    .value();
      EXPECT_EQ(local.dag.CanonicalBytes(), distributed.dag.CanonicalBytes())
          << "node " << n << " tuple " << t.ToString();
      EXPECT_EQ(local.dag.Leaves(), distributed.dag.Leaves());
      EXPECT_EQ(local.dag.OriginNodes(), distributed.dag.OriginNodes());
      // The folded polynomials agree too (same proof => same annotation).
      EXPECT_TRUE(local.annotation.Equals(distributed.annotation))
          << local.annotation.ToString() << " vs "
          << distributed.annotation.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, GoldenEquivalence, ::testing::Range(0, 2));

TEST(ProvQueryTest, AutoScopePrefersStoredTreeAndFallsBackToWire) {
  Topology topo = Topology::FigureAbc();
  EngineOptions full_opts;
  full_opts.prov_mode = ProvMode::kFull;
  full_opts.record_online = true;
  auto full_engine = RunReach(topo, full_opts);

  uint64_t bytes0 = full_engine->network().total_bytes();
  QueryResult via_tree =
      ProvQueryBuilder(*full_engine).At(0).Of(Reach(0, 2)).Run().value();
  EXPECT_EQ(via_tree.used, QueryScope::kLocal);
  EXPECT_EQ(full_engine->network().total_bytes(), bytes0)
      << "local query must not touch the network";

  EngineOptions ptr_opts;
  ptr_opts.prov_mode = ProvMode::kPointers;
  auto ptr_engine = RunReach(topo, ptr_opts);
  QueryResult via_wire =
      ProvQueryBuilder(*ptr_engine).At(0).Of(Reach(0, 2)).Run().value();
  EXPECT_EQ(via_wire.used, QueryScope::kDistributed);
  EXPECT_GT(via_wire.stats.messages, 0u);
  EXPECT_EQ(via_tree.dag.CanonicalBytes(), via_wire.dag.CanonicalBytes());
}

TEST(ProvQueryTest, UnknownTupleIsNotFound) {
  auto engine = RunReach(Topology::FigureAbc(), PointerAuthOptions());
  Result<QueryResult> result = ProvQueryBuilder(*engine)
                                   .At(0)
                                   .Of(Tuple("reachable", {Value::Int(99)}))
                                   .WithScope(QueryScope::kDistributed)
                                   .Run();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// --- Accounting -------------------------------------------------------------

TEST(ProvQueryTest, CountersChargeQueriesAndBytes) {
  auto engine = RunReach(Topology::FigureAbc(), PointerAuthOptions());
  EXPECT_EQ(engine->cumulative_stats().prov_queries, 0u);
  EXPECT_EQ(engine->cumulative_stats().prov_query_bytes, 0u);

  uint64_t bytes0 = engine->network().total_bytes();
  QueryResult result = ProvQueryBuilder(*engine)
                           .At(0)
                           .Of(Reach(0, 2))
                           .WithScope(QueryScope::kDistributed)
                           .Run()
                           .value();
  EXPECT_GT(result.stats.requests, 0u);
  EXPECT_EQ(result.stats.responses, result.stats.requests);
  EXPECT_GT(result.stats.bytes, 0u);
  EXPECT_EQ(result.stats.bytes, engine->network().total_bytes() - bytes0);

  const RunStats& totals = engine->cumulative_stats();
  EXPECT_EQ(totals.prov_queries, 1u);
  // Request and response traffic both ride the signed query envelope.
  EXPECT_EQ(totals.prov_query_bytes, result.stats.bytes);
  EXPECT_EQ(totals.prov_responses_rejected, 0u);

  // The counters are part of the printable stats contract.
  std::string printed = totals.ToString();
  EXPECT_NE(printed.find("prov_queries=1"), std::string::npos) << printed;
  EXPECT_NE(printed.find("prov_query_bytes="), std::string::npos);
  EXPECT_NE(printed.find("prov_responses_rejected=0"), std::string::npos);
  EXPECT_NE(printed.find("prov_frames_rejected=0"), std::string::npos);
}

TEST(ProvQueryTest, OfflineArchiveServesAsFallback) {
  // Archive-only recording: the online store is never populated, so every
  // hop of the walk must fall back to the offline archive (forensics over
  // state the online stores no longer cover).
  EngineOptions opts;
  opts.prov_mode = ProvMode::kCondensed;
  opts.record_offline = true;
  auto engine = RunReach(Topology::FigureAbc(), opts);
  ASSERT_EQ(engine->node(0).online_store().size(), 0u);
  QueryResult result = ProvQueryBuilder(*engine)
                           .At(0)
                           .Of(Reach(0, 2))
                           .WithScope(QueryScope::kDistributed)
                           .Run()
                           .value();
  EXPECT_GT(result.stats.offline_hits, 0u);
  EXPECT_FALSE(result.dag.Leaves().empty());
}

// --- Limits -----------------------------------------------------------------

TEST(ProvQueryTest, DepthLimitTruncatesAndSavesTraffic) {
  Topology line = Topology::Line(6);
  auto engine = RunReach(line, PointerAuthOptions());
  Tuple far = Reach(0, 5);

  QueryResult unbounded = ProvQueryBuilder(*engine)
                              .At(0)
                              .Of(far)
                              .WithScope(QueryScope::kDistributed)
                              .Run()
                              .value();
  QueryResult shallow = ProvQueryBuilder(*engine)
                            .At(0)
                            .Of(far)
                            .WithScope(QueryScope::kDistributed)
                            .MaxDepth(2)
                            .Run()
                            .value();
  EXPECT_GT(shallow.stats.truncated, 0u);
  EXPECT_LT(shallow.stats.messages, unbounded.stats.messages);
  EXPECT_LE(shallow.stats.depth, 2u);
  // The cut branches surface as missing leaves, not silent omissions.
  bool has_missing = false;
  for (const ProofNode& n : shallow.dag.nodes) {
    if (n.rule == kMissingRule) has_missing = true;
  }
  EXPECT_TRUE(has_missing);
  EXPECT_EQ(unbounded.stats.truncated, 0u);
}

TEST(ProvQueryTest, LimitsApplyToStoredTreesToo) {
  // The kLocal shortcut over a stored full-provenance tree honors the same
  // limits contract as the distributed walk: cut refs become missing
  // leaves and count into truncated.
  Topology line = Topology::Line(6);
  EngineOptions opts;
  opts.prov_mode = ProvMode::kFull;
  auto engine = RunReach(line, opts);

  QueryResult full = ProvQueryBuilder(*engine)
                         .At(0)
                         .Of(Reach(0, 5))
                         .WithScope(QueryScope::kLocal)
                         .Run()
                         .value();
  EXPECT_EQ(full.stats.truncated, 0u);

  QueryResult shallow = ProvQueryBuilder(*engine)
                            .At(0)
                            .Of(Reach(0, 5))
                            .WithScope(QueryScope::kLocal)
                            .MaxDepth(2)
                            .Run()
                            .value();
  EXPECT_GT(shallow.stats.truncated, 0u);
  EXPECT_LE(shallow.stats.depth, 2u);
  EXPECT_LT(shallow.dag.nodes.size(), full.dag.nodes.size());
  bool has_missing = false;
  for (const ProofNode& n : shallow.dag.nodes) {
    if (n.rule == kMissingRule) has_missing = true;
  }
  EXPECT_TRUE(has_missing);

  QueryResult bounded = ProvQueryBuilder(*engine)
                            .At(0)
                            .Of(Reach(0, 5))
                            .WithScope(QueryScope::kLocal)
                            .MaxRecords(2)
                            .Run()
                            .value();
  EXPECT_LE(bounded.stats.records, 2u);
  EXPECT_GT(bounded.stats.truncated, 0u);
}

TEST(ProvQueryTest, LimitThatCutsNothingLeavesStoredTreeProofsAlone) {
  // A stored full-provenance tree is imported under the walk's rules with
  // or without a limit: a limit that cuts nothing changes neither the
  // proof nor its record and depth accounting.
  Rng rng(7);
  Topology topo = Topology::RingPlusRandom(10, 3, rng);
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = ProvMode::kFull;
  auto engine =
      Engine::Create(topo, BestPathSendlogProgram(), opts).value();
  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());

  std::vector<Tuple> routes = engine->TuplesAt(0, "bestPath");
  ASSERT_EQ(routes.size(), 9u);
  for (const Tuple& route : routes) {
    SCOPED_TRACE(route.ToString());
    QueryResult unlimited = ProvQueryBuilder(*engine)
                                .At(0)
                                .Of(route)
                                .WithScope(QueryScope::kLocal)
                                .Run()
                                .value();
    QueryResult limited = ProvQueryBuilder(*engine)
                              .At(0)
                              .Of(route)
                              .WithScope(QueryScope::kLocal)
                              .MaxDepth(1000)
                              .Run()
                              .value();
    EXPECT_EQ(limited.dag.CanonicalBytes(), unlimited.dag.CanonicalBytes());
    EXPECT_GT(unlimited.stats.records, 0u);
    EXPECT_EQ(limited.stats.records, unlimited.stats.records);
    EXPECT_EQ(limited.stats.depth, unlimited.stats.depth);
    EXPECT_EQ(limited.stats.truncated, 0u);
  }
}

TEST(ProvQueryTest, RecordBudgetBoundsTheWalk) {
  auto engine = RunReach(Topology::Line(6), PointerAuthOptions());
  QueryResult result = ProvQueryBuilder(*engine)
                           .At(0)
                           .Of(Reach(0, 5))
                           .WithScope(QueryScope::kDistributed)
                           .MaxRecords(2)
                           .Run()
                           .value();
  EXPECT_LE(result.stats.records, 2u);
  EXPECT_GT(result.stats.truncated, 0u);
}

// --- Semiring evaluations over the reconstructed proof ----------------------

TEST(ProvQueryTest, SemiringFoldsOverDistributedProof) {
  auto engine = RunReach(Diamond(), PointerAuthOptions());
  QueryResult result = ProvQueryBuilder(*engine)
                           .At(0)
                           .Of(Reach(0, 3))
                           .WithScope(QueryScope::kDistributed)
                           .WithGrain(ProvGrain::kPrincipal)
                           .Run()
                           .value();

  // Two vertex-disjoint middle hops => two derivations.
  EXPECT_EQ(result.DerivationCount(), 2u);

  ProvVarRegistry& reg = engine->registry();
  ProvVar a = reg.Intern("n0"), b = reg.Intern("n1"), c = reg.Intern("n2");
  // Derivable trusting {a, b} (the 0->1->3 path), not from {b, c} alone.
  EXPECT_TRUE(result.DerivableFrom({{a, true}, {b, true}}));
  EXPECT_FALSE(result.DerivableFrom({{b, true}, {c, true}}));

  // Trust level: max over paths of min over principals.
  EXPECT_EQ(result.TrustLevel({{a, 5}, {b, 1}, {c, 3}}, 4), 3);

  // Condensed cube: <a*b*d + a*c*d> — two minimal support sets.
  EXPECT_EQ(result.Condensed().VoteCount(), 2u);

  // Tuple grain folds over base link facts instead of principals.
  QueryResult by_tuple = ProvQueryBuilder(*engine)
                             .At(0)
                             .Of(Reach(0, 3))
                             .WithScope(QueryScope::kDistributed)
                             .WithGrain(ProvGrain::kTuple)
                             .Run()
                             .value();
  EXPECT_EQ(by_tuple.annotation.Variables().size(), 4u);  // four links used
}

// --- Hostile responses ------------------------------------------------------

TEST(ProvQueryHostileTest, ForgedResponsesRejectedAndAudited) {
  Topology topo = Diamond();
  auto engine = RunReach(topo, PointerAuthOptions());
  Adversary adversary(*engine, /*seed=*/7);
  const NodeId mallory = 3;

  // Bad signature on a response claiming mallory's records.
  ASSERT_TRUE(adversary
                  .InjectForgedProvResponse(AttackKind::kForgeBadSig, mallory,
                                            0, /*query_id=*/12345,
                                            Link2(0, 3),
                                            engine->PrincipalOf(mallory))
                  .ok());
  // No signature at all.
  ASSERT_TRUE(adversary
                  .InjectForgedProvResponse(AttackKind::kForgeNoSig, mallory,
                                            0, /*query_id=*/12346,
                                            Link2(0, 3),
                                            engine->PrincipalOf(mallory))
                  .ok());
  // Stolen key: the signature verifies, so only the outstanding-query match
  // can catch it — there is no query 99999 outstanding.
  ASSERT_TRUE(adversary
                  .InjectForgedProvResponse(AttackKind::kForgeStolenKey,
                                            mallory, 0, /*query_id=*/99999,
                                            Link2(0, 3),
                                            engine->PrincipalOf(mallory))
                  .ok());
  engine->network().Run();

  const SecurityLog& log = engine->security_log();
  EXPECT_EQ(log.CountOf(SecurityEventKind::kBadSignature), 1u);
  EXPECT_EQ(log.CountOf(SecurityEventKind::kMissingSignature), 1u);
  EXPECT_EQ(log.CountOf(SecurityEventKind::kBogusResponse), 1u);
  EXPECT_EQ(engine->cumulative_stats().prov_responses_rejected, 3u);

  // And none of it polluted the stores: an honest query still answers with
  // the true proof.
  QueryResult result = ProvQueryBuilder(*engine)
                           .At(0)
                           .Of(Reach(0, 3))
                           .WithScope(QueryScope::kDistributed)
                           .Run()
                           .value();
  EXPECT_EQ(result.DerivationCount(), 2u);
}

TEST(ProvQueryHostileTest, ReplayedAndMisdirectedResponsesRejected) {
  Topology topo = Diamond();
  auto engine = RunReach(topo, PointerAuthOptions());
  Adversary adversary(*engine, /*seed=*/7);
  adversary.Compromise(1);  // on-path: captures the query traffic it relays

  // An honest query whose responses cross (or originate at) node 1.
  ASSERT_TRUE(ProvQueryBuilder(*engine)
                  .At(0)
                  .Of(Reach(0, 3))
                  .WithScope(QueryScope::kDistributed)
                  .Run()
                  .ok());
  ASSERT_GT(adversary.captured_count(), 0u);
  size_t rejected0 = engine->cumulative_stats().prov_responses_rejected;

  // Replay a captured response to its original destination: the per-sender
  // sequence window has already consumed that sequence number.
  ASSERT_TRUE(adversary.InjectReplay(1, {}, kMsgProvResponse).ok());
  engine->network().Run();
  EXPECT_EQ(engine->security_log().CountOf(SecurityEventKind::kReplay), 1u);

  // Divert a captured response to a different node: the signed destination
  // catches it even though that receiver never saw the sequence number.
  ASSERT_TRUE(adversary.InjectReplay(1, NodeId{2}, kMsgProvResponse).ok());
  engine->network().Run();
  EXPECT_GE(engine->security_log().CountOf(SecurityEventKind::kMisdirected) +
                engine->security_log().CountOf(SecurityEventKind::kReplay),
            2u);
  EXPECT_EQ(engine->cumulative_stats().prov_responses_rejected,
            rejected0 + 2);
}

TEST(ProvQueryHostileTest, RetiredQueryKindIsMalformed) {
  // Kind 2 once asked a node to compare claim digests for the auditor.
  // Nothing answers it any more: a validly signed request of that kind is
  // malformed content, audited once and dropped without a response.
  auto engine = RunReach(Topology::Line(3), PointerAuthOptions());
  const Principal sender = engine->PrincipalOf(1);
  ByteWriter body;
  body.PutU8(2);       // the retired kind
  body.PutU64(4242);   // query id
  body.PutVarint(1);   // one bucket of two differing digests
  body.PutVarint(0);
  body.PutVarint(2);
  body.PutU64(DigestOf(Link2(1, 0)));
  body.PutU64(DigestOf(Link2(1, 2)));
  SignedPrefix prefix;
  prefix.seq = engine->NextSendSeq(sender);
  prefix.dest = 0;
  const uint64_t span = engine->NewCausalSpan(1);
  prefix.causal = CausalIds{span, span};
  Envelope env;
  env.type = kMsgProvRequest;
  ByteWriter content;
  PutSignedPrefix(content, prefix, true);
  content.PutRaw(body.bytes().data(), body.size());
  env.content = std::move(content).Take();
  env.tag = engine->authenticator()
                .Say(sender, env.content, engine->options().says_level)
                .value();

  const uint64_t messages0 = engine->network().total_messages();
  ASSERT_TRUE(engine->network().Send(1, 0, env.Encode()).ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->network().total_messages() - messages0, 1u);
  ASSERT_EQ(engine->security_log().size(), 1u);
  EXPECT_EQ(engine->security_log().events()[0].kind,
            SecurityEventKind::kMalformed);
}

// --- Receive-side provenance framing check ----------------------------------

TEST(FramingTest, CubesOmittingTheSenderAreRejected) {
  Topology topo = Topology::FigureAbc();
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = ProvMode::kCondensed;
  opts.prov_grain = ProvGrain::kPrincipal;
  opts.node_names = {"a", "b", "c"};
  auto engine = RunReach(topo, opts);
  Adversary adversary(*engine, 7);

  // b's key is stolen; the forged link ships cubes blaming only c. The
  // framing check rejects it before any rule fires.
  Tuple forged = Link2(2, 0);
  ASSERT_TRUE(adversary.InjectFramedTuple(1, 0, forged, "b", "c").ok());
  ASSERT_TRUE(engine->Run().ok());

  EXPECT_EQ(
      engine->security_log().CountOf(SecurityEventKind::kForeignProvenance),
      1u);
  EXPECT_EQ(engine->cumulative_stats().prov_frames_rejected, 1u);
  std::vector<Tuple> links = engine->TuplesAt(0, "link");
  EXPECT_EQ(std::count(links.begin(), links.end(), forged), 0);

  // The same forgery naming the speaking key passes the framing check (and
  // is then the audit sweep's problem, as before).
  ASSERT_TRUE(adversary
                  .InjectForgedTuple(AttackKind::kForgeStolenKey, 1, 0,
                                     Link2(2, 1), "b")
                  .ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(
      engine->security_log().CountOf(SecurityEventKind::kForeignProvenance),
      1u);
}

TEST(FramingTest, HonestCondensedTrafficPassesTheCheck) {
  // Every honest shipped cube contains the sender's own variable; the check
  // must be invisible to a clean run (including the aggregate-heavy
  // Best-Path workload).
  Rng rng(42);
  Topology topo = Topology::RingPlusRandom(12, 3, rng);
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = ProvMode::kCondensed;
  auto engine =
      Engine::Create(topo, BestPathSendlogProgram(), opts).value();
  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->cumulative_stats().prov_frames_rejected, 0u);
  EXPECT_EQ(engine->security_log().size(), 0u);
}

// --- Distributed equivocation audit -----------------------------------------

TEST(ClaimsExchangeTest, AuditChargesBandwidthAndStillFindsConflicts) {
  Topology topo;
  topo.num_nodes = 6;
  for (NodeId i = 0; i < 6; ++i) {
    topo.edges.push_back(TopoEdge{i, static_cast<NodeId>((i + 1) % 6), 1});
  }
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  auto engine = Engine::Create(topo, BestPathNdlogProgram(), opts).value();
  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());
  Adversary adversary(*engine, 7);

  ASSERT_TRUE(adversary
                  .InjectEquivocation(2, 0, Link3(2, 4, 1), 5, Link3(2, 4, 99))
                  .ok());
  ASSERT_TRUE(engine->Run().ok());

  uint64_t bytes0 = engine->network().total_bytes();
  uint64_t queries0 = engine->cumulative_stats().prov_queries;
  std::vector<EquivocationFinding> findings =
      EquivocationAudit(*engine, {"link"}, /*skip_nodes=*/{2}).value();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].principal, engine->PrincipalOf(2));
  EXPECT_NE(findings[0].claim_a, findings[0].claim_b);
  // The digest exchange is real metered traffic now.
  EXPECT_GT(engine->network().total_bytes(), bytes0);
  EXPECT_GT(engine->cumulative_stats().prov_query_bytes, 0u);
  EXPECT_EQ(engine->cumulative_stats().prov_queries, queries0 + 1);
  EXPECT_EQ(engine->security_log().CountOf(SecurityEventKind::kReplay), 0u);
}

// Two equivocators among the clean claims of an 8-node ring, run to
// quiescence: n2 tells n0 and n4 different costs for one link, n3 tells n1
// and n5 different costs for another.
std::unique_ptr<Engine> TwoEquivocatorRing(FaultPlan plan = {}) {
  Topology topo;
  topo.num_nodes = 8;
  for (NodeId i = 0; i < 8; ++i) {
    topo.edges.push_back(TopoEdge{i, static_cast<NodeId>((i + 1) % 8), 1});
  }
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.fault_plan = std::move(plan);
  auto engine = Engine::Create(topo, BestPathNdlogProgram(), opts).value();
  EXPECT_TRUE(engine->InsertLinkFacts().ok());
  EXPECT_TRUE(engine->Run().ok());
  Adversary adversary(*engine, 11);
  EXPECT_TRUE(adversary
                  .InjectEquivocation(2, 0, Link3(2, 5, 1), 4, Link3(2, 5, 77))
                  .ok());
  EXPECT_TRUE(adversary
                  .InjectEquivocation(3, 1, Link3(3, 6, 2), 5, Link3(3, 6, 88))
                  .ok());
  EXPECT_TRUE(engine->Run().ok());
  return engine;
}

void ExpectSameFindings(const std::vector<EquivocationFinding>& got,
                        const std::vector<EquivocationFinding>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "finding " << i);
    EXPECT_EQ(got[i].principal, want[i].principal);
    EXPECT_EQ(got[i].node_a, want[i].node_a);
    EXPECT_EQ(got[i].node_b, want[i].node_b);
    EXPECT_EQ(got[i].claim_a, want[i].claim_a);
    EXPECT_EQ(got[i].claim_b, want[i].claim_b);
  }
}

TEST(ClaimsExchangeTest, TwoEquivocatorsAreFoundAndFindingsAreStable) {
  // The auditor compares everything it collected itself.
  std::unique_ptr<Engine> engine = TwoEquivocatorRing();

  uint64_t messages0 = engine->network().total_messages();
  uint64_t query_bytes0 = engine->cumulative_stats().prov_query_bytes;
  std::vector<EquivocationFinding> findings =
      EquivocationAudit(*engine, {"link"}, /*skip_nodes=*/{2, 3}).value();
  ASSERT_EQ(findings.size(), 2u);
  std::set<Principal> flagged;
  for (const EquivocationFinding& f : findings) {
    flagged.insert(f.principal);
    EXPECT_NE(f.claim_a, f.claim_b);
  }
  EXPECT_EQ(flagged, (std::set<Principal>{engine->PrincipalOf(2),
                                          engine->PrincipalOf(3)}));
  // The audit's only traffic is the claims collection: 5 responders, one
  // request and one response each. The comparison sends nothing.
  uint64_t audit_messages = engine->network().total_messages() - messages0;
  EXPECT_EQ(audit_messages, 10u);
  EXPECT_GT(engine->cumulative_stats().prov_query_bytes, query_bytes0);
  // Nothing went unanswered, and nothing tripped the replay/bogus checks.
  EXPECT_EQ(
      engine->security_log().CountOf(SecurityEventKind::kSilentResponder),
      0u);
  EXPECT_EQ(
      engine->security_log().CountOf(SecurityEventKind::kBogusResponse), 0u);

  // The comparison follows the collected order, so re-running the audit
  // over unchanged state reproduces the findings exactly.
  ExpectSameFindings(
      EquivocationAudit(*engine, {"link"}, /*skip_nodes=*/{2, 3}).value(),
      findings);
}

TEST(ClaimsExchangeTest, FindingsDoNotDependOnResponseOrder) {
  // Loss and retransmission change the order the claims responses arrive
  // in; the findings (which claim of a key counts as first) must not move.
  std::vector<EquivocationFinding> want =
      EquivocationAudit(*TwoEquivocatorRing(), {"link"}, {2, 3}).value();
  ASSERT_EQ(want.size(), 2u);
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(::testing::Message() << "loss seed " << seed);
    std::unique_ptr<Engine> engine =
        TwoEquivocatorRing(FaultPlan::UniformLoss(0.05, seed));
    for (int audit = 0; audit < 2; ++audit) {
      ExpectSameFindings(
          EquivocationAudit(*engine, {"link"}, {2, 3}).value(), want);
    }
  }
}

// --- Query metering ---------------------------------------------------------

// RunQuerySession meters each session kind once: a distributed walk is one
// query, one virtual-time latency sample and one `provquery` span; a kLocal
// walk sends nothing and counts nothing; an audit's claims collection counts
// one query and adds only hop samples.
TEST(QueryMeteringTest, EachSessionKindIsMeteredOnce) {
  Rng rng(7);
  Topology topo = Topology::RingPlusRandom(10, 3, rng);
  auto engine =
      Engine::Create(topo, BestPathSendlogProgram(), PointerAuthOptions())
          .value();
  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());
  engine->tracer().Enable(1 << 16);
  const obs::Histogram* latency =
      engine->metrics().GetHistogram("provquery.latency_s");
  const obs::Histogram* hops =
      engine->metrics().GetHistogram("provquery.hop_latency_s");
  auto queries = [&] { return engine->cumulative_stats().prov_queries; };
  auto spans = [&] {
    size_t count = 0;
    for (const obs::TraceEvent* ev : engine->tracer().Events()) {
      if (ev->kind == "provquery") ++count;
    }
    return count;
  };

  // A route of three or more hops: its proof spans several nodes.
  Tuple route;
  for (const Tuple& t : engine->TuplesAt(0, "bestPath")) {
    if (t.arg(2).AsList().size() >= 3) {
      route = t;
      break;
    }
  }
  ASSERT_FALSE(route.predicate().empty());

  QueryResult walk = ProvQueryBuilder(*engine)
                         .At(0)
                         .Of(route)
                         .WithScope(QueryScope::kDistributed)
                         .Run()
                         .value();
  ASSERT_GT(walk.stats.responses, 0u);
  EXPECT_EQ(queries(), 1u);
  EXPECT_EQ(latency->count(), 1u);
  EXPECT_EQ(spans(), 1u);
  EXPECT_EQ(hops->count(), walk.stats.responses);

  QueryResult local = ProvQueryBuilder(*engine)
                          .At(0)
                          .Of(route)
                          .WithScope(QueryScope::kLocal)
                          .Run()
                          .value();
  EXPECT_EQ(local.stats.messages, 0u);
  EXPECT_EQ(queries(), 1u);
  EXPECT_EQ(latency->count(), 1u);
  EXPECT_EQ(spans(), 1u);
  EXPECT_EQ(hops->count(), walk.stats.responses);

  ClaimsExchange claims(*engine, /*auditor=*/0);
  ASSERT_TRUE(claims.Collect({"link"}, /*skip_nodes=*/{}).ok());
  ASSERT_GT(claims.stats().responses, 0u);
  EXPECT_EQ(queries(), 2u);
  EXPECT_EQ(latency->count(), 1u);
  EXPECT_EQ(spans(), 1u);
  EXPECT_EQ(hops->count(), walk.stats.responses + claims.stats().responses);
  EXPECT_TRUE(claims.silent().empty());
}

}  // namespace
}  // namespace provnet
