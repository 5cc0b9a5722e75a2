// Adversary subsystem (src/adversary/): Byzantine fault injection, the
// receive-side verification pipeline, retraction authorization, and the
// attack-campaign driver with its detection/traceback scorer.
//
// The oracles:
//   * rejection  - every verification-defeatable attack (bad/missing
//     signature, unknown principal, replay, misdirection, unauthorized
//     retraction) leaves an audit event and no state change;
//   * detection  - attacks that pass verification (stolen keys,
//     equivocation) are localized to the correct principal by the audit
//     sweep's provenance machinery, and the response purges them;
//   * innocence  - an all-honest campaign leaves fixpoints identical to a
//     run without the adversary subsystem attached at all.
#include <gtest/gtest.h>

#include <algorithm>

#include "adversary/adversary.h"
#include "adversary/audit.h"
#include "adversary/campaign.h"
#include "apps/programs.h"
#include "core/engine.h"
#include "dynamics/churn.h"
#include "net/topology.h"
#include "query/provquery.h"

namespace provnet {
namespace {

Tuple Link3(NodeId a, NodeId b, int64_t c) {
  return Tuple("link", {Value::Address(a), Value::Address(b), Value::Int(c)});
}

EngineOptions AuthOptions() {
  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;  // cheap enough for every test
  return opts;
}

EngineOptions AuthProvOptions() {
  EngineOptions opts = AuthOptions();
  opts.prov_mode = ProvMode::kCondensed;
  opts.prov_grain = ProvGrain::kPrincipal;
  opts.record_online = true;  // traceback queries need records
  return opts;
}

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

void ExpectSamePredAt(Engine& got_engine, Engine& want_engine,
                      const std::string& pred,
                      const std::set<NodeId>& skip = {}) {
  ASSERT_EQ(got_engine.num_nodes(), want_engine.num_nodes());
  for (NodeId n = 0; n < got_engine.num_nodes(); ++n) {
    if (skip.count(n) != 0) continue;
    std::vector<Tuple> got = got_engine.TuplesAt(n, pred);
    std::vector<Tuple> want = want_engine.TuplesAt(n, pred);
    ASSERT_EQ(got.size(), want.size()) << pred << " size at node " << n;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << pred << " at node " << n;
    }
  }
}

Topology Ring(size_t n, int64_t cost = 1) {
  Topology topo;
  topo.num_nodes = n;
  for (NodeId i = 0; i < n; ++i) {
    topo.edges.push_back(TopoEdge{i, static_cast<NodeId>((i + 1) % n), cost});
  }
  return topo;
}

// Edges not asserted by `without`: the golden topology after revoking a
// compromised principal (its own link facts die; links *into* it survive).
Topology WithoutAssertionsOf(const Topology& topo, NodeId without) {
  Topology out;
  out.num_nodes = topo.num_nodes;
  for (const TopoEdge& e : topo.edges) {
    if (e.from == without) continue;
    out.edges.push_back(e);
  }
  return out;
}

// --- ReplayGuard ------------------------------------------------------------

TEST(ReplayGuardTest, AcceptsFreshRejectsDuplicatesAndStale) {
  ReplayGuard guard;
  EXPECT_TRUE(guard.Accept(5));
  EXPECT_FALSE(guard.Accept(5));  // duplicate: the replay case
  EXPECT_TRUE(guard.Accept(7));   // gaps are fine (one counter, many peers)
  EXPECT_TRUE(guard.Accept(6));   // late, but never accepted before
  EXPECT_FALSE(guard.Accept(6));
  EXPECT_TRUE(guard.Accept(1000));
  EXPECT_FALSE(guard.Accept(7));  // replay far behind the newest sequence
  EXPECT_FALSE(guard.Accept(6));  // so is its late-accepted neighbor
  // Far behind the newest sequence but never accepted: a lost original
  // retransmitted late. The exact record accepts it once, then rejects the
  // true replay of the same bytes.
  EXPECT_TRUE(guard.Accept(900));
  EXPECT_FALSE(guard.Accept(900));
  EXPECT_TRUE(guard.Accept(990));   // close behind the newest, never seen
  EXPECT_FALSE(guard.Accept(990));
}

// --- Network send tap -------------------------------------------------------

TEST(NetworkTapTest, DropDelayAndMetering) {
  Network net(3, 0.01);
  size_t delivered = 0;
  double last_delivery = 0.0;
  net.SetHandler([&](NodeId, NodeId, const Bytes&) {
    ++delivered;
    last_delivery = net.now();
  });
  net.SetSendTap([](const NetMessage& msg) {
    Network::TapVerdict verdict;
    if (msg.from == 1) verdict.drop = true;
    if (msg.from == 2) verdict.extra_delay_s = 5.0;
    return verdict;
  });

  ASSERT_TRUE(net.Send(0, 1, Bytes{1, 2, 3}).ok());
  ASSERT_TRUE(net.Send(1, 2, Bytes{4, 5, 6}).ok());  // dropped
  ASSERT_TRUE(net.Send(2, 0, Bytes{7}).ok());        // delayed
  net.Run();

  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(net.dropped_messages(), 1u);
  EXPECT_EQ(net.delayed_messages(), 1u);
  // Dropped bytes never touched the wire.
  EXPECT_EQ(net.total_bytes(), 4u);
  EXPECT_GE(last_delivery, 5.0);
}

// --- Verification pipeline rejections ---------------------------------------

TEST(AdversaryTest, ForgedBadSignatureRejected) {
  Topology topo = Ring(5);
  std::unique_ptr<Engine> engine = BestPathEngine(topo, AuthOptions());
  std::unique_ptr<Engine> golden = BestPathEngine(topo, AuthOptions());
  Adversary adversary(*engine, /*seed=*/7);

  // Node 3 forges a zero-cost link at node 1 but corrupts the proof.
  ASSERT_TRUE(adversary
                  .InjectForgedTuple(AttackKind::kForgeBadSig, 3, 1,
                                     Link3(1, 4, 0),
                                     engine->PrincipalOf(3))
                  .ok());
  ASSERT_TRUE(engine->Run().ok());

  EXPECT_EQ(engine->security_log().CountOf(SecurityEventKind::kBadSignature),
            1u);
  std::vector<Tuple> links = engine->TuplesAt(1, "link");
  EXPECT_EQ(std::count(links.begin(), links.end(), Link3(1, 4, 0)), 0);
  ExpectSamePredAt(*engine, *golden, "bestPath");
}

TEST(AdversaryTest, MissingSignatureRejected) {
  Topology topo = Ring(5);
  std::unique_ptr<Engine> engine = BestPathEngine(topo, AuthOptions());
  Adversary adversary(*engine, 7);

  ASSERT_TRUE(adversary
                  .InjectForgedTuple(AttackKind::kForgeNoSig, 3, 1,
                                     Link3(1, 4, 0),
                                     engine->PrincipalOf(3))
                  .ok());
  ASSERT_TRUE(engine->Run().ok());

  EXPECT_EQ(
      engine->security_log().CountOf(SecurityEventKind::kMissingSignature),
      1u);
  std::vector<Tuple> links = engine->TuplesAt(1, "link");
  EXPECT_EQ(std::count(links.begin(), links.end(), Link3(1, 4, 0)), 0);
}

TEST(AdversaryTest, UnknownPrincipalRejected) {
  Topology topo = Ring(5);
  std::unique_ptr<Engine> engine = BestPathEngine(topo, AuthOptions());
  Adversary adversary(*engine, 7);

  // An invented identity: the simulated PKI would happily derive "mallory"
  // keys, so deployment membership must be what rejects it.
  ASSERT_TRUE(adversary
                  .InjectForgedTuple(AttackKind::kForgeStolenKey, 3, 1,
                                     Link3(1, 4, 0), "mallory")
                  .ok());
  ASSERT_TRUE(engine->Run().ok());

  EXPECT_EQ(
      engine->security_log().CountOf(SecurityEventKind::kUnknownPrincipal),
      1u);
  std::vector<Tuple> links = engine->TuplesAt(1, "link");
  EXPECT_EQ(std::count(links.begin(), links.end(), Link3(1, 4, 0)), 0);
}

TEST(AdversaryTest, ReplayedMessageRejectedBySequenceWindow) {
  Topology topo = Ring(6);
  Result<std::unique_ptr<Engine>> created =
      Engine::Create(topo, BestPathNdlogProgram(), AuthOptions());
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<Engine> engine = std::move(created).value();
  Adversary adversary(*engine, 7);
  adversary.Compromise(2);  // on-path: captures traffic crossing node 2

  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());
  ASSERT_GT(adversary.captured_count(), 0u);
  std::unique_ptr<Engine> golden = BestPathEngine(topo, AuthOptions());

  // Replay to the original destination: the per-sender sequence window has
  // already consumed that sequence number.
  ASSERT_TRUE(adversary.InjectReplay(2).ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->security_log().CountOf(SecurityEventKind::kReplay), 1u);

  // Replay diverted to a different node: the signed destination catches it
  // even though that receiver never saw the sequence number.
  ASSERT_TRUE(adversary.InjectReplay(2, NodeId{5}).ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_GE(engine->security_log().CountOf(SecurityEventKind::kMisdirected) +
                engine->security_log().CountOf(SecurityEventKind::kReplay),
            2u);

  ExpectSamePredAt(*engine, *golden, "bestPath");
  ExpectSamePredAt(*engine, *golden, "link");
}

TEST(AdversaryTest, ReplayRecordNamesTheReplayedTuple) {
  for (bool authenticate : {true, false}) {
    SCOPED_TRACE(authenticate ? "authenticated" : "unauthenticated");
    EngineOptions opts = AuthOptions();
    opts.authenticate = authenticate;
    opts.prov_mode = ProvMode::kPointers;
    std::unique_ptr<Engine> engine =
        Engine::Create(Ring(6), BestPathSendlogProgram(), opts).value();
    Adversary adversary(*engine, 7);
    adversary.Compromise(2);  // captures tuples, retracts and query answers
    ASSERT_TRUE(engine->InsertLinkFacts().ok());
    ASSERT_TRUE(engine->Run().ok());
    // Its retractions travel upstream through node 2.
    ASSERT_TRUE(engine->DeleteFact(4, Link3(4, 5, 1)).ok());
    ASSERT_TRUE(engine->Run().ok());
    std::vector<Tuple> best = engine->TuplesAt(2, "bestPath");
    ASSERT_FALSE(best.empty());
    ASSERT_TRUE(ProvQueryBuilder(*engine)
                    .At(2)
                    .Of(best.back())
                    .WithScope(QueryScope::kDistributed)
                    .Run()
                    .ok());

    for (uint8_t type : {kMsgTuple, kMsgRetract, kMsgProvResponse}) {
      SCOPED_TRACE(MsgKindName(type));
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(adversary.InjectReplay(2, {}, type).ok());
        const InjectionRecord& rec = adversary.injections().back();
        // The says tag's principal: a member of the deployment.
        EXPECT_TRUE(engine->NodeOf(rec.claimed).ok()) << rec.claimed;
        if (type == kMsgProvResponse) {
          EXPECT_EQ(rec.tuple, Tuple());
          continue;
        }
        // The carried tuple. Shipped tuples are located at the node the
        // captured message was addressed to, the replay's victim.
        ASSERT_GT(rec.tuple.arity(), 0u) << rec.tuple.ToString();
        EXPECT_EQ(rec.tuple.arg(0), Value::Address(rec.victim))
            << rec.tuple.ToString();
      }
      ASSERT_TRUE(engine->Run().ok());
    }
  }
}

TEST(AdversaryTest, FaultDuplicationDedupsSilentlyButTrueReplayStillAudits) {
  // Two kinds of "the same bytes twice" must be told apart: a benign
  // duplication fault re-delivers an honest frame (the transport dedups it
  // below the engine, no audit), while an adversarial replay re-sends
  // captured signed bytes under a fresh frame (the ReplayGuard fires).
  Topology topo = Ring(6);
  EngineOptions opts = AuthOptions();
  FaultPlan plan;
  plan.seed = 13;
  LinkFaultSpec dup;
  dup.duplication = 0.5;  // every other frame arrives twice
  plan.links.push_back(dup);
  opts.fault_plan = plan;
  Result<std::unique_ptr<Engine>> created =
      Engine::Create(topo, BestPathNdlogProgram(), opts);
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<Engine> engine = std::move(created).value();
  Adversary adversary(*engine, /*seed=*/7);
  adversary.Compromise(2);  // on-path capture of traffic crossing node 2

  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());

  // Duplication bit, was masked, and raised zero replay audits.
  EXPECT_GT(engine->network().duplicates_deduped(), 0u);
  EXPECT_EQ(engine->security_log().CountOf(SecurityEventKind::kReplay), 0u);
  std::unique_ptr<Engine> golden = BestPathEngine(topo, AuthOptions());
  ExpectSamePredAt(*engine, *golden, "bestPath");

  // The attacker replays the very bytes the transport would have deduped if
  // they were a benign duplicate — but they arrive as a fresh transmission,
  // so the adversary layer's sequence window still catches them.
  ASSERT_GT(adversary.captured_count(), 0u);
  ASSERT_TRUE(adversary.InjectReplay(2).ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->security_log().CountOf(SecurityEventKind::kReplay), 1u);
  ExpectSamePredAt(*engine, *golden, "bestPath");
}

// --- Retraction authorization (ROADMAP follow-up from PR 1) -----------------

TEST(AdversaryTest, HostileRetractorRejected) {
  Topology topo = Ring(5);
  std::unique_ptr<Engine> engine = BestPathEngine(topo, AuthOptions());
  std::unique_ptr<Engine> golden = BestPathEngine(topo, AuthOptions());
  Adversary adversary(*engine, 7);

  // Node 3 demands node 1 drop its own link fact. Node 3 never asserted it
  // and holds no capability: rejected, audited, nothing changes.
  ASSERT_TRUE(adversary.InjectRogueRetract(3, 1, Link3(1, 2, 1)).ok());
  ASSERT_TRUE(engine->Run().ok());

  EXPECT_EQ(
      engine->security_log().CountOf(SecurityEventKind::kUnauthorizedRetract),
      1u);
  std::vector<Tuple> links = engine->TuplesAt(1, "link");
  EXPECT_EQ(std::count(links.begin(), links.end(), Link3(1, 2, 1)), 1);
  ExpectSamePredAt(*engine, *golden, "bestPath");
}

TEST(AdversaryTest, HonestDeletionCascadeStillAuthorized) {
  // The authorization check must not break honest DRed: an authenticated
  // link deletion still tears down remote consequences (the retract
  // messages come from the principals that asserted those heads).
  Topology topo = Ring(5);
  std::unique_ptr<Engine> engine = BestPathEngine(topo, AuthOptions());

  ASSERT_TRUE(engine->DeleteFact(1, Link3(1, 2, 1)).ok());
  ASSERT_TRUE(engine->Run().ok());

  Topology reduced = topo;
  reduced.edges.erase(
      std::remove_if(reduced.edges.begin(), reduced.edges.end(),
                     [](const TopoEdge& e) {
                       return e.from == 1 && e.to == 2;
                     }),
      reduced.edges.end());
  std::unique_ptr<Engine> golden = BestPathEngine(reduced, AuthOptions());
  ExpectSamePredAt(*engine, *golden, "bestPath");
  EXPECT_EQ(engine->security_log().CountOf(
                SecurityEventKind::kUnauthorizedRetract),
            0u);
}

TEST(AdversaryTest, OperatorCapabilityMayRetractForeignTuples) {
  Topology topo = Ring(5);
  EngineOptions opts = AuthOptions();
  opts.operators.push_back("n3");  // node 3 is the network operator
  std::unique_ptr<Engine> engine = BestPathEngine(topo, opts);
  Adversary adversary(*engine, 7);

  ASSERT_TRUE(adversary.InjectRogueRetract(3, 1, Link3(1, 2, 1)).ok());
  ASSERT_TRUE(engine->Run().ok());

  EXPECT_EQ(
      engine->security_log().CountOf(SecurityEventKind::kUnauthorizedRetract),
      0u);
  std::vector<Tuple> links = engine->TuplesAt(1, "link");
  EXPECT_EQ(std::count(links.begin(), links.end(), Link3(1, 2, 1)), 0);
}

TEST(AdversaryTest, RemoteCountHeadRetractionAuthorizedAndMaintained) {
  // An aggregate head computed *remotely*: the retract names the candidate
  // (aggregate column = contributing value), never the stored count, so
  // authorization must consult the group row — and any contributor may
  // retract its own contribution even after the group's asserted_by
  // rotated to a later one.
  const char* program = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(indeg, infinity, infinity, keys(1)).
    i1 indeg(@D, count<S>) :- link(@S, D, C).
  )";
  Topology topo;
  topo.num_nodes = 4;
  topo.edges = {{0, 2, 1}, {1, 2, 1}};
  Result<std::unique_ptr<Engine>> created =
      Engine::Create(topo, program, AuthOptions());
  ASSERT_TRUE(created.ok()) << created.status();
  std::unique_ptr<Engine> engine = std::move(created).value();
  ASSERT_TRUE(engine->InsertLinkFacts().ok());
  ASSERT_TRUE(engine->Run().ok());
  Tuple indeg2("indeg", {Value::Address(2), Value::Int(2)});
  ASSERT_EQ(engine->TuplesAt(2, "indeg"), std::vector<Tuple>{indeg2});

  // Node 0 honestly deletes its link: the cross-node retraction must pass
  // authorization and the count must drop.
  ASSERT_TRUE(engine->DeleteFact(0, Link3(0, 2, 1)).ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->security_log().CountOf(
                SecurityEventKind::kUnauthorizedRetract),
            0u);
  Tuple indeg1("indeg", {Value::Address(2), Value::Int(1)});
  EXPECT_EQ(engine->TuplesAt(2, "indeg"), std::vector<Tuple>{indeg1});

  // A non-contributor demanding the group's removal is still rejected.
  Adversary adversary(*engine, 7);
  Tuple candidate("indeg", {Value::Address(2), Value::Address(1)});
  ASSERT_TRUE(adversary.InjectRogueRetract(3, 2, candidate).ok());
  ASSERT_TRUE(engine->Run().ok());
  EXPECT_EQ(engine->security_log().CountOf(
                SecurityEventKind::kUnauthorizedRetract),
            1u);
  EXPECT_EQ(engine->TuplesAt(2, "indeg"), std::vector<Tuple>{indeg1});
}

TEST(AdversaryTest, PoisonedKilledVariablesAreConfinedToTheTarget) {
  // An attacker authorized to retract one trivial tuple of its own must not
  // be able to smuggle arbitrary killed variables into the epoch's global
  // restriction set (which prunes *unrelated* tuples' alternatives). The
  // oracle: a poisoned scenario behaves exactly like the unpoisoned one.
  Topology topo;  // diamond: 0->3 via 1 and via 2
  topo.num_nodes = 5;
  topo.edges = {{0, 1, 1}, {1, 3, 1}, {0, 2, 1}, {2, 3, 1}};

  EngineOptions opts = AuthOptions();
  opts.prov_mode = ProvMode::kCondensed;
  opts.prov_grain = ProvGrain::kTuple;

  auto run_scenario = [&](bool poisoned) -> std::pair<uint64_t, size_t> {
    Result<std::unique_ptr<Engine>> created =
        Engine::Create(topo, ReachableNdlogProgram(), opts);
    EXPECT_TRUE(created.ok()) << created.status();
    std::unique_ptr<Engine> engine = std::move(created).value();
    for (const TopoEdge& e : topo.edges) {
      EXPECT_TRUE(engine
                      ->InsertFact(e.from,
                                   Tuple("link", {Value::Address(e.from),
                                                  Value::Address(e.to)}))
                      .ok());
    }
    EXPECT_TRUE(engine->Run().ok());

    Adversary adversary(*engine, 7);
    // The attacker (node 4) plants an inert tuple of its own at node 0...
    Tuple junk("link", {Value::Address(4), Value::Address(0)});
    EXPECT_TRUE(adversary
                    .InjectForgedTuple(AttackKind::kForgeStolenKey, 4, 0,
                                       junk, engine->PrincipalOf(4))
                    .ok());
    EXPECT_TRUE(engine->Run().ok());
    // ...then retracts it, poisoned with the variable of an honest base
    // tuple (link(0,2) — the surviving alternative's support).
    std::vector<ProvVar> killed;
    if (poisoned) {
      killed.push_back(engine->registry().Intern(
          Tuple("link", {Value::Address(0), Value::Address(2)}).ToString()));
    }
    EXPECT_TRUE(adversary.InjectRogueRetract(4, 0, junk, killed).ok());
    // Same epoch: an honest deletion whose restriction consults the
    // epoch's killed set. reachable(0,3) must survive via the (0,2)
    // alternative without re-derivation.
    EXPECT_TRUE(engine->DeleteFact(0, Tuple("link", {Value::Address(0),
                                                     Value::Address(1)}))
                    .ok());
    Result<RunStats> stats = engine->Run();
    EXPECT_TRUE(stats.ok());
    Tuple reach03("reachable", {Value::Address(0), Value::Address(3)});
    std::vector<Tuple> at0 = engine->TuplesAt(0, "reachable");
    EXPECT_NE(std::find(at0.begin(), at0.end(), reach03), at0.end());
    return {stats.value().rederivations, at0.size()};
  };

  auto clean = run_scenario(false);
  auto poisoned = run_scenario(true);
  EXPECT_EQ(poisoned.first, clean.first)
      << "poisoned killed variables leaked into the restriction set";
  EXPECT_EQ(poisoned.second, clean.second);
}

// --- Equivocation audit -----------------------------------------------------

TEST(AdversaryTest, EquivocationAuditFlagsConflictingClaims) {
  Topology topo = Ring(6);
  std::unique_ptr<Engine> engine = BestPathEngine(topo, AuthOptions());
  Adversary adversary(*engine, 7);

  // Node 2 tells node 0 its link to 4 costs 1, and node 5 that it costs 99.
  ASSERT_TRUE(adversary
                  .InjectEquivocation(2, 0, Link3(2, 4, 1), 5,
                                      Link3(2, 4, 99))
                  .ok());
  ASSERT_TRUE(engine->Run().ok());

  std::vector<EquivocationFinding> findings =
      EquivocationAudit(*engine, {"link"}, /*skip_nodes=*/{2}).value();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].principal, engine->PrincipalOf(2));
  EXPECT_NE(findings[0].claim_a, findings[0].claim_b);
}

// --- Campaign: detection, localization, purge -------------------------------

TEST(CampaignTest, StolenKeyForgeryLocalizedAndPurged) {
  Rng rng(11);
  Topology topo = Topology::RingPlusRandom(10, 3, rng);
  std::unique_ptr<Engine> engine = BestPathEngine(topo, AuthProvOptions());
  Adversary adversary(*engine, 7);
  const NodeId mallory = 4;

  // The forged link (6 -> nowhere-cheap) is signed with mallory's real key:
  // verification passes, the victim's rules fire on it, and the forgery
  // spreads into derived state. Only the audit sweep can catch it.
  NodeId victim = 6;
  NodeId fake_dst = 0;
  for (NodeId cand = 0; cand < topo.num_nodes; ++cand) {
    bool neighbor = cand == victim;
    for (const TopoEdge& e : topo.edges) {
      if (e.from == victim && e.to == cand) neighbor = true;
    }
    if (!neighbor) fake_dst = cand;
  }

  AttackScript script;
  AttackAction forge;
  forge.kind = AttackKind::kForgeStolenKey;
  forge.attacker = mallory;
  forge.victim = victim;
  forge.tuple = Link3(victim, fake_dst, 0);
  script.AddAttack(1.0, forge);
  script.AddAuditSweeps(2.0, 1.0, 4.0);
  script.SortByTime();

  AttackCampaignDriver driver(*engine, adversary);
  Result<CampaignReport> report = driver.Replay(script);
  ASSERT_TRUE(report.ok()) << report.status();

  ASSERT_EQ(report.value().injected, 1u);
  ASSERT_EQ(report.value().detected, 1u);
  const AttackOutcome& outcome = report.value().outcomes[0];
  EXPECT_EQ(outcome.method, "audit:traceback");
  EXPECT_TRUE(outcome.localized_correct);
  EXPECT_EQ(outcome.localized.count(engine->PrincipalOf(mallory)), 1u);
  EXPECT_GT(outcome.latency(), 0.0);
  EXPECT_EQ(report.value().forged_in_fixpoint, 0u);

  // Post-response fixpoint: exactly a deployment where mallory asserted
  // nothing (honest nodes compared; mallory's own state is untrusted).
  std::unique_ptr<Engine> golden =
      BestPathEngine(WithoutAssertionsOf(topo, mallory), AuthProvOptions());
  ExpectSamePredAt(*engine, *golden, "bestPath", /*skip=*/{mallory});
}

TEST(CampaignTest, RejectionsCreditOnlyTheAttacksTheyEvidence) {
  Topology topo = Ring(6);
  std::unique_ptr<Engine> engine = BestPathEngine(topo, AuthProvOptions());
  Adversary adversary(*engine, 7);
  const NodeId victim = 0;

  // Three injections at one victim. The equivocation passes verification
  // there (only the audit can catch it); the framed forgery and the forged
  // provenance response are rejected there, as foreign_provenance and
  // bogus_response.
  ASSERT_TRUE(adversary
                  .InjectEquivocation(2, victim, Link3(2, 4, 1), 5,
                                      Link3(2, 4, 99))
                  .ok());
  ASSERT_TRUE(engine->Run().ok());
  ASSERT_TRUE(adversary
                  .InjectFramedTuple(1, victim, Link3(1, 4, 1),
                                     engine->PrincipalOf(1),
                                     engine->PrincipalOf(3))
                  .ok());
  ASSERT_TRUE(adversary
                  .InjectForgedProvResponse(AttackKind::kForgeStolenKey, 3,
                                            victim, /*query_id=*/99999,
                                            Link3(3, 4, 1),
                                            engine->PrincipalOf(3))
                  .ok());
  ASSERT_TRUE(engine->Run().ok());
  const SecurityLog& log = engine->security_log();
  ASSERT_EQ(log.CountOf(SecurityEventKind::kForeignProvenance), 1u);
  ASSERT_EQ(log.CountOf(SecurityEventKind::kBogusResponse), 1u);

  // The campaign picks the injections and the rejections up at its first
  // event (one link flap) and scores them.
  Rng churn_rng(3);
  AttackScript script;
  script.AddChurn(ChurnScript::RandomLinkFlaps(topo, /*flaps=*/1,
                                               /*start=*/1.0,
                                               /*spacing=*/1.0, churn_rng));
  script.SortByTime();
  AttackCampaignDriver driver(*engine, adversary);
  Result<CampaignReport> report = driver.Replay(script);
  ASSERT_TRUE(report.ok()) << report.status();
  const std::vector<AttackOutcome>& outcomes = report.value().outcomes;
  ASSERT_EQ(outcomes.size(), 4u);

  // The foreign annotation cube is evidence of the forged tuple, not of the
  // equivocation that reached the same node earlier.
  EXPECT_EQ(outcomes[0].injection.kind, AttackKind::kEquivocate);
  EXPECT_EQ(outcomes[0].method, "audit:equivocation");
  EXPECT_EQ(outcomes[1].method, "audit:equivocation");
  EXPECT_EQ(outcomes[2].injection.kind, AttackKind::kForgeStolenKey);
  EXPECT_EQ(outcomes[2].method, "verify:foreign_provenance");
  EXPECT_TRUE(outcomes[2].localized_correct);
  // A bogus response credits no injection record.
  for (const AttackOutcome& o : outcomes) {
    EXPECT_NE(o.method, "verify:bogus_response");
  }
  EXPECT_FALSE(outcomes[3].detected);
}

TEST(CampaignTest, AllHonestCampaignIsByteIdenticalToPlainChurn) {
  Rng rng(5);
  Topology topo = Topology::RingPlusRandom(12, 3, rng);
  Rng script_rng(99);
  ChurnScript churn = ChurnScript::RandomLinkFlaps(topo, /*flaps=*/4,
                                                  /*start=*/1.0,
                                                  /*spacing=*/1.0,
                                                  script_rng);

  // Campaign engine: adversary attached, nobody compromised, full audit
  // cadence. Control engine: no adversary subsystem at all.
  std::unique_ptr<Engine> campaign_engine =
      BestPathEngine(topo, AuthProvOptions());
  std::unique_ptr<Engine> control_engine =
      BestPathEngine(topo, AuthProvOptions());

  Adversary adversary(*campaign_engine, 7);
  AttackScript script;
  script.AddChurn(churn);
  script.AddAuditSweeps(1.2, 0.7, 5.0);
  script.SortByTime();
  AttackCampaignDriver driver(*campaign_engine, adversary);
  Result<CampaignReport> report = driver.Replay(script);
  ASSERT_TRUE(report.ok()) << report.status();

  ChurnDriver plain(*control_engine, 3);
  ASSERT_TRUE(plain.Replay(churn).ok());

  EXPECT_EQ(report.value().injected, 0u);
  EXPECT_EQ(report.value().forged_in_fixpoint, 0u);
  EXPECT_TRUE(report.value().flagged.empty());
  EXPECT_EQ(campaign_engine->security_log().size(), 0u);
  ExpectSamePredAt(*campaign_engine, *control_engine, "link");
  ExpectSamePredAt(*campaign_engine, *control_engine, "bestPath");
}

TEST(CampaignTest, FullCampaignOverChurningNetworkAcceptance) {
  // The acceptance bar: >= 4 attack classes over a >= 50-node churning
  // network; zero forged tuples in any honest fixpoint; every injected
  // violation rejected at verification or localized by the audit.
  Rng rng(20080407);
  Topology topo = Topology::RingPlusRandom(50, 3, rng);
  std::unique_ptr<Engine> engine = BestPathEngine(topo, AuthProvOptions());
  Adversary adversary(*engine, 13);
  adversary.Compromise(7);
  adversary.Compromise(23);

  Rng churn_rng(101);
  ChurnScript churn = ChurnScript::RandomLinkFlaps(topo, /*flaps=*/4,
                                                  /*start=*/1.0,
                                                  /*spacing=*/1.0,
                                                  churn_rng);
  Rng attack_rng(77);
  AttackScript script = AttackScript::RandomAttacks(
      topo, {7, 23}, /*per_class=*/1, /*start=*/1.13, /*spacing=*/0.41,
      attack_rng);
  script.AddChurn(churn);
  script.AddAuditSweeps(1.5, 0.5, 6.0);
  script.SortByTime();

  AttackCampaignDriver driver(*engine, adversary);
  Result<CampaignReport> report = driver.Replay(script);
  ASSERT_TRUE(report.ok()) << report.status();
  const CampaignReport& r = report.value();

  std::set<AttackKind> classes;
  for (const AttackOutcome& o : r.outcomes) classes.insert(o.injection.kind);
  EXPECT_GE(classes.size(), 4u) << "campaign must span >= 4 attack classes";
  EXPECT_GE(r.injected, 5u);
  EXPECT_EQ(r.detected, r.injected) << r.Summary();
  EXPECT_EQ(r.forged_in_fixpoint, 0u) << r.Summary();
  EXPECT_GT(r.rejected_at_verify, 0u);
  EXPECT_GT(r.localized_correct, 0u);
  for (const AttackOutcome& o : r.outcomes) {
    EXPECT_TRUE(o.detected) << AttackKindName(o.injection.kind)
                            << " went undetected";
  }
}

}  // namespace
}  // namespace provnet
