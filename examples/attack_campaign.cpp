// Attack campaign walkthrough: a Byzantine node attacks an authenticated,
// provenance-carrying Best-Path deployment, and the defenses answer.
//
//   1. Forged tuple with a corrupted signature  -> rejected at verification.
//   2. Replayed authenticated message           -> rejected by the sequence
//                                                  window.
//   3. Unauthorized retraction                  -> rejected: the speaker
//                                                  never asserted the tuple.
//   4. Stolen-key forgery (valid signature!)    -> passes verification,
//                                                  spreads into routes; the
//                                                  audit sweep finds the
//                                                  policy-violating tuple,
//                                                  provenance localizes the
//                                                  compromised principal,
//                                                  RetractPrincipal purges.
//
// Build: cmake --build build --target attack_campaign && ./build/attack_campaign
#include <cstdio>

#include "adversary/adversary.h"
#include "adversary/campaign.h"
#include "apps/programs.h"
#include "core/engine.h"
#include "net/topology.h"

using namespace provnet;

int main() {
  Rng rng(42);
  Topology topo = Topology::RingPlusRandom(12, 3, rng);

  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kRsa;
  opts.prov_mode = ProvMode::kCondensed;
  opts.prov_grain = ProvGrain::kPrincipal;
  opts.record_online = true;

  auto created = Engine::Create(topo, BestPathNdlogProgram(), opts);
  if (!created.ok()) {
    std::printf("engine: %s\n", created.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Engine> engine = std::move(created).value();

  // Mallory is compromised from the start: its tap captures the protocol
  // traffic that crosses it during the initial fixpoint — the replay corpus.
  Adversary adversary(*engine, /*seed=*/7);
  const NodeId mallory = 5;
  adversary.Compromise(mallory);

  engine->InsertLinkFacts();
  if (!engine->Run().ok()) return 1;
  std::printf("steady state: %zu nodes, authenticated + condensed "
              "provenance; %zu messages captured by the adversary\n\n",
              engine->num_nodes(), adversary.captured_count());

  auto link3 = [](NodeId a, NodeId b, int64_t c) {
    return Tuple("link",
                 {Value::Address(a), Value::Address(b), Value::Int(c)});
  };

  AttackScript script;
  AttackAction bad_sig;
  bad_sig.kind = AttackKind::kForgeBadSig;
  bad_sig.attacker = mallory;
  bad_sig.victim = 1;
  bad_sig.tuple = link3(1, 8, 0);
  script.AddAttack(1.0, bad_sig);

  AttackAction replay;
  replay.kind = AttackKind::kReplay;
  replay.attacker = mallory;
  script.AddAttack(1.2, replay);

  AttackAction rogue;
  rogue.kind = AttackKind::kRogueRetract;
  rogue.attacker = mallory;
  rogue.victim = topo.edges[0].from;
  rogue.tuple = link3(topo.edges[0].from, topo.edges[0].to,
                      topo.edges[0].cost);
  script.AddAttack(1.4, rogue);

  AttackAction stolen;
  stolen.kind = AttackKind::kForgeStolenKey;
  stolen.attacker = mallory;
  stolen.victim = 2;
  stolen.tuple = link3(2, 9, 0);  // a zero-cost link that cannot be honest
  script.AddAttack(1.6, stolen);

  script.AddAuditSweeps(2.0, 0.5, 4.0);
  script.SortByTime();

  AttackCampaignDriver driver(*engine, adversary);
  auto report = driver.Replay(script);
  if (!report.ok()) {
    std::printf("campaign: %s\n", report.status().ToString().c_str());
    return 1;
  }

  std::printf("audit log:\n");
  for (const SecurityEvent& ev : engine->security_log().events()) {
    std::printf("  %s\n", ev.ToString().c_str());
  }

  std::printf("\nper-attack verdicts:\n");
  for (const AttackOutcome& o : report.value().outcomes) {
    std::printf("  %-18s -> %s%s (latency %.2fs)\n",
                AttackKindName(o.injection.kind),
                o.detected ? o.method.c_str() : "UNDETECTED",
                o.localized_correct ? ", culprit localized" : "",
                o.latency());
  }

  std::printf("\n%s\n", report.value().Summary().c_str());
  std::printf("forged tuples left in honest fixpoints: %zu\n",
              report.value().forged_in_fixpoint);
  return report.value().forged_in_fixpoint == 0 ? 0 : 1;
}
