// Attack-campaign driver: timed attack scripts composed with link churn,
// plus the detection/traceback scorer.
//
// Mirrors dynamics/ChurnDriver: a campaign is a time-sorted list of events —
// churn (delegated to ChurnDriver), attack injections (delegated to the
// Adversary), and audit sweeps. Each event advances virtual time, applies
// its mutation, and runs the engine to the new distributed fixpoint.
//
// Detection combines three mechanisms, scored per injected attack:
//
//   verify:*            the receive-side verification pipeline rejected the
//                       message (bad/missing signature, unknown principal,
//                       replay, misdirected, unauthorized retract) — matched
//                       from the engine's SecurityLog;
//   audit:equivocation  a cross-node audit found one principal asserting
//                       conflicting claims (same predicate + primary key,
//                       different tuples) at different nodes;
//   audit:traceback     a policy-violating tuple was found in an honest
//                       node's state; its authenticated assertion chain
//                       (asserted_by, provenance annotation, distributed
//                       traceback) localizes the compromised principal —
//                       Section 4.2's "determine the set of nodes affected
//                       by the malicious node" made executable.
//
// Each localized principal is revoked (Engine::RetractPrincipal) and the
// engine re-run, so a successful campaign ends with zero forged tuples in
// any honest node's fixpoint — the acceptance bar this subsystem is judged
// on.
#ifndef PROVNET_ADVERSARY_CAMPAIGN_H_
#define PROVNET_ADVERSARY_CAMPAIGN_H_

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "adversary/adversary.h"
#include "dynamics/churn.h"

namespace provnet {

// One scripted injection (or Byzantine-policy activation).
struct AttackAction {
  AttackKind kind = AttackKind::kForgeStolenKey;
  NodeId attacker = 0;
  NodeId victim = 0;
  Tuple tuple;
  // kEquivocate: the conflicting second claim.
  NodeId victim2 = 0;
  Tuple tuple2;
  // Forgeries: the principal spoken for (empty = the attacker's own).
  Principal as;
  // kReplay: divert the captured message to this node instead.
  std::optional<NodeId> redirect;
  // kDrop / kDelay: the policy to activate on `attacker`.
  AdversaryPolicy policy;
};

struct CampaignEvent {
  enum class Kind : uint8_t { kChurn = 0, kAttack = 1, kAudit = 2 };
  double at = 0.0;
  Kind kind = Kind::kAttack;
  ChurnEvent churn;     // kChurn
  AttackAction attack;  // kAttack
};

struct AttackScript {
  std::vector<CampaignEvent> events;

  void AddChurn(const ChurnScript& churn);
  void AddAttack(double at, AttackAction action);
  // Periodic detection sweeps in [start, end].
  void AddAuditSweeps(double start, double interval, double end);
  // Stable time sort (call after composing).
  void SortByTime();

  // A canned campaign over `topo`: `per_class` injections each of stolen-key
  // forgery, bad-signature forgery, replay, equivocation, and unauthorized
  // retraction, staggered from `start` every `spacing` seconds and
  // attributed to round-robin `attackers`. Compose with churn + audit
  // sweeps yourself (see bench/bench_adversary.cc).
  static AttackScript RandomAttacks(const Topology& topo,
                                    const std::vector<NodeId>& attackers,
                                    size_t per_class, double start,
                                    double spacing, Rng& rng);
};

// Scorer verdict for one injection.
struct AttackOutcome {
  InjectionRecord injection;
  bool detected = false;
  double detected_at = -1.0;
  std::string method;   // "verify:replay", "audit:traceback", ...
  std::set<Principal> localized;
  bool localized_correct = false;  // localized names attacker or claimed key

  double latency() const {
    return detected ? detected_at - injection.at : -1.0;
  }
};

struct EquivocationFinding {
  Principal principal;
  NodeId node_a = 0;
  NodeId node_b = 0;
  Tuple claim_a;
  Tuple claim_b;
};

// Cross-node equivocation audit over `predicates` (claims a principal makes
// about keyed facts): one principal, same primary key, different tuples at
// different honest nodes. The auditor collects every honest node's claims
// through the authenticated query wire path (a ClaimsExchange of
// src/query/, real metered traffic charged to RunStats::prov_query_bytes)
// and compares them itself: per equivocation key, each claim against the
// key's first, one finding per key, in the collected order of the
// disagreeing claim. No other node takes part in the comparison, so no
// compromised node can hide a conflict the auditor collected. `auditor`
// defaults to the first non-skipped node. A responder that never answers
// does not abort the audit: it is recorded as a kSilentResponder
// SecurityEvent and, when `silent` is non-null, reported there so the
// caller can treat suppression as incriminating — a failed audit still
// never reads as a clean one.
Result<std::vector<EquivocationFinding>> EquivocationAudit(
    Engine& engine, const std::set<std::string>& predicates,
    const std::set<NodeId>& skip_nodes,
    std::optional<NodeId> auditor = std::nullopt,
    std::set<NodeId>* silent = nullptr);

struct CampaignReport {
  std::vector<AttackOutcome> outcomes;
  size_t injected = 0;
  size_t detected = 0;
  size_t rejected_at_verify = 0;
  size_t localized_correct = 0;
  // Ground-truth forged/equivocated tuples still stored at any honest node
  // after the final fixpoint + response. The acceptance bar: zero.
  size_t forged_in_fixpoint = 0;
  double mean_detection_latency_s = 0.0;
  double max_detection_latency_s = 0.0;
  uint64_t bytes = 0;
  uint64_t messages = 0;
  double wall_seconds = 0.0;
  uint64_t dropped_by_adversary = 0;
  std::set<Principal> flagged;  // principals the campaign localized

  std::string Summary() const;
};

class AttackCampaignDriver {
 public:
  AttackCampaignDriver(Engine& engine, Adversary& adversary);

  // Replays the script (engine must be at its initial fixpoint), runs the
  // final audit sweep + response, and scores.
  Result<CampaignReport> Replay(const AttackScript& script);

 private:
  Status ApplyAttack(const AttackAction& action);
  // Matches fresh SecurityLog rejections to pending outcomes.
  void MatchSecurityEvents(CampaignReport& report);
  // Equivocation audit of the link claims, violation scan, distributed
  // traceback of the first violating tuple (charges query traffic to the
  // meters; needs provenance recording), and the revocation response.
  Status RunAuditSweep(CampaignReport& report);
  void MarkDetected(AttackOutcome& outcome, double at, std::string method,
                    std::set<Principal> localized);

  Engine& engine_;
  Adversary& adversary_;
  ChurnDriver churn_;
  size_t log_cursor_ = 0;        // SecurityLog read position
  size_t injection_cursor_ = 0;  // Adversary::injections() read position
};

}  // namespace provnet

#endif  // PROVNET_ADVERSARY_CAMPAIGN_H_
