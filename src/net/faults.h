// Deterministic fault injection for the discrete-event network.
//
// A FaultPlan is a *script*, not a live random process: per-link benign
// fault rates (loss / duplication / corruption / reorder-delay), timed link
// partitions, and scripted node crash–restart events. The injector draws
// every verdict from a counter-based hash RNG keyed on (plan seed, directed
// link, per-link attempt counter), so a run's fault sequence is a pure
// function of the plan and of the order transmissions hit each link — which
// the engine keeps canonical across thread counts (sends are replayed in
// (time, seq) order by the parallel executor's commit phase). Re-running
// the same plan is therefore byte-identical at threads ∈ {1, N}, the same
// determinism contract ChurnDriver and AttackScript honor.
//
// Faults are *benign*: they model the lossy wire of ROADMAP item 5(b)'s
// sparse-network scenario, in contrast to the adversary tap
// (Network::SetSendTap) which models a Byzantine endpoint. The two compose:
// the tap sees payloads before transport framing (so wire capture and
// selective suppression still work on engine bytes), faults apply to the
// framed copy afterwards (so retransmission masks loss but never masks an
// adversarial drop).
#ifndef PROVNET_NET_FAULTS_H_
#define PROVNET_NET_FAULTS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/value.h"

namespace provnet {

// Wildcard in LinkFaultSpec endpoints: "every node".
inline constexpr NodeId kAnyNode = ~static_cast<NodeId>(0);

// Benign fault rates of one directed link (or the kAnyNode wildcard).
// Rates are probabilities in [0, 1] evaluated independently per
// transmission attempt (retransmissions draw fresh verdicts).
struct LinkFaultSpec {
  NodeId from = kAnyNode;
  NodeId to = kAnyNode;
  double loss = 0.0;         // message vanishes on the wire
  double duplication = 0.0;  // a second copy is delivered
  double corruption = 0.0;   // payload bytes flip (checksum catches it)
  double reorder = 0.0;      // copy is held back by reorder_delay_s
  double reorder_delay_s = 0.05;
};

// A link is down (both payloads and acks vanish) while start <= t < end.
struct PartitionSpec {
  double start = 0.0;
  double end = 0.0;
  NodeId a = 0;
  NodeId b = 0;
  bool bidirectional = true;  // also cuts b -> a
};

// Scripted fail-stop crash: the node loses all in-memory state at
// `crash_at` and rejoins (replaying its durable archive, if any) at
// `restart_at`. restart_at < 0 means the node never comes back.
struct CrashSpec {
  double crash_at = 0.0;
  double restart_at = -1.0;
  NodeId node = 0;
};

struct FaultPlan {
  uint64_t seed = 0;
  std::vector<LinkFaultSpec> links;
  std::vector<PartitionSpec> partitions;
  std::vector<CrashSpec> crashes;

  bool Empty() const {
    return links.empty() && partitions.empty() && crashes.empty();
  }

  // Uniform benign loss on every link — the canned CI / bench plan.
  static FaultPlan UniformLoss(double rate, uint64_t seed);

  // Parses the PROVNET_FAULT_PLAN mini-language:
  //   "loss=0.01,dup=0.001,corrupt=0.001,reorder=0.01,seed=7"
  // Unknown keys are an error; an empty spec yields an empty plan.
  static FaultPlan ParseSpec(const std::string& spec, bool* ok);
};

// Draws per-transmission verdicts from the plan. Stateless apart from the
// per-link attempt counters that key the hash RNG.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  struct Verdict {
    bool drop = false;       // loss
    bool duplicate = false;  // deliver a second copy
    bool corrupt = false;    // flip a payload byte
    double extra_delay_s = 0.0;  // reorder hold-back
  };

  // One transmission attempt on (from, to); advances the link's counter.
  Verdict OnTransmit(NodeId from, NodeId to);

  // True while any partition window covers (from, to) at time `now`.
  bool Partitioned(NodeId from, NodeId to, double now) const;

  const FaultPlan& plan() const { return plan_; }

 private:
  // Uniform double in [0, 1) for draw number `n` of `salt` on this link.
  double Draw(NodeId from, NodeId to, uint64_t counter, uint64_t salt) const;
  const LinkFaultSpec* SpecFor(NodeId from, NodeId to) const;

  FaultPlan plan_;
  std::unordered_map<uint64_t, uint64_t> attempt_counters_;  // from<<32|to
};

}  // namespace provnet

#endif  // PROVNET_NET_FAULTS_H_
