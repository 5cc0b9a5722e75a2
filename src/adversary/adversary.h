// Byzantine node model and fault-injection layer.
//
// The reproduction's Network delivers every message faithfully; the paper's
// security claims, however, are about what authenticated provenance buys
// *against an adversary*. This module supplies that adversary, following the
// taxonomy threat models for provenance systems converge on (Hambolu et al.,
// "Provenance Threat Modeling"; Alam & Wang's survey): forgery (invented and
// stolen keys), replay of captured authenticated messages, equivocation
// (conflicting claims to different neighbors), selective suppression/delay,
// and unauthorized retractions.
//
// The Adversary owns a set of compromised nodes, each with an
// AdversaryPolicy. Two mechanisms implement the behaviors:
//
//   * a Network send tap (Network::SetSendTap) applies per-node drop/delay
//     policies to traffic leaving compromised nodes and captures wire
//     payloads crossing them (the replay corpus);
//   * injection primitives craft wire-faithful messages — sealed by the
//     same envelope codec honest senders use (core/envelope.h), including
//     the signed (sequence, destination) header and, in condensed-provenance
//     mode, mimicked provenance cubes — and push them through Network::Send,
//     so attack traffic is metered like any other traffic.
//
// Key compromise is modeled honestly: the simulated KeyStore derives any
// principal's key material, so "stealing" principal P's key means signing
// with P's real key and continuing P's sequence counter. Detection of such
// forgeries is *supposed* to fall to provenance (Section 4.2), not to
// signature checks — which is exactly what the campaign scorer measures.
#ifndef PROVNET_ADVERSARY_ADVERSARY_H_
#define PROVNET_ADVERSARY_ADVERSARY_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "util/random.h"

namespace provnet {

enum class AttackKind : uint8_t {
  kForgeBadSig = 0,     // forged tuple, signature does not verify
  kForgeStolenKey = 1,  // forged tuple under a compromised principal's key
  kForgeNoSig = 2,      // forged tuple with no says tag at all
  kReplay = 3,          // re-send a captured authenticated message
  kEquivocate = 4,      // conflicting signed claims to different neighbors
  kRogueRetract = 5,    // retraction for a tuple the speaker never asserted
  kDrop = 6,            // selective suppression at a compromised node
  kDelay = 7,           // selective delaying at a compromised node
};

const char* AttackKindName(AttackKind kind);

// Per-compromised-node misbehavior policy (the always-on behaviors; one-shot
// injections go through the Inject* primitives).
struct AdversaryPolicy {
  double drop_rate = 0.0;       // P(drop) per message the node sends
  double delay_seconds = 0.0;   // extra delivery delay for its messages
  bool capture = true;          // archive traffic crossing the node
};

// What one injection put on the wire — the ground truth the campaign scorer
// checks fixpoints and audit logs against.
struct InjectionRecord {
  AttackKind kind = AttackKind::kForgeBadSig;
  double at = 0.0;            // virtual time of injection
  NodeId attacker = 0;        // transport-level sender
  NodeId victim = 0;          // destination node
  Principal claimed;          // principal the message spoke for
  Tuple tuple;                // forged/equivocated/retracted tuple (if any)
};

class Adversary {
 public:
  // Installs the send tap on `engine`'s network. The tap stays benign until
  // the first Compromise().
  Adversary(Engine& engine, uint64_t seed);
  ~Adversary();

  // Marks `node` Byzantine with `policy`. Compromising twice updates the
  // policy.
  void Compromise(NodeId node, AdversaryPolicy policy = {});
  bool IsCompromised(NodeId node) const {
    return policies_.find(node) != policies_.end();
  }
  const std::map<NodeId, AdversaryPolicy>& compromised() const {
    return policies_;
  }

  // --- Injection primitives -------------------------------------------------
  // Each crafts one message, sends it through the metered network, and logs
  // an InjectionRecord.

  // Forged tuple claiming "`as` says tuple", delivered to `victim`.
  //   kForgeStolenKey - signed with `as`'s real key (key theft);
  //   kForgeBadSig    - signed, then the proof bytes are corrupted;
  //   kForgeNoSig     - shipped without any says tag.
  // In condensed-provenance mode the forgery mimics honest wire format and
  // attaches provenance cubes naming `as` — a smart forger does not ship a
  // tuple whose missing annotation gives it away.
  Status InjectForgedTuple(AttackKind kind, NodeId attacker, NodeId victim,
                           const Tuple& tuple, const Principal& as);

  // Re-sends a captured authenticated message of `msg_type` (kMsgTuple by
  // default; kMsgProvResponse replays a captured provenance-query answer).
  // The replay targets the original destination (defeated by the sequence
  // record) or, when `redirect` names a different node, that node (defeated
  // by the signed destination). Fails with NotFound when nothing suitable
  // was captured.
  Status InjectReplay(NodeId attacker, std::optional<NodeId> redirect = {},
                      uint8_t msg_type = kMsgTuple);

  // Forged kMsgProvResponse claiming to answer `query_id` from the node of
  // principal `as` with a fabricated base record of `tuple`:
  //   kForgeStolenKey - validly signed with `as`'s real key; defeated by
  //                     the (query_id, responder, digest) outstanding-query
  //                     match (kBogusResponse);
  //   kForgeBadSig    - proof bytes corrupted (kBadSignature);
  //   kForgeNoSig     - shipped without a says tag (kMissingSignature).
  Status InjectForgedProvResponse(AttackKind kind, NodeId attacker,
                                  NodeId victim, uint64_t query_id,
                                  const Tuple& tuple, const Principal& as);

  // Framing forgery (the PR 3 follow-up the receive-side framing check
  // closes): a tuple signed with `as`'s stolen key whose piggybacked
  // condensed cubes name only `framed` — blame-shifting provenance that a
  // later traceback would pin on an innocent principal. Only meaningful in
  // ProvMode::kCondensed.
  Status InjectFramedTuple(NodeId attacker, NodeId victim, const Tuple& tuple,
                           const Principal& as, const Principal& framed);

  // Conflicting claims: `tuple_a` to `victim_a` and `tuple_b` to
  // `victim_b`, both validly signed by the attacker's own principal with
  // fresh sequence numbers — indistinguishable from honest traffic at each
  // receiver; only a cross-node audit exposes the equivocation.
  Status InjectEquivocation(NodeId attacker, NodeId victim_a,
                            const Tuple& tuple_a, NodeId victim_b,
                            const Tuple& tuple_b);

  // kMsgRetract for `tuple` at `victim`, validly signed by the attacker's
  // own principal (which never asserted the tuple). `killed` is an optional
  // poisoned killed-variable payload — restriction-set pollution the
  // verification pipeline must confine to the target's own annotation.
  Status InjectRogueRetract(NodeId attacker, NodeId victim,
                            const Tuple& tuple,
                            std::vector<ProvVar> killed = {});

  // --- Ground truth for scoring --------------------------------------------
  const std::vector<InjectionRecord>& injections() const {
    return injections_;
  }
  size_t captured_count() const { return captured_.size(); }
  uint64_t dropped_count() const { return dropped_; }

 private:
  struct Captured {
    NodeId from = 0;
    NodeId to = 0;
    Bytes payload;
  };

  Network::TapVerdict OnSend(const NetMessage& msg);
  // Seals `body` into a `type` envelope speaking for `as`, through the same
  // codec honest senders use (core/envelope.h): the signed prefix carries
  // `as`'s stolen sequence number and causal span, and the says tag — when
  // `attach_says` — is signed with `as`'s key, then mangled when
  // `corrupt_sig`.
  Result<Bytes> Seal(uint8_t type, const Principal& as, NodeId dest,
                     const Bytes& body, bool attach_says, bool corrupt_sig);
  // Wire-faithful tuple message (tuple + mimicked provenance payload,
  // sealed by Seal). `corrupt_sig`/`attach_says` select the forgery class;
  // `frame_as` (condensed mode) names a different principal inside the
  // mimicked cubes than the one speaking.
  Result<Bytes> BuildTupleMessage(const Principal& as, NodeId dest,
                                  const Tuple& tuple, bool attach_says,
                                  bool corrupt_sig,
                                  const Principal* frame_as = nullptr);
  // Sends `msg` past the tap's capture and policies and logs its
  // InjectionRecord.
  Status Inject(AttackKind kind, NodeId attacker, NodeId victim, Bytes msg,
                const Principal& claimed, const Tuple& tuple);

  Engine& engine_;
  Rng rng_;
  std::map<NodeId, AdversaryPolicy> policies_;
  std::vector<Captured> captured_;
  std::vector<InjectionRecord> injections_;
  uint64_t dropped_ = 0;
  bool injecting_ = false;  // tap bypass while sending our own messages
};

}  // namespace provnet

#endif  // PROVNET_ADVERSARY_ADVERSARY_H_
