#include "adversary/adversary.h"

#include <utility>

#include "provenance/condense.h"
#include "provenance/derivation.h"
#include "provenance/store.h"
#include "query/provquery.h"

namespace provnet {

const char* AttackKindName(AttackKind kind) {
  switch (kind) {
    case AttackKind::kForgeBadSig:
      return "forge_bad_sig";
    case AttackKind::kForgeStolenKey:
      return "forge_stolen_key";
    case AttackKind::kForgeNoSig:
      return "forge_no_sig";
    case AttackKind::kReplay:
      return "replay";
    case AttackKind::kEquivocate:
      return "equivocate";
    case AttackKind::kRogueRetract:
      return "rogue_retract";
    case AttackKind::kDrop:
      return "drop";
    case AttackKind::kDelay:
      return "delay";
  }
  return "?";
}

Adversary::Adversary(Engine& engine, uint64_t seed)
    : engine_(engine), rng_(seed) {
  engine_.network().SetSendTap(
      [this](const NetMessage& msg) { return OnSend(msg); });
}

Adversary::~Adversary() { engine_.network().ClearSendTap(); }

void Adversary::Compromise(NodeId node, AdversaryPolicy policy) {
  policies_[node] = policy;
}

Network::TapVerdict Adversary::OnSend(const NetMessage& msg) {
  Network::TapVerdict verdict;
  if (policies_.empty()) return verdict;

  // Capture traffic crossing a compromised node (either endpoint): the
  // replay corpus. Injected messages are attack traffic already.
  auto wants_capture = [this](NodeId node) {
    auto it = policies_.find(node);
    return it != policies_.end() && it->second.capture;
  };
  if (!injecting_ && (wants_capture(msg.from) || wants_capture(msg.to))) {
    captured_.push_back(Captured{msg.from, msg.to, msg.payload});
  }

  if (injecting_) return verdict;  // never suppress our own injections
  auto it = policies_.find(msg.from);
  if (it == policies_.end()) return verdict;
  const AdversaryPolicy& policy = it->second;
  if (policy.drop_rate > 0.0 && rng_.NextBernoulli(policy.drop_rate)) {
    ++dropped_;
    verdict.drop = true;
    return verdict;
  }
  verdict.extra_delay_s = policy.delay_seconds;
  return verdict;
}

Status Adversary::Inject(AttackKind kind, NodeId attacker, NodeId victim,
                         Bytes msg, const Principal& claimed,
                         const Tuple& tuple) {
  injecting_ = true;
  Status sent = engine_.network().Send(attacker, victim, std::move(msg));
  injecting_ = false;
  PROVNET_RETURN_IF_ERROR(sent);
  // An injecting node is Byzantine by definition: mark it compromised so
  // honest-state scans and audits exclude it (and its traffic is captured).
  if (!IsCompromised(attacker)) Compromise(attacker);
  InjectionRecord rec;
  rec.kind = kind;
  rec.at = engine_.network().now();
  rec.attacker = attacker;
  rec.victim = victim;
  rec.claimed = claimed;
  rec.tuple = tuple;
  injections_.push_back(std::move(rec));
  return OkStatus();
}

Result<Bytes> Adversary::Seal(uint8_t type, const Principal& as, NodeId dest,
                              const Bytes& body, bool attach_says,
                              bool corrupt_sig) {
  const EngineOptions& opts = engine_.options();
  SignedPrefix prefix;
  if (opts.authenticate) {
    // Key theft includes counter theft: continue the victim principal's
    // sequence so the header is indistinguishable from honest traffic.
    prefix.seq = engine_.NextSendSeq(as);
    prefix.dest = dest;
  }
  // Counter theft extends to the causal layer: the forged span continues
  // the impersonated node's sequence, indistinguishable from honest
  // traffic, and roots a fresh trace (no inbound context to extend).
  // Invented identities have no node; any counter parses, and the receiver
  // rejects the message before adopting its causal ids.
  Result<NodeId> as_node = engine_.NodeOf(as);
  const uint64_t span =
      engine_.NewCausalSpan(as_node.ok() ? as_node.value() : dest);
  prefix.causal = CausalIds{span, span};

  Envelope env;
  env.type = type;
  ByteWriter content;
  PutSignedPrefix(content, prefix, opts.authenticate);
  content.PutRaw(body.data(), body.size());
  env.content = std::move(content).Take();
  if (attach_says) {
    PROVNET_ASSIGN_OR_RETURN(
        env.tag, engine_.authenticator().Say(
                     as, env.content,
                     opts.authenticate ? opts.says_level
                                       : SaysLevel::kCleartext));
    if (corrupt_sig) {
      if (env.tag->proof.empty()) {
        env.tag->proof.push_back(0x5a);  // cleartext tags carry no proof
      } else {
        env.tag->proof[0] ^= 0xff;
      }
    }
  }
  return env.Encode();
}

Result<Bytes> Adversary::BuildTupleMessage(const Principal& as, NodeId dest,
                                           const Tuple& tuple,
                                           bool attach_says,
                                           bool corrupt_sig,
                                           const Principal* frame_as) {
  const EngineOptions& opts = engine_.options();
  ByteWriter body;
  tuple.Serialize(body);
  body.PutU8(ProvPayloadKind(opts.prov_mode));
  switch (opts.prov_mode) {
    case ProvMode::kNone:
    case ProvMode::kPointers:
      break;
    case ProvMode::kCondensed: {
      // Mimic honest wire format: cubes claiming `as` asserted the tuple. A
      // forgery without an annotation would be trivially conspicuous — and
      // this is also what makes provenance-driven response (retracting the
      // principal) reach everything derived from the forgery.
      ProvExpr base = ProvExpr::Var(
          engine_.registry().Intern(frame_as != nullptr ? *frame_as : as));
      Condense(base).Serialize(body);
      break;
    }
    case ProvMode::kFull: {
      DerivationPtr deriv = MakeBaseDerivation(
          tuple, dest, as, engine_.network().now(), -1.0);
      if (opts.authenticate) {
        PROVNET_ASSIGN_OR_RETURN(
            deriv, SignDerivation(deriv, engine_.authenticator(),
                                  opts.says_level));
      }
      deriv->Serialize(body);
      break;
    }
  }
  return Seal(kMsgTuple, as, dest, body.bytes(), attach_says, corrupt_sig);
}

Status Adversary::InjectForgedTuple(AttackKind kind, NodeId attacker,
                                    NodeId victim, const Tuple& tuple,
                                    const Principal& as) {
  bool attach_says = kind != AttackKind::kForgeNoSig;
  bool corrupt_sig = kind == AttackKind::kForgeBadSig;
  PROVNET_ASSIGN_OR_RETURN(
      Bytes msg, BuildTupleMessage(as, victim, tuple, attach_says,
                                   corrupt_sig));
  return Inject(kind, attacker, victim, std::move(msg), as, tuple);
}

Status Adversary::InjectReplay(NodeId attacker,
                               std::optional<NodeId> redirect,
                               uint8_t msg_type) {
  // Replay corpus: captured payloads of the requested wire type (signed
  // tuple messages by default; provenance-query responses for attacks on
  // the forensic path).
  std::vector<size_t> candidates;
  for (size_t i = 0; i < captured_.size(); ++i) {
    if (Envelope::TypeOf(captured_[i].payload) == msg_type) {
      candidates.push_back(i);
    }
  }
  if (candidates.empty()) {
    return NotFoundError("replay: nothing captured yet");
  }
  const Captured& pick =
      captured_[candidates[rng_.NextBelow(candidates.size())]];
  NodeId dest = redirect.value_or(pick.to);

  // Ground truth for the scoring record, parsed through the wire codec: the
  // speaking principal, and the carried tuple of a tuple or retract message
  // (the bytes go out verbatim regardless).
  Principal claimed;
  Tuple tuple;
  Result<Envelope> env = Envelope::Decode(pick.payload);
  if (env.ok()) {
    if (env->tag.has_value()) claimed = env->tag->principal;
    ByteReader body(env->content);
    if ((msg_type == kMsgTuple || msg_type == kMsgRetract) &&
        GetSignedPrefix(body, engine_.options().authenticate).ok()) {
      Result<Tuple> t = Tuple::Deserialize(body);
      if (t.ok()) tuple = std::move(t).value();
    }
  }

  // A copy: the corpus entry stays replayable.
  return Inject(AttackKind::kReplay, attacker, dest, pick.payload, claimed,
                tuple);
}

Status Adversary::InjectEquivocation(NodeId attacker, NodeId victim_a,
                                     const Tuple& tuple_a, NodeId victim_b,
                                     const Tuple& tuple_b) {
  Principal self = engine_.PrincipalOf(attacker);
  PROVNET_ASSIGN_OR_RETURN(
      Bytes msg_a, BuildTupleMessage(self, victim_a, tuple_a,
                                     /*attach_says=*/true,
                                     /*corrupt_sig=*/false));
  PROVNET_ASSIGN_OR_RETURN(
      Bytes msg_b, BuildTupleMessage(self, victim_b, tuple_b,
                                     /*attach_says=*/true,
                                     /*corrupt_sig=*/false));
  PROVNET_RETURN_IF_ERROR(Inject(AttackKind::kEquivocate, attacker, victim_a,
                                 std::move(msg_a), self, tuple_a));
  return Inject(AttackKind::kEquivocate, attacker, victim_b, std::move(msg_b),
                self, tuple_b);
}

Status Adversary::InjectForgedProvResponse(AttackKind kind, NodeId attacker,
                                           NodeId victim, uint64_t query_id,
                                           const Tuple& tuple,
                                           const Principal& as) {
  const EngineOptions& opts = engine_.options();
  // The responder the signed content claims: the node `as` operates (so a
  // stolen key exercises the outstanding-query match, not the trivial
  // responder/principal check).
  NodeId responder = attacker;
  Result<NodeId> as_node = engine_.NodeOf(as);
  if (as_node.ok()) responder = as_node.value();

  // A fabricated base record: "this tuple originated here, no questions".
  ProvRecord rec;
  rec.tuple = tuple;
  rec.rule = kBaseRule;
  rec.location = responder;
  rec.asserted_by = as;
  rec.created_at = engine_.network().now();

  ByteWriter body;
  body.PutU8(kQueryRecords);
  body.PutU64(query_id);
  body.PutU32(responder);
  body.PutU64(DigestOf(tuple));
  body.PutU8(0);  // offline-archive flag (wire-faithful forgery)
  body.PutVarint(1);
  rec.Serialize(body);
  PROVNET_ASSIGN_OR_RETURN(
      Bytes msg,
      Seal(kMsgProvResponse, as, victim, body.bytes(),
           kind != AttackKind::kForgeNoSig &&
               (opts.authenticate || engine_.plan().sendlog()),
           kind == AttackKind::kForgeBadSig));
  return Inject(kind, attacker, victim, std::move(msg), as, tuple);
}

Status Adversary::InjectFramedTuple(NodeId attacker, NodeId victim,
                                    const Tuple& tuple, const Principal& as,
                                    const Principal& framed) {
  PROVNET_ASSIGN_OR_RETURN(
      Bytes msg, BuildTupleMessage(as, victim, tuple, /*attach_says=*/true,
                                   /*corrupt_sig=*/false, &framed));
  return Inject(AttackKind::kForgeStolenKey, attacker, victim, std::move(msg),
                as, tuple);
}

Status Adversary::InjectRogueRetract(NodeId attacker, NodeId victim,
                                     const Tuple& tuple,
                                     std::vector<ProvVar> killed) {
  Principal self = engine_.PrincipalOf(attacker);
  ByteWriter body;
  tuple.Serialize(body);
  body.PutVarint(killed.size());
  for (ProvVar v : killed) body.PutU32(v);
  const EngineOptions& opts = engine_.options();
  PROVNET_ASSIGN_OR_RETURN(
      Bytes msg, Seal(kMsgRetract, self, victim, body.bytes(),
                      opts.authenticate || engine_.plan().sendlog(),
                      /*corrupt_sig=*/false));
  return Inject(AttackKind::kRogueRetract, attacker, victim, std::move(msg),
                self, tuple);
}

}  // namespace provnet
