// Receive-side verification pipeline (Engine member functions live here,
// next to the audit state they feed — the same layout as dynamics/delta.cc
// and query/wire.cc).
//
// An authenticated deployment rejects, and audits, five classes of inbound
// misbehavior before a message touches any table:
//
//   1. missing signature   - authenticated network, bare message;
//   2. unknown principal   - the claimed principal is outside the
//                            deployment's PKI (an *invented* key would
//                            otherwise verify, since the simulated KeyStore
//                            derives key material on demand);
//   3. bad signature       - tampered content or a forger without the key;
//   4. misdirected         - the signed destination is another node
//                            (cross-receiver replay of a captured message);
//   5. replay              - the signed per-sender sequence number was
//                            already accepted.
//
// Retraction authorization (HandleRetractMessage in dynamics/delta.cc) adds
// the sixth: a kMsgRetract is honored only when the speaker asserted the
// tuple, is a recorded co-asserter, holds an operator capability, or is a
// principal the tuple's own provenance depends on — retraction authority
// derived from authenticated provenance, the paper's Section 4.2 usage.

#include "core/engine.h"
#include "util/strings.h"

namespace provnet {

void Engine::RecordSecurityEvent(SecurityEventKind kind, NodeId node,
                                 NodeId from, const Principal& claimed,
                                 std::string detail) {
  // Worker lane: the security log and its trace event are ordered state —
  // buffer the whole call and replay it in canonical commit order (the
  // audit sweep at the epoch barrier).
  ExecSlot& ex = exec();
  if (ex.buffered) {
    ExecSlot::Effect fx;
    fx.kind = ExecSlot::Effect::Kind::kSecurity;
    fx.sec_kind = kind;
    fx.node = node;
    fx.peer = from;
    fx.claimed = claimed;
    fx.detail = std::move(detail);
    ex.effects->push_back(std::move(fx));
    return;
  }
  // Every rejection kind is its own queryable detector ("Provenance Threat
  // Modeling", arXiv 1703.03835: forgery / suppression / flooding need
  // distinct signals): one labeled counter per SecurityEventKind, plus an
  // unsampled trace event so detection latency is measurable in virtual
  // time.
  ++cells_.security(kind)->value;
  if (tracer_.enabled()) {
    obs::TraceEvent ev;
    ev.sim_time = net_.now();
    ev.node = node;
    ev.kind = "security";
    ev.attrs = {{"event", SecurityEventKindName(kind)},
                {"from", PrincipalOf(from)},
                {"claimed", claimed}};
    tracer_.Emit(std::move(ev));
  }
  SecurityEvent event;
  event.at = net_.now();
  event.kind = kind;
  event.node = node;
  event.from = from;
  event.claimed = claimed;
  event.detail = std::move(detail);
  security_log_.Record(std::move(event));
}

Result<std::optional<SignedPrefix>> Engine::VerifyInbound(NodeId to,
                                                          NodeId from,
                                                          const Envelope& env,
                                                          ByteReader& body) {
  obs::Profiler::Scope verify_scope(profiler_, obs::Phase::kVerify);
  if (!options_.authenticate) {
    PROVNET_ASSIGN_OR_RETURN(SignedPrefix prefix, GetSignedPrefix(body, false));
    return std::optional<SignedPrefix>(prefix);
  }
  ExecSlot& ex = exec();
  const char* what = MsgKindName(env.type);
  auto reject = [&](Ctr counter, SecurityEventKind kind,
                    const Principal& claimed, std::string detail) {
    ++ex.cells[counter]->value;
    RecordSecurityEvent(kind, to, from, claimed, std::move(detail));
    return std::optional<SignedPrefix>();
  };

  const std::optional<SaysTag>& tag = env.tag;
  if (!tag.has_value()) {
    return reject(Ctr::kAuthFailures, SecurityEventKind::kMissingSignature, "",
                  what);
  }
  if (node_of_.find(tag->principal) == node_of_.end()) {
    // The simulated PKI derives keys for any name, so an invented
    // principal's signature would verify; deployment membership is the
    // certificate check.
    return reject(Ctr::kAuthFailures, SecurityEventKind::kUnknownPrincipal,
                  tag->principal, what);
  }
  if (!auth_.Verify(*tag, env.content).ok()) {
    return reject(Ctr::kAuthFailures, SecurityEventKind::kBadSignature,
                  tag->principal, what);
  }

  // The signed prefix: (sequence, destination), then the causal ids.
  PROVNET_ASSIGN_OR_RETURN(SignedPrefix prefix, GetSignedPrefix(body, true));
  if (prefix.dest != to) {
    return reject(Ctr::kReplaysRejected, SecurityEventKind::kMisdirected,
                  tag->principal,
                  StrFormat("%s signed for node %llu", what,
                            static_cast<unsigned long long>(prefix.dest)));
  }
  if (!contexts_[to]->ReplayGuardFor(tag->principal).Accept(prefix.seq)) {
    return reject(Ctr::kReplaysRejected, SecurityEventKind::kReplay,
                  tag->principal,
                  StrFormat("%s seq %llu", what,
                            static_cast<unsigned long long>(prefix.seq)));
  }
  return std::optional<SignedPrefix>(prefix);
}

bool Engine::AuthorizedRetractor(NodeId node, const Principal& claimed,
                                 const StoredTuple& stored) const {
  if (claimed == stored.asserted_by) return true;
  for (const Principal& op : options_.operators) {
    if (claimed == op) return true;
  }
  if (contexts_[node]->IsCoAsserter(DigestOf(stored.tuple), claimed)) {
    return true;
  }
  // Aggregate groups: any recorded contributor may retract a contribution
  // (the stored asserted_by only names the latest one).
  const Table* table = contexts_[node]->FindTable(stored.tuple.predicate());
  if (table != nullptr && table->options().agg != AggKind::kNone &&
      contexts_[node]->IsCoAsserter(table->GroupDigest(stored.tuple),
                                    claimed)) {
    return true;
  }
  // Provenance-derived authority: with principal-grain annotations, a
  // principal the tuple's derivation depends on asserted part of its
  // support and may withdraw it.
  if (AnnotationsComplete() &&
      options_.prov_grain == ProvGrain::kPrincipal && !stored.prov.IsZero()) {
    std::optional<ProvVar> v = registry_.Find(claimed);
    if (v.has_value() && stored.prov.DependsOnAny({*v})) return true;
  }
  return false;
}

}  // namespace provnet
