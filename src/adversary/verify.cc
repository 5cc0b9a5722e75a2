// Receive-side verification pipeline (Engine member functions live here,
// next to the audit state they feed — the same layout as dynamics/delta.cc
// and core/distquery.cc).
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
//                            already accepted (or fell out of the window).
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

void Engine::PutAuthHeader(ByteWriter& content, const Principal& sender,
                           NodeId dest) {
  if (!options_.authenticate) return;
  content.PutVarint(NextSendSeq(sender));
  content.PutVarint(dest);
}

Result<bool> Engine::VerifyInbound(NodeId to, NodeId from,
                                   const std::optional<SaysTag>& tag,
                                   const Bytes& content, ByteReader& body,
                                   const char* what) {
  obs::Profiler::Scope verify_scope(profiler_, obs::Phase::kVerify);
  if (!options_.authenticate) return true;
  ExecSlot& ex = exec();

  if (!tag.has_value()) {
    ++ex.cells[Ctr::kAuthFailures]->value;
    RecordSecurityEvent(SecurityEventKind::kMissingSignature, to, from, "",
                        what);
    return false;
  }
  if (node_of_.find(tag->principal) == node_of_.end()) {
    // The simulated PKI derives keys for any name, so an invented
    // principal's signature would verify; deployment membership is the
    // certificate check.
    ++ex.cells[Ctr::kAuthFailures]->value;
    RecordSecurityEvent(SecurityEventKind::kUnknownPrincipal, to, from,
                        tag->principal, what);
    return false;
  }
  Status verdict = auth_.Verify(*tag, content);
  if (!verdict.ok()) {
    ++ex.cells[Ctr::kAuthFailures]->value;
    RecordSecurityEvent(SecurityEventKind::kBadSignature, to, from,
                        tag->principal, what);
    return false;
  }

  // The signed header: (sequence, destination).
  PROVNET_ASSIGN_OR_RETURN(uint64_t seq, body.GetVarint());
  PROVNET_ASSIGN_OR_RETURN(uint64_t dest, body.GetVarint());
  if (dest != to) {
    ++ex.cells[Ctr::kReplaysRejected]->value;
    RecordSecurityEvent(SecurityEventKind::kMisdirected, to, from,
                        tag->principal,
                        StrFormat("%s signed for node %llu", what,
                                  static_cast<unsigned long long>(dest)));
    return false;
  }
  if (!contexts_[to]->ReplayGuardFor(tag->principal).Accept(seq)) {
    ++ex.cells[Ctr::kReplaysRejected]->value;
    RecordSecurityEvent(SecurityEventKind::kReplay, to, from, tag->principal,
                        StrFormat("%s seq %llu", what,
                                  static_cast<unsigned long long>(seq)));
    return false;
  }
  return true;
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
