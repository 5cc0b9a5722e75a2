// Authenticated provenance-query wire path (Engine member functions live
// here, next to the session state they feed — the same layout as
// adversary/verify.cc and dynamics/delta.cc).
//
// kMsgProvRequest / kMsgProvResponse are sealed by Engine::SealAndShip and
// opened by Engine::HandleMessage like every other kind (the envelope and
// its signed prefix are in core/envelope.h), so they pass the generic
// pipeline first: signature present / valid / known principal, destination
// check, per-sender ReplayGuard. On top of that, a response must answer an
// *outstanding* query: its (query_id, responder, digest) triple has to
// match a request this node issued, and with verification on the responder
// named in the signed content must be the node the speaking principal
// operates. Anything else — a forged, replayed, misdirected, or unsolicited
// response — is dropped, counted (RunStats::prov_responses_rejected) and
// audited in the SecurityLog.
//
// A request body is [kind][query_id][args]; a response body is
// [kind][query_id][responder][answer]. Two kinds ride the same path:
//   kQueryRecords - digest -> ProvRecords (the Section 4.1 pointer-walk;
//     online records preferred, offline archive fallback at the responder);
//   kQueryClaims  - predicates -> (asserting principal, tuple) claims (the
//     distributed equivocation audit's collection; the auditor compares
//     them itself).
// Any other kind is malformed content and gets no answer (audited as
// kMalformed when authenticating).

#include <algorithm>
#include <limits>

#include "core/engine.h"
#include "query/session.h"
#include "util/strings.h"

namespace provnet {

void Engine::ObserveQueryHop(NodeId asker, NodeId responder, double sent_at) {
  // One request->response round trip of the pointer walk, in virtual time
  // (wall time would break the golden determinism contract).
  double hop = net_.now() - sent_at;
  cells_.query_hop_latency->Observe(hop);
  if (tracer_.enabled()) {
    obs::TraceEvent ev;
    ev.sim_time = net_.now();
    ev.dur = hop;
    ev.node = asker;
    ev.kind = "provhop";
    ev.attrs = {{"responder", PrincipalOf(responder)}};
    tracer_.Emit(std::move(ev));
  }
}

void Engine::NoteAbandonedQueries(const ProvQuerySession& session) {
  // Ids whose entries were consumed by a rejected response never match a
  // late delivery, so the set only shrinks via erase-on-match for genuinely
  // in-flight answers; cap it so sustained hostile rejection cannot grow it
  // without bound (losing old entries merely re-audits very-late traffic).
  if (abandoned_queries_.size() > 65536) abandoned_queries_.clear();
  for (const auto& [query_id, pending] : session.pending) {
    abandoned_queries_.insert(query_id);
  }
}

Status Engine::SendQueryRequest(ProvQuerySession& session, NodeId to,
                                const Bytes& args, TupleDigest digest) {
  uint64_t query_id = next_query_id_++;
  ByteWriter inner;
  inner.Reserve(9 + args.size());
  inner.PutU8(session.kind);
  inner.PutU64(query_id);
  inner.PutRaw(args.data(), args.size());
  ProvQuerySession::Pending p;
  p.responder = to;
  p.digest = digest;
  p.sent_at = net_.now();
  p.inner = inner.bytes();
  if (session.hop_timeout > 0) p.deadline = net_.now() + session.hop_timeout;
  session.pending.emplace(query_id, std::move(p));
  ++session.outstanding;
  ++session.stats.requests;
  return SealAndShip(session.asker, to, kMsgProvRequest, inner.bytes());
}

Status Engine::RunQuerySession(ProvQuerySession& session,
                               const std::function<Status()>& issue) {
  if (query_session_ != nullptr) {
    return FailedPreconditionError(
        "another provenance query is already pumping the network");
  }
  session.hop_timeout = QueryTimeoutSeconds();
  const double started = net_.now();
  Network::Meters meters0 = net_.MeterSnapshot();
  query_session_ = &session;
  Status status = issue();
  // A records walk's root span: every request hop of the walk — and the
  // cascades its responses trigger on other nodes — descends from it, so
  // the whole pointer-walk stitches into one trace (core/causal.h).
  if (session.causal.span_id != 0) exec().causal = session.causal;
  // Pump the network until every outstanding request resolved (or can no
  // longer resolve: a rejected response leaves its subtree missing, a
  // timed-out one degrades to the responder's offline archive, an
  // unreachable leaf, or the caller's silent-responder audit — see
  // HandleQueryTimeouts).
  uint64_t guard = 0;
  while (status.ok()) {
    // Responses may have queued asker-local references.
    status = DrainQueryFrontier(session);
    if (!status.ok() || session.outstanding == 0) break;
    Result<bool> progressed = PumpQueryOnce(session);
    if (!progressed.ok()) {
      status = progressed.status();
    } else if (!progressed.value()) {
      break;
    } else if (++guard > kMaxSteps) {
      status = ResourceExhaustedError("provenance query did not converge");
    }
  }
  query_session_ = nullptr;
  // Requests that never got their answer (abort, rejection, or error):
  // their responses may still be in flight and must not be audited as
  // attacks when a later Run() delivers them.
  NoteAbandonedQueries(session);
  PROVNET_RETURN_IF_ERROR(status);
  Network::Meters meters1 = net_.MeterSnapshot();
  session.stats.bytes = meters1.bytes - meters0.bytes;
  session.stats.messages = meters1.messages - meters0.messages;

  if (session.kind == kQueryRecords) {
    // One walk: its end-to-end latency in virtual time (deterministic
    // across runs, unlike QueryStats::wall_seconds) and its root span.
    ++cells_[Ctr::kProvQueries]->value;
    const double latency = net_.now() - started;
    cells_.query_latency->Observe(latency);
    if (tracer_.enabled()) {
      obs::TraceEvent ev;
      ev.sim_time = net_.now();
      ev.dur = latency;
      ev.node = session.asker;
      ev.kind = "provquery";
      ev.trace_id = session.causal.trace_id;
      ev.span_id = session.causal.span_id;
      ev.attrs = {{"records", StrFormat("%zu", session.stats.records)},
                  {"requests", StrFormat("%zu", session.stats.requests)}};
      tracer_.Emit(std::move(ev));
    }
    return OkStatus();
  }
  // A claims collection counts one query. A node that never answered
  // (suppressed, rejected, or dropped its response) is not a transport
  // error to abort on: in an adversarial deployment, silence *is* evidence.
  // Each silent responder becomes a kSilentResponder SecurityEvent and a
  // suspect the caller can fold into its findings.
  ++cells_[Ctr::kProvQueries]->value;
  for (const auto& [query_id, pending] : session.pending) {
    if (!session.silent.insert(pending.responder).second) continue;
    RecordSecurityEvent(SecurityEventKind::kSilentResponder, session.asker,
                        pending.responder, PrincipalOf(pending.responder),
                        StrFormat("claims exchange: no answer to query %llu",
                                  static_cast<unsigned long long>(query_id)));
  }
  return OkStatus();
}

Status Engine::DrainQueryFrontier(ProvQuerySession& session) {
  while (!session.local_frontier.empty()) {
    ProvQuerySession::Key key = session.local_frontier.front();
    session.local_frontier.pop_front();
    if (session.collected.count(key) != 0) continue;
    ++session.stats.local_lookups;
    bool offline = false;
    std::vector<ProvRecord> records =
        ProvRecordsAt(key.first, key.second, &offline);
    if (offline) {
      ++session.stats.offline_hits;
      ++cells_[Ctr::kQueryOfflineHits]->value;
    }
    PROVNET_RETURN_IF_ERROR(
        ProvQueryIngest(session, key.first, key.second, std::move(records)));
  }
  return OkStatus();
}

double Engine::QueryTimeoutSeconds() const {
  // Deadlines only make sense when the transport (and thus faults) can
  // actually lose traffic — a lossless simulated network always answers,
  // so they stay disabled and the pump keeps its historical drain-until-idle
  // behavior.
  return TransportActive() ? 10.0 * Network::kRtoInitialS : 0.0;
}

Status Engine::HandleQueryTimeouts(ProvQuerySession& session) {
  const double now = net_.now();
  // Snapshot the due ids first: retries and fallback ingest mutate
  // session.pending mid-flight. Sorted for deterministic fire order.
  std::vector<uint64_t> due;
  for (const auto& [query_id, p] : session.pending) {
    if (p.deadline > 0 && p.deadline <= now) due.push_back(query_id);
  }
  std::sort(due.begin(), due.end());
  for (uint64_t query_id : due) {
    auto it = session.pending.find(query_id);
    if (it == session.pending.end()) continue;
    ProvQuerySession::Pending& p = it->second;
    ++session.stats.timeouts;
    if (p.attempts < ProvQuerySession::kQueryMaxAttempts) {
      // Re-ask under the SAME query id (a late answer to any attempt still
      // matches), with an exponentially backed-off deadline. This is the
      // engine-level retry above the transport's retransmit: it survives
      // the transport declaring the link dead and the responder crashing
      // away its receive state.
      ++p.attempts;
      ++session.stats.retries;
      p.sent_at = now;
      p.deadline = now + session.hop_timeout *
                             static_cast<double>(uint64_t{1} << (p.attempts - 1));
      PROVNET_RETURN_IF_ERROR(
          SealAndShip(session.asker, p.responder, kMsgProvRequest, p.inner));
      continue;
    }
    if (session.kind == kQueryClaims) {
      // Claims hops have their own leftover-pending audit (kSilentResponder)
      // at the end of RunQuerySession; just stop retrying and leave the
      // entry in place for it.
      p.deadline = 0;
      continue;
    }
    // Records walk: the responder is unreachable. Degrade gracefully — the
    // responder's durable archive outlives its reachability, so the
    // operator-level fallback reads it directly (the simulation's stand-in
    // for pulling the partitioned node's disk) and the walk completes
    // offline. Only when even the archive is empty (e.g. the node crashed
    // before flushing) does the branch surface as an `unreachable` leaf.
    const NodeId responder = p.responder;
    const TupleDigest digest = p.digest;
    // A very late answer to this id is stale honest traffic, not an attack.
    abandoned_queries_.insert(query_id);
    session.pending.erase(it);
    if (session.outstanding > 0) --session.outstanding;
    std::vector<ProvRecord> records =
        contexts_[responder]->offline_store().FindByDigest(digest);
    RecordArchiveIo(responder);
    if (!records.empty()) {
      ++session.stats.offline_hits;
      ++cells_[Ctr::kQueryOfflineHits]->value;
      PROVNET_RETURN_IF_ERROR(
          ProvQueryIngest(session, responder, digest, std::move(records)));
    } else {
      session.unreachable.insert(ProvQuerySession::Key{responder, digest});
      ++session.stats.unreachable;
    }
    if (tracer_.enabled()) {
      obs::TraceEvent ev;
      ev.sim_time = net_.now();
      ev.node = session.asker;
      ev.kind = "query_timeout";
      ev.attrs = {{"responder", PrincipalOf(responder)},
                  {"fallback", records.empty() ? "unreachable" : "archive"}};
      tracer_.Emit(std::move(ev));
    }
  }
  return OkStatus();
}

Result<bool> Engine::PumpQueryOnce(ProvQuerySession& session) {
  // Race the earliest armed per-hop deadline against the network's next
  // event: whichever is sooner drives this round. With no armed deadlines
  // this degenerates to the historical step-until-idle pump.
  double deadline = std::numeric_limits<double>::infinity();
  for (const auto& [query_id, p] : session.pending) {
    if (p.deadline > 0 && p.deadline < deadline) deadline = p.deadline;
  }
  if (deadline <= net_.now() || deadline < net_.NextEventTime()) {
    if (deadline > net_.now()) net_.AdvanceTo(deadline);
    PROVNET_RETURN_IF_ERROR(HandleQueryTimeouts(session));
    return true;
  }
  if (net_.Idle()) return false;
  net_.Step();
  if (!async_error_.ok()) {
    Status failed = async_error_;
    async_error_ = OkStatus();
    return failed;
  }
  return true;
}

std::vector<const StoredTuple*> Engine::ClaimTuplesAt(
    NodeId node, const std::set<std::string>& predicates) const {
  std::vector<const StoredTuple*> claims;
  for (const std::string& pred : predicates) {
    const Table* table = contexts_[node]->FindTable(pred);
    if (table == nullptr) continue;
    for (const StoredTuple* e : table->Scan()) {
      if (e->asserted_by.empty()) continue;  // nothing to attribute
      claims.push_back(e);
    }
  }
  return claims;
}

std::vector<ProvRecord> Engine::ProvRecordsAt(NodeId node, TupleDigest digest,
                                              bool* offline_hit) const {
  std::vector<ProvRecord> online =
      contexts_[node]->online_store().Lookup(digest);
  if (!online.empty()) return online;
  std::vector<ProvRecord> out =
      contexts_[node]->offline_store().FindByDigest(digest);
  if (offline_hit != nullptr && !out.empty()) *offline_hit = true;
  RecordArchiveIo(node);
  return out;
}

Status Engine::ProvQueryIngest(ProvQuerySession& session, NodeId at,
                               TupleDigest digest,
                               std::vector<ProvRecord> records) {
  ProvQuerySession::Key key{at, digest};
  size_t level = 0;
  auto depth_it = session.depth.find(key);
  if (depth_it != session.depth.end()) level = depth_it->second;
  session.stats.depth = std::max(session.stats.depth, level);

  for (const ProvRecord& rec : records) {
    if (session.limits.max_records != 0 &&
        session.stats.records >= session.limits.max_records) {
      // Over budget: the record is still stored (it arrived), but its
      // children stay unexpanded and surface as missing leaves.
      ++session.stats.truncated;
      continue;
    }
    ++session.stats.records;
    for (const ProvChildRef& ref : rec.children) {
      if (ref.is_base) continue;
      ProvQuerySession::Key child_key{ref.node, ref.digest};
      if (session.depth.count(child_key) != 0) continue;  // already on route
      if (session.limits.max_depth != 0 &&
          level + 1 > session.limits.max_depth) {
        ++session.stats.truncated;
        continue;
      }
      if (session.local_only && ref.node != session.asker) {
        ++session.stats.truncated;
        continue;
      }
      session.depth.emplace(child_key, level + 1);
      if (ref.node == session.asker) {
        session.local_frontier.push_back(child_key);
      } else {
        ByteWriter args;
        args.PutU64(ref.digest);
        PROVNET_RETURN_IF_ERROR(
            SendQueryRequest(session, ref.node, args.bytes(), ref.digest));
      }
    }
  }
  // Session state is forensic working memory worth metering: charge the
  // collected records (released when the session is destroyed).
  int64_t record_bytes = 0;
  for (const ProvRecord& rec : records) {
    record_bytes += static_cast<int64_t>(
        sizeof(ProvRecord) + rec.children.size() * sizeof(ProvChildRef));
  }
  session.ChargeBytes(record_bytes);
  session.collected[key] = std::move(records);
  return OkStatus();
}

Status Engine::HandleProvRequest(NodeId to, NodeId from, ByteReader& body) {
  // The dispatcher verified the request and adopted the asker's causal
  // context: the response span continues the query's trace.
  obs::Profiler::Scope serve_scope(profiler_, obs::Phase::kQueryServe);
  PROVNET_ASSIGN_OR_RETURN(uint8_t kind, body.GetU8());
  PROVNET_ASSIGN_OR_RETURN(uint64_t query_id, body.GetU64());

  ByteWriter inner;
  inner.PutU8(kind);
  inner.PutU64(query_id);
  inner.PutU32(to);  // responding node, covered by the response signature
  switch (kind) {
    case kQueryRecords: {
      PROVNET_ASSIGN_OR_RETURN(uint64_t digest, body.GetU64());
      inner.PutU64(digest);
      // The online store holds records in their wire encoding: ship the
      // stored bytes as they are.
      if (const OnlineProvStore::Entry* online =
              contexts_[to]->online_store().Encoded(digest)) {
        inner.PutU8(0);  // not an archive read
        inner.PutVarint(online->count);
        inner.PutRaw(online->bytes.data(), online->bytes.size());
        break;
      }
      // The archive keeps the same encoding: ship its stored bytes too. The
      // archive flag is set when the records came from the offline store,
      // so the asker's QueryStats::offline_hits covers remote archive reads,
      // not just its own.
      const store::ProvArchive& archive = contexts_[to]->offline_store();
      const uint32_t count = archive.CountOf(digest);
      inner.PutU8(count > 0 ? 1 : 0);
      inner.PutVarint(count);
      archive.AppendEncoded(digest, inner);
      RecordArchiveIo(to);
      break;
    }
    case kQueryClaims: {
      PROVNET_ASSIGN_OR_RETURN(uint64_t npred, body.GetVarint());
      if (npred > body.remaining()) {
        return InvalidArgumentError("prov_request: bad predicate count");
      }
      std::set<std::string> predicates;
      for (uint64_t i = 0; i < npred; ++i) {
        PROVNET_ASSIGN_OR_RETURN(std::string pred, body.GetString());
        predicates.insert(std::move(pred));
      }
      std::vector<const StoredTuple*> claims = ClaimTuplesAt(to, predicates);
      inner.PutVarint(claims.size());
      for (const StoredTuple* e : claims) {
        inner.PutString(e->asserted_by);
        e->tuple.Serialize(inner);
      }
      break;
    }
    default:
      return InvalidArgumentError("prov_request: unknown query kind");
  }
  return SealAndShip(to, from, kMsgProvResponse, inner.bytes());
}

Status Engine::HandleProvResponse(NodeId to, NodeId from,
                                  const Envelope& env, ByteReader& body) {
  // The dispatcher verified the response (counting a rejected one) and
  // adopted the responder's causal context; follow-up requests this
  // response triggers become its children, chaining the walk into one
  // trace.
  obs::Profiler::Scope serve_scope(profiler_, obs::Phase::kQueryServe);
  ProvQuerySession* session = query_session_;
  PROVNET_ASSIGN_OR_RETURN(uint8_t kind, body.GetU8());
  PROVNET_ASSIGN_OR_RETURN(uint64_t query_id, body.GetU64());
  PROVNET_ASSIGN_OR_RETURN(uint32_t responder, body.GetU32());

  // A response is only as good as the question it answers: it must match an
  // outstanding (query_id, responder, digest) this node issued. This is
  // what stops a compromised responder (holding a perfectly valid key) from
  // pushing unsolicited "answers" into a node's forensic state.
  auto bogus = [&](const char* why) {
    ++cells_[Ctr::kProvResponsesRejected]->value;
    if (session != nullptr) ++session->stats.responses_rejected;
    RecordSecurityEvent(SecurityEventKind::kBogusResponse, to, from,
                        env.tag.has_value() ? env.tag->principal : Principal(),
                        StrFormat("%s (query %llu)", why,
                                  static_cast<unsigned long long>(query_id)));
    return OkStatus();
  };
  if (session == nullptr || session->asker != to || session->kind != kind) {
    // A response to a query whose session already ended (aborted mid-walk)
    // is stale honest traffic, not an attack — drop it silently, as the
    // pre-ProvQuery path did.
    if (abandoned_queries_.erase(query_id) > 0) return OkStatus();
    return bogus("no outstanding query");
  }
  auto it = session->pending.find(query_id);
  if (it == session->pending.end() || it->second.responder != from ||
      it->second.responder != responder) {
    if (abandoned_queries_.erase(query_id) > 0) return OkStatus();
    return bogus("unsolicited response");
  }
  if (options_.authenticate && env.tag.has_value()) {
    // The responder named in the signed content must be the node the
    // speaking principal operates: a compromised node cannot answer for
    // another responder's records.
    Result<NodeId> speaker_node = NodeOf(env.tag->principal);
    if (!speaker_node.ok() || speaker_node.value() != responder) {
      return bogus("responder/principal mismatch");
    }
  }

  // Parse the whole answer before accepting it: a malformed answer leaves
  // the request outstanding and the session untouched.
  uint64_t digest = 0;
  uint8_t offline = 0;
  std::vector<ProvRecord> records;
  std::vector<ClaimsExchange::Claim> claims;
  if (kind == kQueryRecords) {
    PROVNET_ASSIGN_OR_RETURN(digest, body.GetU64());
    if (digest != it->second.digest) return bogus("digest mismatch");
    PROVNET_ASSIGN_OR_RETURN(offline, body.GetU8());
  }
  PROVNET_ASSIGN_OR_RETURN(uint64_t count, body.GetVarint());
  if (count > body.remaining()) {
    return InvalidArgumentError("prov_response: bad entry count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    if (kind == kQueryRecords) {
      PROVNET_ASSIGN_OR_RETURN(ProvRecord rec, ProvRecord::Deserialize(body));
      records.push_back(std::move(rec));
    } else {  // kQueryClaims; the session match above pins the kind
      ClaimsExchange::Claim claim;
      claim.node = responder;
      PROVNET_ASSIGN_OR_RETURN(claim.asserted_by, body.GetString());
      PROVNET_ASSIGN_OR_RETURN(claim.tuple, Tuple::Deserialize(body));
      claims.push_back(std::move(claim));
    }
  }

  // Accept: the round trip resolves its pending request.
  ObserveQueryHop(to, from, it->second.sent_at);
  // If this hop was retried, an earlier attempt's answer may still be in
  // flight; remember the id so that duplicate drops as stale, not bogus.
  if (it->second.attempts > 1) abandoned_queries_.insert(query_id);
  session->pending.erase(it);
  if (session->outstanding > 0) --session->outstanding;
  ++session->stats.responses;

  if (offline != 0) {
    ++session->stats.offline_hits;
    ++cells_[Ctr::kQueryOfflineHits]->value;
  }
  session->claims.insert(session->claims.end(),
                         std::make_move_iterator(claims.begin()),
                         std::make_move_iterator(claims.end()));
  if (kind != kQueryRecords) return OkStatus();
  return ProvQueryIngest(*session, responder, digest, std::move(records));
}

}  // namespace provnet
