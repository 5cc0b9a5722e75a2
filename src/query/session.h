// Internal state of one in-flight provenance query, shared between the
// driver (provquery.cc) and the Engine wire handlers (wire.cc). The Engine
// holds a non-owning pointer to the active session (at most one at a time);
// inbound kMsgProvResponse messages are matched against `pending` and folded
// in here. Not installed API — include query/provquery.h instead.
#ifndef PROVNET_QUERY_SESSION_H_
#define PROVNET_QUERY_SESSION_H_

#include <deque>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/causal.h"
#include "obs/mem.h"
#include "provenance/store.h"
#include "query/provquery.h"
#include "util/bytes.h"

namespace provnet {

struct ProvQuerySession {
  using Key = std::pair<NodeId, TupleDigest>;

  NodeId asker = 0;
  uint8_t kind = kQueryRecords;
  bool local_only = false;  // QueryScope::kLocal: remote refs are cut
  QueryLimits limits;
  QueryStats stats;
  // Root causal context of the walk (core/causal.h): the span every request
  // hop of this session ultimately descends from. A records walk mints it
  // in its issue callback; RunQuerySession adopts it when set.
  CausalIds causal;

  // Approximate bytes of collected walk state, charged against
  // obs::MemSubsystem::kQuerySessions; released when the session dies.
  int64_t accounted_bytes = 0;

  void ChargeBytes(int64_t bytes) {
    obs::MemAccounting& mem = obs::MemAccounting::Global();
    if (!mem.enabled()) return;
    mem.Add(obs::MemSubsystem::kQuerySessions,
            static_cast<uint64_t>(bytes));
    accounted_bytes += bytes;
  }

  ~ProvQuerySession() {
    if (accounted_bytes > 0) {
      obs::MemAccounting::Global().Sub(
          obs::MemSubsystem::kQuerySessions,
          static_cast<uint64_t>(accounted_bytes));
    }
  }

  // --- Records walk (kQueryRecords) ----------------------------------------
  std::map<Key, std::vector<ProvRecord>> collected;
  // First-seen expansion depth per key; doubles as the dedup set.
  std::map<Key, size_t> depth;
  // Keys resolvable from the asker's own stores, drained without messages.
  std::deque<Key> local_frontier;

  // Outstanding requests by query id: what a response must present to be
  // accepted. Anything else is an unsolicited (bogus) response.
  struct Pending {
    NodeId responder = 0;
    TupleDigest digest = 0;
    double sent_at = 0.0;  // virtual send time, for hop-latency histograms
    // Degradation state (Engine::HandleQueryTimeouts). `inner` keeps the
    // request payload so an expired hop can be re-sent under the same query
    // id; `deadline` is the armed virtual-time expiry (0 = disarmed — either
    // timeouts are off, or a claims hop exhausted its attempts and is left
    // for the silent-responder audit).
    Bytes inner;
    size_t attempts = 1;
    double deadline = 0.0;
  };
  std::unordered_map<uint64_t, Pending> pending;
  size_t outstanding = 0;

  // --- Fault degradation (Engine::QueryTimeoutSeconds) --------------------
  // Per-hop deadline, resolved by the driver from the engine;
  // hop_timeout <= 0 disables deadlines entirely (the pre-fault-tolerance
  // behavior: pump until the network drains). Each hop is transmitted at
  // most kQueryMaxAttempts times.
  static constexpr size_t kQueryMaxAttempts = 3;
  double hop_timeout = 0.0;
  // Records-walk keys whose responder never answered and whose offline
  // archive had nothing: the assembler plants kUnreachableRule (instead of
  // kMissingRule) leaves for these.
  std::set<Key> unreachable;

  // Responders still awaited when a claims exchange ended, each audited as
  // kSilentResponder by RunQuerySession.
  std::set<NodeId> silent;

  // --- Claims exchange (kQueryClaims) --------------------------------------
  std::vector<ClaimsExchange::Claim> claims;
};

}  // namespace provnet

#endif  // PROVNET_QUERY_SESSION_H_
