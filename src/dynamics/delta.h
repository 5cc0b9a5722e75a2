// Incremental update subsystem: deletion deltas with provenance-aware
// maintenance.
//
// The one-shot engine computes a distributed fixpoint; this subsystem turns
// it into a long-running system that processes *changes*:
//
//   * Insertions were always incremental — a new fact rides the pipelined
//     semi-naive strands (core/plan.h), so only affected rules re-fire.
//   * Deletions use DRed (delete-and-rederive) adapted to the distributed,
//     provenance-carrying runtime:
//
//       1. Over-delete. A retracted tuple fires its strands in delete mode:
//          the remaining body literals join against the pre-deletion
//          database (live tables plus this epoch's overlay of deleted
//          tuples), and every head instantiation is removed — locally, or
//          via an authenticated kMsgRetract message when the head lives on
//          another node. Retraction traffic is charged to the same
//          bandwidth meters as the protocol itself.
//       2. Prune with provenance. Before cascading, the victim's semiring
//          annotation (provenance/prov_expr.h) is *restricted*: every
//          provenance variable revoked this epoch is substituted with Zero.
//          A non-Zero residue means an independent derivation exists — the
//          tuple survives with the restricted annotation and the cascade
//          stops, skipping DRed's blind re-derivation entirely. This is the
//          payoff of keeping provenance online (Section 4.2's "delete all
//          routes that depend on the malicious node").
//       3. Re-derive. Once the cascade quiesces (no deltas queued, network
//          idle), over-deleted tuples without annotation-proven support are
//          re-derived top-down from surviving tuples; restorations re-enter
//          the normal insertion pipeline, which rebuilds downstream state
//          (and fresh, untainted annotations). Aggregate groups (MIN/MAX/
//          COUNT heads) are always re-derived — their stored extremum may
//          hide surviving lower-ranked contributions.
//
// Soundness notes. Restriction-based pruning is used only when piggybacked
// annotations enumerate every derivation (ProvMode::kCondensed/kFull) and
// the killed variables match the revocation grain: per-tuple variables for
// DeleteFact, per-principal variables for RetractPrincipal. In other
// configurations (NDLog, pointer provenance) the evaluator falls back to
// pure DRed, which needs no annotations. Annotations of soft-state tuples
// may retain alternatives whose supporting tuples expired un-refreshed;
// programs mixing TTL expiry with heavy deletion should rely on
// Engine::ExpireNow, which converts expiry into deletion deltas and keeps
// the two mechanisms consistent.
//
// The Engine member functions implementing all of this live in delta.cc
// (the same layout as query/wire.cc); this header only defines the
// per-epoch state the engine carries.
#ifndef PROVNET_DYNAMICS_DELTA_H_
#define PROVNET_DYNAMICS_DELTA_H_

#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/causal.h"
#include "core/table.h"
#include "provenance/prov_expr.h"

namespace provnet {

// Mutable state of one deletion epoch: from the first retraction enqueued
// on a quiescent engine until Run() finishes the re-derivation phase.
struct DeltaState {
  // A deletion delta: the entry as it was stored, annotation and all, plus
  // the causal context of whatever enqueued it (so a distributed deletion
  // cascade stays one trace across hops — core/causal.h).
  struct Retraction {
    NodeId node = 0;
    StoredTuple entry;
    CausalIds causal;
  };

  // A re-derivation work item. `group_only` re-derives the tuple's
  // aggregate group (matching group columns, leaving the aggregate free).
  struct RederiveItem {
    NodeId node = 0;
    Tuple tuple;
    bool group_only = false;
  };

  // Deletion deltas waiting to fire their delete-mode strands. Processed
  // ahead of insertion events so an epoch's over-deletion runs to fixpoint
  // before restorations begin.
  std::deque<Retraction> queue;

  // Tuples deleted this epoch, per node and predicate. DRed's over-deletion
  // joins run against the *pre-deletion* database: live tables plus this
  // overlay (two base tuples deleted together must still see each other
  // while their joint consequences are torn down).
  std::unordered_map<NodeId,
                     std::unordered_map<std::string, std::vector<StoredTuple>>>
      overlay;

  // Provenance variables revoked this epoch (base tuples at kTuple grain,
  // principals at kPrincipal grain). Drives annotation restriction.
  std::unordered_set<ProvVar> killed;

  // Deferred re-derivation worklist plus a dedupe set over
  // (node, tuple digest, group_only).
  std::vector<RederiveItem> rederive;
  std::unordered_set<uint64_t> rederive_seen;

  const std::vector<StoredTuple>* OverlayFor(NodeId node,
                                             const std::string& pred) const {
    auto nit = overlay.find(node);
    if (nit == overlay.end()) return nullptr;
    auto pit = nit->second.find(pred);
    return pit == nit->second.end() ? nullptr : &pit->second;
  }

  // Ends the epoch once Run() reaches the post-deletion fixpoint. The
  // killed set must not outlive the epoch: a later re-insertion of a
  // deleted base revives its variable.
  void EndEpoch() {
    overlay.clear();
    killed.clear();
    rederive_seen.clear();
  }
};

}  // namespace provnet

#endif  // PROVNET_DYNAMICS_DELTA_H_
