// Per-node runtime state: the tuple tables plus the node's provenance
// stores. One NodeContext corresponds to one P2 process in the paper's
// deployment.
#ifndef PROVNET_CORE_NODE_CONTEXT_H_
#define PROVNET_CORE_NODE_CONTEXT_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "adversary/audit.h"
#include "core/plan.h"
#include "core/table.h"
#include "provenance/store.h"
#include "store/archive.h"

namespace provnet {

class NodeContext {
 public:
  // The offline archive starts unopened: empty, holding no page, and every
  // lookup answers empty. The engine opens it when it archives.
  NodeContext(NodeId id, Principal principal, const Plan* plan)
      : id_(id),
        principal_(std::move(principal)),
        plan_(plan),
        offline_(std::make_unique<store::ProvArchive>()) {}

  NodeId id() const { return id_; }
  const Principal& principal() const { return principal_; }

  // Returns the table for `pred`, creating it from the plan's options on
  // first use.
  Table& TableFor(const std::string& pred);
  // Nullptr when the node never stored tuples of `pred`.
  const Table* FindTable(const std::string& pred) const;
  Table* FindTableMutable(const std::string& pred);

  OnlineProvStore& online_store() { return online_; }
  const OnlineProvStore& online_store() const { return online_; }
  store::ProvArchive& offline_store() { return *offline_; }
  const store::ProvArchive& offline_store() const { return *offline_; }
  // Re-binds the offline archive to the log at `path` ("" opens it in
  // memory), replaying any existing log (a torn final frame is truncated
  // away). Records held by the previous archive are not carried over: the
  // engine opens archives at Init, before any fact flows, and at restart.
  Status OpenArchive(const std::string& path);

  // Reused buffer the engine encodes this node's provenance records into
  // before both stores append them. It belongs to the node, not the engine:
  // worker lanes record provenance for the nodes they own.
  ByteWriter& record_buffer() { return record_buffer_; }

  // Total stored tuples across tables (diagnostics).
  size_t TupleCount() const;

  // All tables this node ever stored into (unspecified order). Used by
  // whole-state sweeps (principal revocation, diagnostics).
  std::vector<Table*> AllTables();

  // Drops expired tuples from every table; returns how many were dropped.
  // When `expired` is non-null, the dropped entries are appended to it so
  // the caller can fire deletion deltas for them.
  size_t ExpireTablesBefore(double now,
                            std::vector<StoredTuple>* expired = nullptr);

  // Drops the tables and the online provenance records, keeping the offline
  // archive, anti-replay records and co-asserter notes. Crash recovery
  // (Engine::ReplayJournal) clears every live node this way, then
  // re-derives the fixpoint from the journaled base facts.
  void ClearTables();

  // Fail-stop crash: drops everything this node kept in memory — tables,
  // online provenance, anti-replay records, co-asserter notes. The offline
  // archive is abandoned unflushed for an unopened one; a restart re-opens
  // the archive (an on-disk log's unflushed tail is exactly what the crash
  // tore off). Engine::CrashNode drives this.
  void ResetForCrash();

  // --- Receive-side verification state (src/adversary/) --------------------
  // Anti-replay record for authenticated messages from `sender`.
  ReplayGuard& ReplayGuardFor(const Principal& sender) {
    return replay_guards_[sender];
  }

  // Records that `principal` also asserted the tuple with `digest` (a
  // refresh under a different principal than the stored copy's). Retraction
  // authorization consults this: any principal that contributed an
  // assertion of a tuple may retract it. Entries are retained after the
  // tuple is removed — "once an asserter" is the durable fact retraction
  // authority rests on.
  void NoteCoAsserter(uint64_t digest, const Principal& principal);
  bool IsCoAsserter(uint64_t digest, const Principal& principal) const;

 private:
  NodeId id_;
  Principal principal_;
  const Plan* plan_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  OnlineProvStore online_;
  std::unique_ptr<store::ProvArchive> offline_;
  ByteWriter record_buffer_;
  std::unordered_map<Principal, ReplayGuard> replay_guards_;
  std::unordered_map<uint64_t, std::vector<Principal>> co_asserters_;
};

}  // namespace provnet

#endif  // PROVNET_CORE_NODE_CONTEXT_H_
