// Soft-state tuple tables (the per-node storage of the P2-style runtime).
//
// Tables have primary keys (P2 materialize semantics): inserting a tuple
// whose key collides with a stored tuple *replaces* it. TTLs implement
// soft state (Section 2.1's sliding-window view of routes). Aggregate tables
// (MIN/MAX/COUNT heads) maintain one tuple per group and only accept
// improvements.
//
// Every stored tuple carries its provenance sidecar: the semiring
// annotation, an optional full derivation tree, the asserting principal, and
// where it came from.
//
// Storage is an open hash keyed by the 64-bit key-column hash with chained
// collision buckets: a hash match alone never identifies a row — key-column
// equality is verified before any replace/refresh, so two distinct keys
// whose hashes collide coexist instead of corrupting each other. Rows live
// in node-based containers, so `const StoredTuple*` handles stay valid
// across unrelated inserts/removals — the join core iterates rows and
// per-column index buckets by pointer, allocation-free (ForEach /
// ForEachByColumn), with mutations deferred until a scan completes.
#ifndef PROVNET_CORE_TABLE_H_
#define PROVNET_CORE_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/keystore.h"
#include "datalog/ast.h"
#include "datalog/tuple.h"
#include "provenance/derivation.h"
#include "provenance/prov_expr.h"
#include "util/status.h"

namespace provnet {

// Where a stored tuple came from (drives distributed-provenance pointers).
enum class TupleOrigin : uint8_t { kBase = 0, kLocalRule = 1, kRemote = 2 };

struct StoredTuple {
  Tuple tuple;
  double inserted_at = 0.0;
  double expires_at = -1.0;  // -1 = never
  ProvExpr prov;             // semiring annotation (Zero when provenance off)
  DerivationPtr deriv;       // full tree when ProvMode::kFull, else nullptr
  Principal asserted_by;     // who says this tuple (empty when auth off)
  TupleOrigin origin = TupleOrigin::kBase;
  NodeId from_node = 0;      // sender when origin == kRemote
  std::string rule;          // deriving rule label ("" for base/remote)

  StoredTuple() = default;
  StoredTuple(const StoredTuple& other);
  StoredTuple& operator=(const StoredTuple& other);
  StoredTuple(StoredTuple&&) = default;
  StoredTuple& operator=(StoredTuple&&) = default;

  // Process-wide count of deep copies (copy construction/assignment). The
  // zero-copy join core must not copy candidates; tests assert this stays
  // flat relative to RunStats.join_candidates.
  static uint64_t CopyCount();
  static void ResetCopyCount();
};

enum class InsertOutcome : uint8_t {
  kNew,        // previously unknown tuple; caller should propagate
  kRefreshed,  // identical tuple existed; TTL refreshed, provenance merged
  kReplaced,   // same key, different tuple; caller should propagate
  kRejected,   // aggregate candidate did not improve the group
};

struct InsertResult {
  InsertOutcome outcome = InsertOutcome::kNew;
  // The tuple now stored for the affected key (for aggregates this differs
  // from the candidate: the aggregate column holds the aggregated value).
  Tuple stored;
};

struct TableOptions {
  // 0-based key column positions; empty = all columns (set semantics).
  std::vector<int> key_columns;
  double default_ttl = -1.0;  // seconds; -1 = infinite
  int64_t max_size = -1;      // -1 = unbounded; otherwise FIFO eviction
  // Aggregate table: which column aggregates and how.
  AggKind agg = AggKind::kNone;
  int agg_column = -1;
};

class Table {
 public:
  Table(std::string name, TableOptions options);
  ~Table();

  const std::string& name() const { return name_; }
  const TableOptions& options() const { return options_; }
  size_t size() const { return rows_.size(); }

  // Inserts `entry` at time `now`. For aggregate tables the entry's tuple is
  // the *candidate* (aggregate column = contributing value).
  InsertResult Insert(StoredTuple entry, double now);

  // Returns the live entry equal to `tuple`, or nullptr.
  const StoredTuple* Find(const Tuple& tuple) const;
  StoredTuple* FindMutable(const Tuple& tuple);

  // Returns the entry sharing `tuple`'s primary key (ignoring non-key
  // columns), or nullptr. For aggregate tables this finds the group's
  // current extremum given any candidate of the group.
  const StoredTuple* FindGroup(const Tuple& tuple) const;

  // Stable digest of `tuple`'s primary-key columns: identifies an aggregate
  // group across changes of its aggregated value (retraction authorization
  // keys contributor records by it).
  uint64_t GroupDigest(const Tuple& tuple) const { return KeyHash(tuple); }

  // All live entries (in unspecified order). Allocates; the join core uses
  // ForEach/ForEachByColumn instead.
  std::vector<const StoredTuple*> Scan() const;

  // Entries whose column `col` equals `v` (uses a lazily-built hash index).
  std::vector<const StoredTuple*> LookupByColumn(int col, const Value& v);

  // An equality constraint the composite index can serve.
  struct ColumnEq {
    int col = -1;
    const Value* value = nullptr;
  };

  // Allocation-free iteration over all live entries. `fn` is
  // Status(const StoredTuple&); iteration stops on the first error. The
  // table must not be mutated during the visit (the engine defers emit-side
  // mutations until its scans complete).
  template <typename Fn>
  Status ForEach(Fn&& fn) const {
    for (const auto& [key, entry] : rows_) {
      PROVNET_RETURN_IF_ERROR(fn(entry));
    }
    return OkStatus();
  }

  // Allocation-free indexed iteration over entries with column `col` equal
  // to `v`. Builds the per-column index on first use.
  template <typename Fn>
  Status ForEachByColumn(int col, const Value& v, Fn&& fn) {
    ColumnEq eq{col, &v};
    return ForEachByColumns(&eq, 1, fn);
  }

  // Allocation-free indexed iteration over entries matching every equality
  // in `eqs` (ascending column order, each column at most once). The
  // composite index — one lazily-built hash per distinct column set — makes
  // multi-bound join literals O(matches) instead of O(first-column
  // matches): the join core passes every constant/bound column of the
  // literal's slot program here.
  template <typename Fn>
  Status ForEachByColumns(const ColumnEq* eqs, size_t n, Fn&& fn) {
    const std::vector<const StoredTuple*>* bucket = EqBucket(eqs, n);
    if (bucket == nullptr) return OkStatus();
    for (const StoredTuple* entry : *bucket) {
      bool match = true;
      for (size_t i = 0; i < n; ++i) {
        size_t col = static_cast<size_t>(eqs[i].col);
        if (col >= entry->tuple.arity() ||
            !(entry->tuple.arg(col) == *eqs[i].value)) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      PROVNET_RETURN_IF_ERROR(fn(*entry));
    }
    return OkStatus();
  }

  // Drops entries with expires_at < now; returns the dropped entries (with
  // their provenance sidecars, so expiry can fire deletion deltas).
  std::vector<StoredTuple> ExpireBefore(double now);

  // Removes a specific tuple and returns the stored entry — annotation,
  // derivation tree, and origin ride along so deletion deltas carry
  // provenance. nullopt if the tuple was not present.
  std::optional<StoredTuple> Remove(const Tuple& tuple);

  // Removes a specific tuple; true if it was present.
  bool Erase(const Tuple& tuple) { return Remove(tuple).has_value(); }

  std::string ToString() const;

 private:
  using RowMap = std::unordered_multimap<uint64_t, StoredTuple>;

  // Merges `entry`'s provenance into `row` (Plus + MergeAlternatives),
  // idempotently by content: a refresh whose derivation is already among
  // the stored alternatives leaves the row untouched. ProvExpr::Plus is
  // only idempotent on physical node identity, so without this every
  // content-equal re-derivation would grow the Plus spine.
  void MergeRefresh(StoredTuple& row, StoredTuple& entry);

  // Key of a tuple under this table's key columns.
  uint64_t KeyHash(const Tuple& tuple) const;
  // True when `a` and `b` agree on every key column (full equality for
  // keyless set-semantics tables).
  bool SameKey(const Tuple& a, const Tuple& b) const;
  // The row whose key columns match `tuple` among the hash's collision
  // chain, or end().
  RowMap::iterator FindRow(uint64_t key, const Tuple& tuple);
  RowMap::const_iterator FindRow(uint64_t key, const Tuple& tuple) const;

  void IndexInsert(const StoredTuple* entry);
  void IndexErase(const StoredTuple* entry);
  // Index bucket holding candidates for the conjunction of `eqs` (nullptr
  // when empty). Builds the column set's index on first use. Entries may be
  // hash-collision false positives; callers re-verify.
  const std::vector<const StoredTuple*>* EqBucket(const ColumnEq* eqs,
                                                  size_t n);

  // FIFO bookkeeping (only maintained for bounded tables).
  void OrderPush(const StoredTuple* entry);
  void OrderErase(const StoredTuple* entry);
  void EvictOver(const StoredTuple* just_inserted);

  std::string name_;
  TableOptions options_;
  // Primary store: key hash -> collision chain of entries. Node-based, so
  // entry pointers are stable until the entry itself is removed.
  RowMap rows_;
  // Aggregate bookkeeping (COUNT): the set of witness hashes seen per
  // group. The count is the number of distinct witnesses, so a candidate
  // counts only when its hash is new (pipelined semi-naive can emit one
  // derivation from each of its body deltas). Deletion never edits the
  // set: a dead COUNT group is removed whole (Remove drops its witnesses)
  // and re-derived, the path MIN/MAX groups take.
  // Like rows_, chained per key hash with key-column verification so
  // colliding groups never share (or lose) each other's witnesses.
  struct WitnessChain {
    Tuple group;  // any candidate of the group (key columns identify it)
    std::unordered_set<uint64_t> seen;
  };
  // The chain entry for `tuple`'s group, created on demand.
  std::unordered_set<uint64_t>& WitnessesFor(uint64_t key,
                                             const Tuple& tuple);
  void WitnessErase(uint64_t key, const Tuple& tuple);
  std::unordered_map<uint64_t, std::vector<WitnessChain>> witnesses_;
  // Lazy composite equality index: column-set bitmask -> combined value
  // hash -> entries. Single-column lookups use a one-bit mask; a table
  // carries one index per distinct column set its join literals probe.
  std::unordered_map<uint64_t,
                     std::unordered_map<uint64_t,
                                        std::vector<const StoredTuple*>>>
      column_index_;
  // FIFO order for max_size eviction (bounded tables only).
  std::vector<const StoredTuple*> insertion_order_;

  // Bytes currently charged against obs::MemSubsystem::kTableRows /
  // kTableIndexes for this table; the destructor releases both so dead
  // tables (per-point bench engines, test fixtures) do not pin the gauge.
  uint64_t accounted_row_bytes_ = 0;
  uint64_t accounted_index_bytes_ = 0;
  void ChargeRow(const StoredTuple& entry);
  void ReleaseRow(const StoredTuple& entry);
  void ChargeIndexEntries(uint64_t n);
  void ReleaseIndexEntries(uint64_t n);
};

}  // namespace provnet

#endif  // PROVNET_CORE_TABLE_H_
