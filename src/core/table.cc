#include "core/table.h"

#include <algorithm>
#include <atomic>

#include "obs/mem.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/strings.h"

namespace provnet {

namespace {
// Relaxed atomic: worker shards copy StoredTuples concurrently during
// parallel waves, and the total (a commutative sum) is what tests assert —
// it is identical at every thread count.
std::atomic<uint64_t> g_stored_tuple_copies{0};

// Hash of the tuple's values on the mask's columns (ascending column
// order). False when the tuple lacks one of the columns (not indexable
// under that mask — such tuples can never match an equality on it).
bool MaskHash(const Tuple& tuple, uint64_t mask, uint64_t* out) {
  uint64_t h = Mix64(mask);
  for (int col = 0; col < 64 && (mask >> col) != 0; ++col) {
    if ((mask & (1ull << col)) == 0) continue;
    if (static_cast<size_t>(col) >= tuple.arity()) return false;
    h = HashCombine(h, tuple.arg(static_cast<size_t>(col)).Hash());
  }
  *out = h;
  return true;
}

// True when `alt` is one of the alternatives on `stored`'s Plus spine.
bool HasAlternative(const ProvExpr& stored, const ProvExpr& alt) {
  if (stored.Equals(alt)) return true;
  return stored.kind() == ProvExprKind::kPlus &&
         (HasAlternative(stored.left(), alt) ||
          HasAlternative(stored.right(), alt));
}
}  // namespace

StoredTuple::StoredTuple(const StoredTuple& other)
    : tuple(other.tuple),
      inserted_at(other.inserted_at),
      expires_at(other.expires_at),
      prov(other.prov),
      deriv(other.deriv),
      asserted_by(other.asserted_by),
      origin(other.origin),
      from_node(other.from_node),
      rule(other.rule) {
  g_stored_tuple_copies.fetch_add(1, std::memory_order_relaxed);
}

StoredTuple& StoredTuple::operator=(const StoredTuple& other) {
  if (this != &other) {
    tuple = other.tuple;
    inserted_at = other.inserted_at;
    expires_at = other.expires_at;
    prov = other.prov;
    deriv = other.deriv;
    asserted_by = other.asserted_by;
    origin = other.origin;
    from_node = other.from_node;
    rule = other.rule;
    g_stored_tuple_copies.fetch_add(1, std::memory_order_relaxed);
  }
  return *this;
}

uint64_t StoredTuple::CopyCount() {
  return g_stored_tuple_copies.load(std::memory_order_relaxed);
}
void StoredTuple::ResetCopyCount() {
  g_stored_tuple_copies.store(0, std::memory_order_relaxed);
}

Table::Table(std::string name, TableOptions options)
    : name_(std::move(name)), options_(std::move(options)) {
  if (options_.agg != AggKind::kNone) {
    PROVNET_CHECK(options_.agg_column >= 0)
        << "aggregate table needs an aggregate column";
  }
}

Table::~Table() {
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  if (accounted_row_bytes_ > 0) {
    mem.Sub(obs::MemSubsystem::kTableRows, accounted_row_bytes_);
  }
  if (accounted_index_bytes_ > 0) {
    mem.Sub(obs::MemSubsystem::kTableIndexes, accounted_index_bytes_);
  }
}

namespace {
// Stable per-row estimate: the StoredTuple shell, predicate name, argument
// slots, and the multimap node overhead. Depends only on the predicate and
// arity, both invariant across the in-place replace paths, so those paths
// need no hooks.
uint64_t RowAccountedBytes(const StoredTuple& entry) {
  return sizeof(StoredTuple) + entry.tuple.predicate().size() +
         entry.tuple.arity() * sizeof(Value) + 3 * sizeof(void*);
}
// One column-index bucket slot: the entry pointer plus amortized bucket
// overhead.
constexpr uint64_t kIndexEntryAccountedBytes = 3 * sizeof(void*);
}  // namespace

void Table::ChargeRow(const StoredTuple& entry) {
  uint64_t b = RowAccountedBytes(entry);
  accounted_row_bytes_ += b;
  obs::MemAccounting::Global().Add(obs::MemSubsystem::kTableRows, b);
}

void Table::ReleaseRow(const StoredTuple& entry) {
  uint64_t b = RowAccountedBytes(entry);
  accounted_row_bytes_ -= b > accounted_row_bytes_ ? accounted_row_bytes_ : b;
  obs::MemAccounting::Global().Sub(obs::MemSubsystem::kTableRows, b);
}

void Table::ChargeIndexEntries(uint64_t n) {
  if (n == 0) return;
  uint64_t b = n * kIndexEntryAccountedBytes;
  accounted_index_bytes_ += b;
  obs::MemAccounting::Global().Add(obs::MemSubsystem::kTableIndexes, b);
}

void Table::ReleaseIndexEntries(uint64_t n) {
  if (n == 0) return;
  uint64_t b = n * kIndexEntryAccountedBytes;
  accounted_index_bytes_ -= b > accounted_index_bytes_ ? accounted_index_bytes_
                                                       : b;
  obs::MemAccounting::Global().Sub(obs::MemSubsystem::kTableIndexes, b);
}

uint64_t Table::KeyHash(const Tuple& tuple) const {
  uint64_t h = Fnv1a64(name_);
  if (options_.key_columns.empty()) {
    return HashCombine(h, tuple.Hash());
  }
  for (int col : options_.key_columns) {
    PROVNET_CHECK(col >= 0 && static_cast<size_t>(col) < tuple.arity())
        << "key column out of range for " << tuple.ToString();
    h = HashCombine(h, tuple.arg(static_cast<size_t>(col)).Hash());
  }
  return h;
}

bool Table::SameKey(const Tuple& a, const Tuple& b) const {
  if (options_.key_columns.empty()) return a == b;
  for (int col : options_.key_columns) {
    size_t c = static_cast<size_t>(col);
    if (c >= a.arity() || c >= b.arity()) return false;
    if (!(a.arg(c) == b.arg(c))) return false;
  }
  return true;
}

std::unordered_set<uint64_t>& Table::WitnessesFor(uint64_t key,
                                                  const Tuple& tuple) {
  std::vector<WitnessChain>& chain = witnesses_[key];
  for (WitnessChain& w : chain) {
    if (SameKey(w.group, tuple)) return w.seen;
  }
  chain.push_back(WitnessChain{tuple, {}});
  return chain.back().seen;
}

void Table::WitnessErase(uint64_t key, const Tuple& tuple) {
  auto it = witnesses_.find(key);
  if (it == witnesses_.end()) return;
  auto& chain = it->second;
  chain.erase(std::remove_if(chain.begin(), chain.end(),
                             [&](const WitnessChain& w) {
                               return SameKey(w.group, tuple);
                             }),
              chain.end());
  if (chain.empty()) witnesses_.erase(it);
}

Table::RowMap::iterator Table::FindRow(uint64_t key, const Tuple& tuple) {
  auto [begin, end] = rows_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (SameKey(it->second.tuple, tuple)) return it;
  }
  return rows_.end();
}

Table::RowMap::const_iterator Table::FindRow(uint64_t key,
                                             const Tuple& tuple) const {
  auto [begin, end] = rows_.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (SameKey(it->second.tuple, tuple)) return it;
  }
  return rows_.end();
}

void Table::IndexInsert(const StoredTuple* entry) {
  uint64_t added = 0;
  for (auto& [mask, buckets] : column_index_) {
    uint64_t h;
    if (MaskHash(entry->tuple, mask, &h)) {
      buckets[h].push_back(entry);
      ++added;
    }
  }
  ChargeIndexEntries(added);
}

void Table::IndexErase(const StoredTuple* entry) {
  uint64_t removed = 0;
  for (auto& [mask, buckets] : column_index_) {
    uint64_t h;
    if (!MaskHash(entry->tuple, mask, &h)) continue;
    auto it = buckets.find(h);
    if (it == buckets.end()) continue;
    auto& vec = it->second;
    size_t before = vec.size();
    vec.erase(std::remove(vec.begin(), vec.end(), entry), vec.end());
    removed += before - vec.size();
  }
  ReleaseIndexEntries(removed);
}

void Table::OrderPush(const StoredTuple* entry) {
  if (options_.max_size < 0) return;
  insertion_order_.push_back(entry);
}

void Table::OrderErase(const StoredTuple* entry) {
  if (options_.max_size < 0) return;
  insertion_order_.erase(
      std::remove(insertion_order_.begin(), insertion_order_.end(), entry),
      insertion_order_.end());
}

void Table::EvictOver(const StoredTuple* just_inserted) {
  if (options_.max_size < 0 ||
      rows_.size() <= static_cast<size_t>(options_.max_size)) {
    return;
  }
  for (size_t i = 0; i < insertion_order_.size(); ++i) {
    const StoredTuple* victim = insertion_order_[i];
    if (victim == just_inserted) continue;  // never evict what we just added
    uint64_t key = KeyHash(victim->tuple);
    auto [begin, end] = rows_.equal_range(key);
    for (auto it = begin; it != end; ++it) {
      if (&it->second != victim) continue;
      IndexErase(victim);
      insertion_order_.erase(insertion_order_.begin() +
                             static_cast<long>(i));
      ReleaseRow(it->second);
      rows_.erase(it);
      return;
    }
  }
}

void Table::MergeRefresh(StoredTuple& row, StoredTuple& entry) {
  if (row.deriv != nullptr || entry.deriv != nullptr) {
    DerivationPtr merged = MergeAlternatives(row.deriv, entry.deriv);
    if (row.deriv != nullptr && merged != nullptr &&
        merged->ContentDigest() == row.deriv->ContentDigest()) {
      return;  // every incoming alternative was already stored
    }
    row.deriv = std::move(merged);
  } else if (HasAlternative(row.prov, entry.prov)) {
    return;  // no trees (condensed/none): the annotation is the content
  }
  row.prov = ProvExpr::Plus(row.prov, entry.prov);
}

InsertResult Table::Insert(StoredTuple entry, double now) {
  entry.inserted_at = now;
  if (entry.expires_at < 0 && options_.default_ttl >= 0) {
    entry.expires_at = now + options_.default_ttl;
  }

  uint64_t key = KeyHash(entry.tuple);
  auto it = FindRow(key, entry.tuple);

  // --- Aggregate tables ------------------------------------------------
  if (options_.agg != AggKind::kNone) {
    size_t agg_col = static_cast<size_t>(options_.agg_column);
    PROVNET_CHECK(agg_col < entry.tuple.arity());

    if (options_.agg == AggKind::kCount) {
      std::unordered_set<uint64_t>& wit = WitnessesFor(key, entry.tuple);
      bool fresh = wit.insert(entry.tuple.Hash()).second;
      int64_t count = static_cast<int64_t>(wit.size());
      std::vector<Value> args = entry.tuple.args();
      args[agg_col] = Value::Int(count);
      Tuple stored(entry.tuple.predicate(), std::move(args));
      if (!fresh && it != rows_.end()) {
        // Duplicate witness: merge provenance only.
        MergeRefresh(it->second, entry);
        return {InsertOutcome::kRefreshed, it->second.tuple};
      }
      StoredTuple agg_entry = std::move(entry);
      agg_entry.tuple = stored;
      if (it != rows_.end()) {
        agg_entry.prov = ProvExpr::Plus(it->second.prov, agg_entry.prov);
        agg_entry.deriv = MergeAlternatives(it->second.deriv, agg_entry.deriv);
        // The count changed but the group (and FIFO position) did not:
        // swap the new tuple in place, keeping the entry's address stable.
        IndexErase(&it->second);
        it->second = std::move(agg_entry);
        IndexInsert(&it->second);
        return {InsertOutcome::kReplaced, it->second.tuple};
      }
      auto pos = rows_.emplace(key, std::move(agg_entry));
      ChargeRow(pos->second);
      IndexInsert(&pos->second);
      OrderPush(&pos->second);
      return {InsertOutcome::kNew, pos->second.tuple};
    }

    // MIN / MAX.
    if (it != rows_.end()) {
      const Value& current = it->second.tuple.arg(agg_col);
      const Value& candidate = entry.tuple.arg(agg_col);
      int cmp = candidate.Compare(current);
      bool improves =
          options_.agg == AggKind::kMin ? cmp < 0 : cmp > 0;
      if (!improves) {
        if (cmp == 0 && entry.tuple == it->second.tuple) {
          // Same extremum re-derived: merge provenance, refresh TTL.
          MergeRefresh(it->second, entry);
          it->second.expires_at =
              std::max(it->second.expires_at, entry.expires_at);
          return {InsertOutcome::kRefreshed, it->second.tuple};
        }
        return {InsertOutcome::kRejected, it->second.tuple};
      }
      IndexErase(&it->second);
      Tuple stored = entry.tuple;
      it->second = std::move(entry);
      IndexInsert(&it->second);
      return {InsertOutcome::kReplaced, stored};
    }
    Tuple stored = entry.tuple;
    auto pos = rows_.emplace(key, std::move(entry));
    ChargeRow(pos->second);
    IndexInsert(&pos->second);
    OrderPush(&pos->second);
    return {InsertOutcome::kNew, stored};
  }

  // --- Plain tables -------------------------------------------------------
  if (it != rows_.end()) {
    if (it->second.tuple == entry.tuple) {
      MergeRefresh(it->second, entry);
      it->second.expires_at = std::max(it->second.expires_at,
                                       entry.expires_at);
      return {InsertOutcome::kRefreshed, it->second.tuple};
    }
    // Same primary key, different value: replace (P2 update semantics).
    IndexErase(&it->second);
    Tuple stored = entry.tuple;
    it->second = std::move(entry);
    IndexInsert(&it->second);
    return {InsertOutcome::kReplaced, stored};
  }

  Tuple stored = entry.tuple;
  auto pos = rows_.emplace(key, std::move(entry));
  ChargeRow(pos->second);
  IndexInsert(&pos->second);
  OrderPush(&pos->second);
  EvictOver(&pos->second);
  return {InsertOutcome::kNew, stored};
}

const StoredTuple* Table::Find(const Tuple& tuple) const {
  auto it = FindRow(KeyHash(tuple), tuple);
  if (it == rows_.end() || it->second.tuple != tuple) return nullptr;
  return &it->second;
}

StoredTuple* Table::FindMutable(const Tuple& tuple) {
  auto it = FindRow(KeyHash(tuple), tuple);
  if (it == rows_.end() || it->second.tuple != tuple) return nullptr;
  return &it->second;
}

const StoredTuple* Table::FindGroup(const Tuple& tuple) const {
  auto it = FindRow(KeyHash(tuple), tuple);
  return it == rows_.end() ? nullptr : &it->second;
}

std::vector<const StoredTuple*> Table::Scan() const {
  std::vector<const StoredTuple*> out;
  out.reserve(rows_.size());
  for (const auto& [key, entry] : rows_) out.push_back(&entry);
  return out;
}

const std::vector<const StoredTuple*>* Table::EqBucket(const ColumnEq* eqs,
                                                       size_t n) {
  uint64_t mask = 0;
  for (size_t i = 0; i < n; ++i) {
    PROVNET_CHECK(eqs[i].col >= 0 && eqs[i].col < 64)
        << "index column out of range";
    mask |= 1ull << eqs[i].col;
  }
  auto idx_it = column_index_.find(mask);
  if (idx_it == column_index_.end()) {
    // Build the column set's index lazily.
    auto& buckets = column_index_[mask];
    uint64_t added = 0;
    for (const auto& [key, entry] : rows_) {
      uint64_t h;
      if (MaskHash(entry.tuple, mask, &h)) {
        buckets[h].push_back(&entry);
        ++added;
      }
    }
    ChargeIndexEntries(added);
    idx_it = column_index_.find(mask);
  }
  // `eqs` arrives in ascending column order, matching MaskHash's mixing
  // order.
  uint64_t h = Mix64(mask);
  for (size_t i = 0; i < n; ++i) h = HashCombine(h, eqs[i].value->Hash());
  auto bucket = idx_it->second.find(h);
  return bucket == idx_it->second.end() ? nullptr : &bucket->second;
}

std::vector<const StoredTuple*> Table::LookupByColumn(int col,
                                                      const Value& v) {
  std::vector<const StoredTuple*> out;
  ColumnEq eq{col, &v};
  const std::vector<const StoredTuple*>* bucket = EqBucket(&eq, 1);
  if (bucket == nullptr) return out;
  for (const StoredTuple* entry : *bucket) {
    if (static_cast<size_t>(col) >= entry->tuple.arity()) continue;
    if (entry->tuple.arg(static_cast<size_t>(col)) == v) {
      out.push_back(entry);
    }
  }
  return out;
}

std::vector<StoredTuple> Table::ExpireBefore(double now) {
  std::vector<StoredTuple> dropped;
  for (auto it = rows_.begin(); it != rows_.end();) {
    if (it->second.expires_at >= 0 && it->second.expires_at < now) {
      IndexErase(&it->second);
      OrderErase(&it->second);
      WitnessErase(it->first, it->second.tuple);
      ReleaseRow(it->second);
      dropped.push_back(std::move(it->second));
      it = rows_.erase(it);
    } else {
      ++it;
    }
  }
  return dropped;
}

std::optional<StoredTuple> Table::Remove(const Tuple& tuple) {
  uint64_t key = KeyHash(tuple);
  auto it = FindRow(key, tuple);
  if (it == rows_.end() || it->second.tuple != tuple) return std::nullopt;
  IndexErase(&it->second);
  OrderErase(&it->second);
  WitnessErase(key, it->second.tuple);
  ReleaseRow(it->second);
  StoredTuple removed = std::move(it->second);
  rows_.erase(it);
  return removed;
}

std::string Table::ToString() const {
  std::vector<std::string> lines;
  for (const auto& [key, entry] : rows_) lines.push_back(entry.tuple.ToString());
  std::sort(lines.begin(), lines.end());
  return name_ + " (" + std::to_string(rows_.size()) + " rows)\n  " +
         StrJoin(lines, "\n  ");
}

}  // namespace provnet
