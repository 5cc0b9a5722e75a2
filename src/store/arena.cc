#include "store/arena.h"

#include <utility>

#include "crypto/sha256.h"
#include "obs/mem.h"
#include "provenance/semiring.h"

namespace provnet::store {

namespace {

// Flat per-entry estimates, symmetric on release so the gauge cannot drift.
// The expression nodes themselves are metered by ProvExpr (kProvAnnotations);
// the arena charges its ownership structures: the node vector slot, the
// digest/unique-table entry, and adopted derivation payloads.
constexpr size_t kDerivNodeOverhead = 160;  // node struct + ctrl block + map
constexpr size_t kTableEntryOverhead = 64;  // one unique-table / cache entry
// Wire cache bound: beyond this the cache is dropped wholesale (simple and
// deterministic; the hot working set re-warms in one epoch).
constexpr size_t kWireCacheMaxEntries = 8192;

}  // namespace

ProvArena::~ProvArena() { Release(resident_bytes_); }

void ProvArena::Charge(size_t bytes) {
  resident_bytes_ += bytes;
  obs::MemAccounting::Global().Add(obs::MemSubsystem::kProvArena, bytes);
}

void ProvArena::Release(size_t bytes) {
  resident_bytes_ -= bytes < resident_bytes_ ? bytes : resident_bytes_;
  obs::MemAccounting::Global().Sub(obs::MemSubsystem::kProvArena, bytes);
}

DerivId ProvArena::CanonicalRec(
    const DerivationPtr& node,
    std::unordered_map<const DerivationNode*, DerivId>& memo) {
  // Arena-owned nodes (and their whole subtree, by construction) are
  // already interned: answer from the identity map without descending.
  auto own = owned_.find(node.get());
  if (own != owned_.end()) return own->second;
  auto seen = memo.find(node.get());
  if (seen != memo.end()) return seen->second;

  // Intern children first so a rebuilt parent holds arena-owned sub-proofs.
  std::vector<DerivationPtr> children;
  children.reserve(node->children.size());
  bool changed = false;
  for (const DerivationPtr& child : node->children) {
    DerivId cid = CanonicalRec(child, memo);
    const DerivationPtr& canon = nodes_[cid - 1];
    if (canon.get() != child.get()) changed = true;
    children.push_back(canon);
  }

  // Canonical children are content-equal to the originals, so the Merkle
  // digest of the incoming node doubles as the intern key for the rebuilt
  // one — no recompute needed.
  const Sha256Digest digest = node->ContentDigest();
  DerivId id;
  auto found = by_digest_.find(digest);
  if (found != by_digest_.end()) {
    ++stats_.interned_hits;
    id = found->second;
  } else {
    DerivationPtr adopted;
    if (!changed) {
      adopted = node;
    } else {
      auto copy = std::make_shared<DerivationNode>(*node);
      copy->children = std::move(children);
      adopted = copy;
    }
    nodes_.push_back(adopted);
    id = static_cast<DerivId>(nodes_.size());
    by_digest_.emplace(digest, id);
    owned_.emplace(adopted.get(), id);
    ++stats_.interned_nodes;
    Charge(kDerivNodeOverhead + adopted->tuple.WireSize() +
           adopted->rule.size() + adopted->asserted_by.size() +
           adopted->signature.size() +
           adopted->children.size() * sizeof(void*));
  }
  memo.emplace(node.get(), id);
  return id;
}

DerivationPtr ProvArena::Canonical(const DerivationPtr& root, DerivId* id) {
  if (root == nullptr) {
    if (id != nullptr) *id = 0;
    return root;
  }
  std::unordered_map<const DerivationNode*, DerivId> memo;
  DerivId root_id = CanonicalRec(root, memo);
  if (id != nullptr) *id = root_id;
  return nodes_[root_id - 1];
}

DerivationPtr ProvArena::Lookup(DerivId id) const {
  if (id == 0 || id > nodes_.size()) return nullptr;
  return nodes_[id - 1];
}

DerivId ProvArena::IdOf(const Sha256Digest& digest) const {
  auto it = by_digest_.find(digest);
  return it == by_digest_.end() ? 0 : it->second;
}

DerivId ProvArena::IdOfOwned(const DerivationNode* node) const {
  auto it = owned_.find(node);
  return it == owned_.end() ? 0 : it->second;
}

ProvExpr ProvArena::InternVar(ProvVar v) {
  auto it = vars_.find(v);
  if (it != vars_.end()) {
    ++stats_.interned_hits;
    return it->second;
  }
  ProvExpr e = ProvExpr::Var(v);
  vars_.emplace(v, e);
  ++stats_.interned_nodes;
  Charge(kTableEntryOverhead);
  return e;
}

ProvExpr ProvArena::InternBinary(ProvExprKind kind, const ProvExpr& a,
                                 const ProvExpr& b) {
  ExprKey key{static_cast<uint8_t>(kind), a.NodeIdentity(), b.NodeIdentity()};
  auto it = exprs_.find(key);
  if (it != exprs_.end()) {
    ++stats_.interned_hits;
    return it->second;
  }
  ProvExpr e = kind == ProvExprKind::kPlus ? ProvExpr::PlusRaw(a, b)
                                           : ProvExpr::TimesRaw(a, b);
  exprs_.emplace(key, e);
  ++stats_.interned_nodes;
  Charge(kTableEntryOverhead);
  return e;
}

ProvExpr ProvArena::InternPlus(const ProvExpr& a, const ProvExpr& b) {
  if (a.IsZero()) return b;
  if (b.IsZero()) return a;
  return InternBinary(ProvExprKind::kPlus, a, b);
}

ProvExpr ProvArena::InternTimes(const ProvExpr& a, const ProvExpr& b) {
  // Same shortcuts as the ProvExpr::Times factory (0 annihilates, 1 is the
  // unit), so fold seeds behave identically. No idempotence shortcut exists
  // for Times, so nothing can over-collapse here.
  if (a.IsZero() || b.IsZero()) return ProvExpr::Zero();
  if (a.IsOne()) return b;
  if (b.IsOne()) return a;
  return InternBinary(ProvExprKind::kTimes, a, b);
}

ProvExpr ProvArena::InternExprRec(
    const ProvExpr& expr, std::unordered_map<const void*, ProvExpr>& memo) {
  switch (expr.kind()) {
    case ProvExprKind::kZero:
    case ProvExprKind::kOne:
      return expr;  // Zero is null, One is a process-wide singleton
    case ProvExprKind::kVar:
      return InternVar(expr.var());
    case ProvExprKind::kPlus:
    case ProvExprKind::kTimes:
      break;
  }
  auto seen = memo.find(expr.NodeIdentity());
  if (seen != memo.end()) return seen->second;
  ProvExpr left = InternExprRec(expr.left(), memo);
  ProvExpr right = InternExprRec(expr.right(), memo);
  ProvExpr out = InternBinary(expr.kind(), left, right);
  memo.emplace(expr.NodeIdentity(), out);
  return out;
}

ProvExpr ProvArena::InternExpr(const ProvExpr& expr) {
  std::unordered_map<const void*, ProvExpr> memo;
  return InternExprRec(expr, memo);
}

const ProvExpr* ProvArena::CachedAnnotation(DerivId id) const {
  auto it = annotations_.find(id);
  return it == annotations_.end() ? nullptr : &it->second;
}

void ProvArena::CacheAnnotation(DerivId id, const ProvExpr& expr) {
  if (annotations_.emplace(id, expr).second) Charge(kTableEntryOverhead);
}

const Bytes* ProvArena::CachedWire(DerivId id) const {
  auto it = wire_.find(id);
  return it == wire_.end() ? nullptr : &it->second;
}

void ProvArena::CacheWire(DerivId id, Bytes bytes) {
  if (wire_.size() >= kWireCacheMaxEntries) {
    Release(wire_bytes_);
    wire_.clear();
    wire_bytes_ = 0;
  }
  size_t charged = bytes.size() + kTableEntryOverhead;
  if (wire_.emplace(id, std::move(bytes)).second) {
    wire_bytes_ += charged;
    Charge(charged);
  }
}

namespace {
Sha256Digest PayloadKey(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finish();
}
}  // namespace

DerivId ProvArena::CachedDecode(const uint8_t* data, size_t len) const {
  auto it = decode_.find(PayloadKey(data, len));
  return it == decode_.end() ? 0 : it->second;
}

void ProvArena::CacheDecode(const uint8_t* data, size_t len, DerivId id) {
  if (decode_.emplace(PayloadKey(data, len), id).second) {
    Charge(kTableEntryOverhead);
  }
}

BigInt ProvArena::CountExact(const ProvExpr& expr) {
  ProvExpr interned = InternExpr(expr);
  size_t before = count_memo_.size();
  BigInt out = DerivationCountExact(interned, &count_memo_);
  Charge((count_memo_.size() - before) * kTableEntryOverhead);
  return out;
}

ProvArena::Stats ProvArena::TakeStats() {
  Stats out = stats_;
  stats_ = Stats{};
  return out;
}

}  // namespace provnet::store
