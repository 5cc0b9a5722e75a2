// Hash-consed derivation arena: the store-time dedup layer of the durable
// provenance store (ISSUE 9 tentpole, ROADMAP item 2).
//
// Full-provenance mode used to materialize every received derivation tree
// and every rebuilt ProvExpr annotation fresh per message, even though the
// fixpoint re-derives the same sub-proofs at every hop — ProofDag proved
// the sharing exists, but only at query time. The arena moves the collapse
// to *store* time:
//
//  * Canonical() interns DerivationNodes bottom-up by ContentDigest (the
//    same Merkle digest distributed child refs point at), so each distinct
//    sub-proof is owned once, process-wide, under a stable DerivId.
//  * InternExpr()/InternVar()/InternBinary() hash-cons ProvExpr nodes, so
//    annotations rebuilt from equal trees are pointer-equal — which also
//    makes node-identity memo tables (DerivationCountExact) persistent.
//  * Per-DerivId caches for rebuilt annotations and serialized wire bytes
//    turn the receive and send paths from O(tree) to O(1) for repeats.
//
// Interning uses the *Raw expression constructors: the arena must preserve
// structure exactly (same DerivationCount, same CanonicalBytes) — it only
// collapses physical duplication, never semantic alternatives.
//
// Not thread-safe by design: full-provenance runs are pinned to the
// sequential executor (core/engine.cc Run()), which is also what keeps the
// interned_hits/interned_nodes counters deterministic.
#ifndef PROVNET_STORE_ARENA_H_
#define PROVNET_STORE_ARENA_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bignum/bigint.h"
#include "provenance/derivation.h"
#include "provenance/prov_expr.h"
#include "util/bytes.h"

namespace provnet::store {

// Stable arena id of an interned derivation node; 0 = none.
using DerivId = uint32_t;

class ProvArena {
 public:
  struct Stats {
    uint64_t interned_nodes = 0;  // distinct nodes adopted (deriv + expr)
    uint64_t interned_hits = 0;   // dedup hits against existing entries
  };

  ProvArena() = default;
  ~ProvArena();

  ProvArena(const ProvArena&) = delete;
  ProvArena& operator=(const ProvArena&) = delete;

  // Returns the arena-owned derivation equal to `root` (interned bottom-up
  // by ContentDigest; unshared suffixes are adopted, duplicated sub-proofs
  // are dropped in favor of the arena copy). `id` receives the root's
  // stable arena id when non-null.
  DerivationPtr Canonical(const DerivationPtr& root, DerivId* id);

  // Arena node by id; nullptr for 0 / out of range.
  DerivationPtr Lookup(DerivId id) const;
  // Id of an already-interned digest; 0 if the digest was never interned.
  DerivId IdOf(const Sha256Digest& digest) const;
  // Id by node identity — non-zero exactly for arena-owned nodes. A pointer
  // probe, so hot paths can skip the 32-byte digest-map lookup for nodes
  // that already live here (the common case after a decode-cache hit).
  DerivId IdOfOwned(const DerivationNode* node) const;

  // Hash-consed expression constructors. InternExpr rebuilds an arbitrary
  // expression with maximal sharing; the fine-grained entry points let the
  // engine's receive path build interned expressions directly.
  ProvExpr InternExpr(const ProvExpr& expr);
  ProvExpr InternVar(ProvVar v);
  ProvExpr InternPlus(const ProvExpr& a, const ProvExpr& b);
  ProvExpr InternTimes(const ProvExpr& a, const ProvExpr& b);

  // Annotation cache: the rebuilt ProvExpr for a derivation, reusable
  // whenever the same sub-proof arrives again. Only sender-independent
  // annotations belong here: a principal-grain leaf with no recorded
  // asserter folds to whoever *sent* it, so the receive path rebuilds
  // sub-proofs containing one on every delivery.
  const ProvExpr* CachedAnnotation(DerivId id) const;
  void CacheAnnotation(DerivId id, const ProvExpr& expr);

  // Wire cache: serialized DAG bytes for a derivation (SendTuple ships the
  // same proof to every neighbor). Bounded; see kWireCacheMaxEntries.
  const Bytes* CachedWire(DerivId id) const;
  void CacheWire(DerivId id, Bytes bytes);

  // Decode cache: SHA-256 of wire payload bytes -> interned root, for the
  // receive path. SendTuple primes it with the exact bytes it ships
  // (Canonical ∘ Deserialize is an identity for bytes serialized from a
  // canonical node), so an honest delivery maps straight back to its root
  // at the cost of one hash over the payload — no tree materialization,
  // no per-node digest pass. Forged payloads (bytes SendTuple never
  // produced) miss and take the full decode path. Entries are 40 bytes, so
  // the cache rides along unbounded and is accounted like the tables.
  DerivId CachedDecode(const uint8_t* data, size_t len) const;
  void CacheDecode(const uint8_t* data, size_t len, DerivId id);

  // DerivationCountExact through the arena: interns `expr` first, then
  // counts with a memo table that persists for the arena's lifetime — the
  // satellite that makes repeated quantification queries O(new nodes).
  BigInt CountExact(const ProvExpr& expr);

  // Counter deltas since the last call (fed into the engine's registry
  // cells at deterministic points).
  Stats TakeStats();

  size_t NodeCount() const { return nodes_.size(); }
  // Accounted footprint (charged to obs MemSubsystem::kProvArena).
  size_t ResidentBytes() const { return resident_bytes_; }

 private:
  struct DigestKey {
    size_t operator()(const Sha256Digest& d) const {
      uint64_t h = 0;
      for (int i = 0; i < 8; ++i) h = (h << 8) | d[i];
      return static_cast<size_t>(h);
    }
  };
  struct ExprKey {
    uint8_t kind;  // ProvExprKind::kPlus / kTimes
    const void* left;
    const void* right;
    bool operator==(const ExprKey& o) const {
      return kind == o.kind && left == o.left && right == o.right;
    }
  };
  struct ExprKeyHash {
    size_t operator()(const ExprKey& k) const {
      uintptr_t l = reinterpret_cast<uintptr_t>(k.left);
      uintptr_t r = reinterpret_cast<uintptr_t>(k.right);
      return static_cast<size_t>((l * 0x9E3779B97F4A7C15ull) ^ (r >> 3) ^
                                 k.kind);
    }
  };

  DerivId CanonicalRec(
      const DerivationPtr& node,
      std::unordered_map<const DerivationNode*, DerivId>& memo);
  ProvExpr InternExprRec(const ProvExpr& expr,
                         std::unordered_map<const void*, ProvExpr>& memo);
  ProvExpr InternBinary(ProvExprKind kind, const ProvExpr& a,
                        const ProvExpr& b);
  void Charge(size_t bytes);
  void Release(size_t bytes);

  // id - 1 indexes nodes_.
  std::vector<DerivationPtr> nodes_;
  std::unordered_map<Sha256Digest, DerivId, DigestKey> by_digest_;
  // Node identity -> id for arena-owned nodes: lets CanonicalRec stop at
  // already-interned subtrees instead of re-walking them per call.
  std::unordered_map<const DerivationNode*, DerivId> owned_;

  std::unordered_map<ProvVar, ProvExpr> vars_;
  std::unordered_map<ExprKey, ProvExpr, ExprKeyHash> exprs_;

  std::unordered_map<DerivId, ProvExpr> annotations_;
  std::unordered_map<DerivId, Bytes> wire_;
  std::unordered_map<Sha256Digest, DerivId, DigestKey> decode_;
  size_t wire_bytes_ = 0;

  std::unordered_map<const void*, BigInt> count_memo_;

  Stats stats_;
  size_t resident_bytes_ = 0;
};

}  // namespace provnet::store

#endif  // PROVNET_STORE_ARENA_H_
