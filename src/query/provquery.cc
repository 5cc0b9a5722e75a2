#include "query/provquery.h"

#include <algorithm>
#include <chrono>
#include <compare>
#include <functional>
#include <map>
#include <tuple>

#include "provenance/semiring.h"
#include "query/session.h"
#include "store/arena.h"
#include "util/strings.h"

namespace provnet {

const char* QueryScopeName(QueryScope scope) {
  switch (scope) {
    case QueryScope::kAuto:
      return "auto";
    case QueryScope::kLocal:
      return "local";
    case QueryScope::kDistributed:
      return "distributed";
  }
  return "?";
}

std::string QueryStats::ToString() const {
  std::string out = StrFormat(
      "msgs=%llu bytes=%llu requests=%llu responses=%llu rejected=%llu "
      "records=%llu local=%llu offline=%llu depth=%zu truncated=%zu "
      "wall=%.4fs",
      static_cast<unsigned long long>(messages),
      static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(responses),
      static_cast<unsigned long long>(responses_rejected),
      static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(local_lookups),
      static_cast<unsigned long long>(offline_hits), depth, truncated,
      wall_seconds);
  // Degradation fields only appear when faults actually bit: a healthy
  // network keeps the historical string byte-for-byte.
  if (timeouts != 0 || retries != 0 || unreachable != 0) {
    out += StrFormat(" timeouts=%llu retries=%llu unreachable=%llu",
                     static_cast<unsigned long long>(timeouts),
                     static_cast<unsigned long long>(retries),
                     static_cast<unsigned long long>(unreachable));
  }
  return out;
}

// --- ProofDag ---------------------------------------------------------------

std::vector<Tuple> ProofDag::Leaves() const {
  std::vector<Tuple> out;
  std::set<Tuple> seen;
  for (const ProofNode& n : nodes) {
    if (n.IsOrigin() && seen.insert(n.tuple).second) out.push_back(n.tuple);
  }
  return out;
}

std::set<NodeId> ProofDag::OriginNodes() const {
  std::set<NodeId> out;
  for (const ProofNode& n : nodes) {
    if (n.IsOrigin()) out.insert(n.location);
  }
  return out;
}

std::set<Principal> ProofDag::LeafPrincipals() const {
  std::set<Principal> out;
  for (const ProofNode& n : nodes) {
    if (n.IsOrigin() && !n.asserted_by.empty()) out.insert(n.asserted_by);
  }
  return out;
}

size_t ProofDag::Depth() const {
  if (nodes.empty()) return 0;
  // Memoized longest path; proof DAGs are acyclic by construction (cycles
  // were cut into kCycleRule leaves).
  std::vector<size_t> memo(nodes.size(), 0);
  std::function<size_t(uint32_t)> walk = [&](uint32_t i) -> size_t {
    if (memo[i] != 0) return memo[i];
    size_t best = 0;
    for (uint32_t c : nodes[i].children) best = std::max(best, walk(c));
    return memo[i] = best + 1;
  };
  return walk(root);
}

ProvExpr ProofDag::Annotation(ProvVarRegistry& registry,
                              ProvGrain grain) const {
  if (nodes.empty()) return ProvExpr::Zero();
  std::map<uint32_t, ProvExpr> memo;
  std::function<ProvExpr(uint32_t)> fold = [&](uint32_t i) -> ProvExpr {
    auto it = memo.find(i);
    if (it != memo.end()) return it->second;
    const ProofNode& n = nodes[i];
    ProvExpr result;
    if (n.children.empty()) {
      if (n.IsOrigin()) {
        result = ProvExpr::Var(registry.Intern(
            grain == ProvGrain::kPrincipal ? n.asserted_by
                                           : n.tuple.ToString()));
      } else {
        result = ProvExpr::Zero();  // missing/cycle: not derivable this way
      }
    } else if (n.rule == kUnionRule) {
      result = ProvExpr::Zero();
      for (uint32_t c : n.children) result = ProvExpr::Plus(result, fold(c));
    } else {
      result = ProvExpr::One();
      for (uint32_t c : n.children) result = ProvExpr::Times(result, fold(c));
    }
    memo.emplace(i, result);
    return result;
  };
  return fold(root);
}

Bytes ProofDag::CanonicalBytes() const {
  ByteWriter out;
  if (nodes.empty()) return std::move(out).Take();
  // Preorder DFS with first-visit ids: equal bytes <=> identical structure,
  // regardless of the order nodes were appended during construction.
  std::map<uint32_t, uint32_t> ids;
  std::function<void(uint32_t)> walk = [&](uint32_t i) {
    auto it = ids.find(i);
    if (it != ids.end()) {
      out.PutU8(0);  // back-reference to a shared node
      out.PutVarint(it->second);
      return;
    }
    ids.emplace(i, static_cast<uint32_t>(ids.size()));
    const ProofNode& n = nodes[i];
    out.PutU8(1);
    n.tuple.Serialize(out);
    out.PutString(n.rule);
    out.PutU32(n.location);
    out.PutString(n.asserted_by);
    out.PutVarint(n.children.size());
    for (uint32_t c : n.children) walk(c);
  };
  walk(root);
  return std::move(out).Take();
}

DerivationPtr ProofDag::ToDerivation() const {
  if (nodes.empty()) return nullptr;
  std::map<uint32_t, DerivationPtr> memo;
  std::function<DerivationPtr(uint32_t)> build =
      [&](uint32_t i) -> DerivationPtr {
    auto it = memo.find(i);
    if (it != memo.end()) return it->second;
    const ProofNode& n = nodes[i];
    DerivationPtr result;
    if (n.children.empty() && n.rule == kBaseRule) {
      result = MakeBaseDerivation(n.tuple, n.location, n.asserted_by,
                                  n.created_at, -1.0);
    } else {
      std::vector<DerivationPtr> children;
      children.reserve(n.children.size());
      for (uint32_t c : n.children) children.push_back(build(c));
      result = MakeRuleDerivation(n.tuple, n.rule, n.location, n.asserted_by,
                                  n.created_at, -1.0, std::move(children));
    }
    memo.emplace(i, result);
    return result;
  };
  return build(root);
}

std::string ProofDag::ToString() const {
  DerivationPtr deriv = ToDerivation();
  return deriv == nullptr ? std::string("<empty proof>") : deriv->ToString();
}

// --- QueryResult evaluations ------------------------------------------------

bool QueryResult::DerivableFrom(
    const std::unordered_map<ProvVar, bool>& trusted) const {
  return provnet::DerivableFrom(annotation, trusted);
}

int64_t QueryResult::TrustLevel(
    const std::unordered_map<ProvVar, int64_t>& levels,
    int64_t default_level) const {
  return TrustLevelOf(annotation, levels, default_level);
}

uint64_t QueryResult::DerivationCount() const {
  return provnet::DerivationCount(annotation);
}

BigInt QueryResult::DerivationCountExact() const {
  if (arena != nullptr) return arena->CountExact(annotation);
  return provnet::DerivationCountExact(annotation);
}

CondensedProv QueryResult::Condensed() const { return Condense(annotation); }

// --- DAG assembly from collected records ------------------------------------

namespace {

// Import of a stored derivation tree under the distributed walk's
// semantics, so a local answer reports the same records and depth as a walk
// and a limit that cuts nothing changes nothing: base leaves are exempt
// (they ride inside their parent's record on the wire), union alternatives
// share their key's depth, and cut children become kMissingRule leaves
// counted into stats.truncated. Each derivation node is imported once, at
// the depth it is first seen — the walk's rule (ProvQuerySession::depth) —
// so a shared sub-proof stays one DAG node.
class StoredTreeImporter {
 public:
  StoredTreeImporter(const QueryLimits& limits, QueryStats& stats)
      : limits_(limits), stats_(stats) {}

  ProofDag Import(const DerivationNode& root) {
    dag_.root = Build(root, 0);
    return std::move(dag_);
  }

 private:
  uint32_t AddNode(ProofNode node) {
    uint32_t idx = static_cast<uint32_t>(dag_.nodes.size());
    dag_.nodes.push_back(std::move(node));
    return idx;
  }

  uint32_t MissingLeaf(const DerivationNode& d) {
    ProofNode node;
    node.tuple = d.tuple;
    node.rule = kMissingRule;
    node.location = d.location;
    return AddNode(std::move(node));
  }

  uint32_t Build(const DerivationNode& d, size_t depth) {
    auto it = memo_.find(&d);
    if (it != memo_.end()) return it->second;

    bool is_base = d.children.empty() && d.rule == kBaseRule;
    if (!is_base) {
      if (limits_.max_records != 0 &&
          stats_.records >= limits_.max_records) {
        ++stats_.truncated;
        return MissingLeaf(d);
      }
      ++stats_.records;
      // Base leaves ride inside their parent's record (no hop of their
      // own), so only record-like nodes advance the depth gauge — same
      // accounting as the distributed walk.
      stats_.depth = std::max(stats_.depth, depth);
    }

    std::vector<uint32_t> children;
    children.reserve(d.children.size());
    for (const DerivationPtr& child : d.children) {
      bool child_is_base =
          child->children.empty() && child->rule == kBaseRule;
      // Union alternatives resolve the same tuple: same depth.
      size_t child_depth = d.rule == kUnionRule ? depth : depth + 1;
      if (!child_is_base && d.rule != kUnionRule &&
          limits_.max_depth != 0 && child_depth > limits_.max_depth) {
        ++stats_.truncated;
        children.push_back(MissingLeaf(*child));
        continue;
      }
      children.push_back(Build(*child, child_depth));
    }

    ProofNode node;
    node.tuple = d.tuple;
    node.rule = d.rule;
    node.location = d.location;
    node.asserted_by = d.asserted_by;
    node.created_at = d.created_at;
    node.children = std::move(children);
    uint32_t idx = AddNode(std::move(node));
    memo_.emplace(&d, idx);
    return idx;
  }

  const QueryLimits& limits_;
  QueryStats& stats_;
  ProofDag dag_;
  std::unordered_map<const DerivationNode*, uint32_t> memo_;
};

// A pass-through transport hop: the receive-side record a shipped tuple
// leaves behind (rule "recv", one non-base child, same digest). Collapsed
// during assembly so the reconstruction mirrors the derivation structure a
// local full-provenance tree stores — hops are transport, not derivation.
bool IsRecvHop(const ProvRecord& rec, TupleDigest digest) {
  return rec.rule == "recv" && rec.children.size() == 1 &&
         !rec.children[0].is_base && rec.children[0].digest == digest;
}

// The order the walk visits a tuple's records in: by content, never by
// arrival. Own derivations come before received copies (as in an initial
// fixpoint, and so in a local full tree), then rule, location, asserter and
// each child's (node, digest). A child ref's asserter is left out: it names
// whichever copy of the child arrived first, and proof nodes omit it. A
// derivation logged twice (an archive across crash recovery) thus sits
// next to its twin.
std::strong_ordering CompareContent(const ProvRecord& a, const ProvRecord& b) {
  auto head = [](const ProvRecord& r) {
    return std::tuple<bool, const std::string&, NodeId, const Principal&>(
        r.rule == "recv", r.rule, r.location, r.asserted_by);
  };
  if (auto c = head(a) <=> head(b); c != 0) return c;
  auto child = [](const ProvChildRef& c) {
    return std::tie(c.node, c.digest, c.is_base);
  };
  return std::lexicographical_compare_three_way(
      a.children.begin(), a.children.end(), b.children.begin(),
      b.children.end(), [&](const ProvChildRef& x, const ProvChildRef& y) {
        return child(x) <=> child(y);
      });
}

class DagAssembler {
 public:
  explicit DagAssembler(
      const std::map<ProvQuerySession::Key, std::vector<ProvRecord>>&
          collected,
      const std::set<ProvQuerySession::Key>* unreachable = nullptr)
      : collected_(collected), unreachable_(unreachable) {}

  ProofDag Assemble(NodeId node, TupleDigest digest, const Tuple& known) {
    dag_.root = Build(node, digest, &known);
    return std::move(dag_);
  }

 private:
  uint32_t AddNode(ProofNode node) {
    uint32_t idx = static_cast<uint32_t>(dag_.nodes.size());
    dag_.nodes.push_back(std::move(node));
    return idx;
  }

  uint32_t AddBaseLeaf(const ProvChildRef& ref, double created_at) {
    // Base assertions are shared DAG nodes, exactly as the emit-time
    // derivation trees share one DerivationPtr per inserted fact.
    auto key = std::make_tuple(ref.node, DigestOf(ref.base_tuple),
                               ref.asserted_by);
    auto it = base_memo_.find(key);
    if (it != base_memo_.end()) return it->second;
    ProofNode node;
    node.tuple = ref.base_tuple;
    node.rule = kBaseRule;
    node.location = ref.node;
    node.asserted_by = ref.asserted_by;
    node.created_at = created_at;
    uint32_t idx = AddNode(std::move(node));
    base_memo_.emplace(key, idx);
    return idx;
  }

  uint32_t Build(NodeId n, TupleDigest digest, const Tuple* known_tuple) {
    ProvQuerySession::Key key{n, digest};
    auto memo_it = memo_.find(key);
    if (memo_it != memo_.end()) return memo_it->second;

    auto it = collected_.find(key);
    if (it == collected_.end() || it->second.empty()) {
      // Unknown — either the responder timed out past its retry budget with
      // an empty archive (unreachable: may resolve once the partition
      // heals), or the records genuinely are not there (missing:
      // sampled-out, expired, rejected, or cut by a limit).
      ProofNode node;
      node.tuple =
          known_tuple != nullptr ? *known_tuple : Tuple("unknown", {});
      node.rule = (unreachable_ != nullptr && unreachable_->count(key) != 0)
                      ? kUnreachableRule
                      : kMissingRule;
      node.location = n;
      uint32_t idx = AddNode(std::move(node));
      memo_.emplace(key, idx);
      return idx;
    }
    if (visiting_.count(key) != 0) {
      // Conservative cut; engine pointer graphs are acyclic in the common
      // case, and a memoized subtree may still resolve the tuple elsewhere.
      ProofNode node;
      node.tuple =
          known_tuple != nullptr ? *known_tuple : it->second[0].tuple;
      node.rule = kCycleRule;
      node.location = n;
      return AddNode(std::move(node));
    }
    visiting_.insert(key);

    std::vector<const ProvRecord*> records;
    records.reserve(it->second.size());
    for (const ProvRecord& rec : it->second) records.push_back(&rec);
    if (records.size() > 1) {
      // Content order; a record equal to its predecessor is the same
      // derivation logged twice (MergeAlternatives drops such duplicates
      // from local trees too).
      auto less = [](const ProvRecord* a, const ProvRecord* b) {
        return CompareContent(*a, *b) < 0;
      };
      auto same = [](const ProvRecord* a, const ProvRecord* b) {
        return CompareContent(*a, *b) == 0;
      };
      std::stable_sort(records.begin(), records.end(), less);
      records.erase(std::unique(records.begin(), records.end(), same),
                    records.end());
    }

    std::vector<uint32_t> alternatives;
    for (const ProvRecord* record : records) {
      const ProvRecord& rec = *record;
      if (IsRecvHop(rec, digest)) {
        alternatives.push_back(
            Build(rec.children[0].node, digest, &rec.tuple));
        continue;
      }
      std::vector<uint32_t> children;
      children.reserve(rec.children.size());
      for (const ProvChildRef& ref : rec.children) {
        if (ref.is_base) {
          children.push_back(AddBaseLeaf(ref, rec.created_at));
        } else {
          children.push_back(Build(ref.node, ref.digest, nullptr));
        }
      }
      ProofNode node;
      node.tuple = rec.tuple;
      node.rule = rec.rule;
      node.location = rec.location;
      node.asserted_by = rec.asserted_by;
      node.created_at = rec.created_at;
      node.children = std::move(children);
      alternatives.push_back(AddNode(std::move(node)));
    }
    visiting_.erase(key);

    uint32_t idx;
    if (alternatives.size() == 1) {
      idx = alternatives[0];
    } else {
      // Alternative derivations merge under a union node (the DAG analogue
      // of MergeAlternatives). Duplicate alternatives (a recv hop plus a
      // memoized shared subtree resolving to the same node) collapse.
      std::vector<uint32_t> unique;
      for (uint32_t a : alternatives) {
        if (std::find(unique.begin(), unique.end(), a) == unique.end()) {
          unique.push_back(a);
        }
      }
      if (unique.size() == 1) {
        idx = unique[0];
      } else {
        ProofNode node;
        node.tuple = dag_.nodes[unique[0]].tuple;
        node.rule = kUnionRule;
        node.location = dag_.nodes[unique[0]].location;
        node.asserted_by = dag_.nodes[unique[0]].asserted_by;
        node.created_at = dag_.nodes[unique[0]].created_at;
        node.children = std::move(unique);
        idx = AddNode(std::move(node));
      }
    }
    memo_.emplace(key, idx);
    return idx;
  }

  const std::map<ProvQuerySession::Key, std::vector<ProvRecord>>& collected_;
  const std::set<ProvQuerySession::Key>* unreachable_;
  ProofDag dag_;
  std::map<ProvQuerySession::Key, uint32_t> memo_;
  std::set<ProvQuerySession::Key> visiting_;
  std::map<std::tuple<NodeId, TupleDigest, Principal>, uint32_t> base_memo_;
};

}  // namespace

// --- ProvQuery --------------------------------------------------------------

Result<QueryResult> ProvQuery::RunLocal(const StoredTuple* stored) {
  Engine& engine = *engine_;
  QueryResult out;
  out.used = QueryScope::kLocal;
  if (stored != nullptr && stored->deriv != nullptr) {
    // The stored full-provenance tree (ProvMode::kFull) is the proof;
    // limits truncate it exactly as they bound the distributed walk.
    out.dag = StoredTreeImporter(limits_, out.stats).Import(*stored->deriv);
    return out;
  }
  // Walk this node's own records; references held by other nodes are cut
  // (they would need the network — that is what kDistributed is for).
  ProvQuerySession session;
  session.asker = node_;
  session.kind = kQueryRecords;
  session.local_only = true;
  session.limits = limits_;
  TupleDigest root = DigestOf(tuple_);
  session.depth.emplace(ProvQuerySession::Key{node_, root}, 0);
  session.local_frontier.push_back({node_, root});
  PROVNET_RETURN_IF_ERROR(engine.DrainQueryFrontier(session));
  if (session.collected[{node_, root}].empty()) {
    return NotFoundError("no provenance records for " + tuple_.ToString());
  }
  out.dag = DagAssembler(session.collected).Assemble(node_, root, tuple_);
  out.stats = session.stats;
  return out;
}

Result<QueryResult> ProvQuery::RunDistributed() {
  Engine& engine = *engine_;
  ProvQuerySession session;
  session.asker = node_;
  session.kind = kQueryRecords;
  session.limits = limits_;
  TupleDigest root = DigestOf(tuple_);
  session.depth.emplace(ProvQuerySession::Key{node_, root}, 0);
  session.local_frontier.push_back({node_, root});
  PROVNET_RETURN_IF_ERROR(engine.RunQuerySession(session, [&]() {
    // Mint the walk's root span; the first requests leave from the local
    // frontier under it.
    uint64_t root_span = engine.NewCausalSpan(node_);
    session.causal = CausalIds{root_span, root_span};
    return OkStatus();
  }));

  // A tuple nobody recorded is not reconstructible at all.
  if (session.collected[{node_, root}].empty()) {
    return NotFoundError("no provenance records for " + tuple_.ToString());
  }
  QueryResult out;
  out.used = QueryScope::kDistributed;
  out.dag = DagAssembler(session.collected, &session.unreachable)
                .Assemble(node_, root, tuple_);
  out.stats = session.stats;
  return out;
}

Result<QueryResult> ProvQuery::Run() {
  Engine& engine = *engine_;
  if (node_ >= engine.num_nodes()) {
    return InvalidArgumentError("ProvQuery: unknown node");
  }
  if (tuple_.predicate().empty()) {
    return InvalidArgumentError("ProvQuery: no tuple selected (use Of())");
  }
  auto t0 = std::chrono::steady_clock::now();

  const StoredTuple* stored = nullptr;
  const Table* table = engine.node(node_).FindTable(tuple_.predicate());
  if (table != nullptr) stored = table->Find(tuple_);

  QueryScope used = scope_;
  if (used == QueryScope::kAuto) {
    used = (stored != nullptr && stored->deriv != nullptr)
               ? QueryScope::kLocal
               : QueryScope::kDistributed;
  }
  Result<QueryResult> result = used == QueryScope::kLocal
                                   ? RunLocal(stored)
                                   : RunDistributed();
  PROVNET_RETURN_IF_ERROR(result.status());
  QueryResult out = std::move(result).value();
  out.annotation = out.dag.Annotation(engine.registry(), grain_);
  out.arena = engine.arena();
  out.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

// --- ClaimsExchange ---------------------------------------------------------

Result<std::vector<ClaimsExchange::Claim>> ClaimsExchange::Collect(
    const std::set<std::string>& predicates,
    const std::set<NodeId>& skip_nodes) {
  Engine& engine = *engine_;
  if (auditor_ >= engine.num_nodes()) {
    return InvalidArgumentError("ClaimsExchange: unknown auditor node");
  }
  auto t0 = std::chrono::steady_clock::now();
  silent_.clear();
  ProvQuerySession session;
  session.asker = auditor_;
  session.kind = kQueryClaims;
  ByteWriter args;
  args.PutVarint(predicates.size());
  for (const std::string& pred : predicates) args.PutString(pred);
  PROVNET_RETURN_IF_ERROR(engine.RunQuerySession(session, [&]() {
    for (NodeId n = 0; n < engine.num_nodes(); ++n) {
      if (n == auditor_ || skip_nodes.count(n) != 0) continue;
      PROVNET_RETURN_IF_ERROR(
          engine.SendQueryRequest(session, n, args.bytes()));
    }
    return OkStatus();
  }));
  // The sweep completes over the answers that did arrive; campaign.h's
  // promise — a failed audit never reads as a clean one — holds because
  // silent() is never empty when the exchange was incomplete.
  silent_ = std::move(session.silent);
  // Responses land in arrival order, which loss and retransmission shuffle.
  // Ordering the claims by responder (each keeping its answer's order) makes
  // the audit's "first claim" of a key independent of the transport.
  std::stable_sort(
      session.claims.begin(), session.claims.end(),
      [](const Claim& a, const Claim& b) { return a.node < b.node; });

  // The auditor's own claims are read locally, for free — through the same
  // definition of "claim" the responders answered with.
  ++session.stats.local_lookups;
  for (const StoredTuple* e : engine.ClaimTuplesAt(auditor_, predicates)) {
    session.claims.push_back(Claim{auditor_, e->asserted_by, e->tuple});
  }

  session.stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stats_ = session.stats;
  return std::move(session.claims);
}

}  // namespace provnet
