// ProvQuery — the first-class, authenticated provenance-query API
// (Section 5: reconstructing and evaluating derivations on demand).
//
// One typed entry point serves every provenance query (the forensic
// traceback and the campaign audit sweeps included): a ProvQueryBuilder
// selects
//
//   * scope  - kLocal (the stored full derivation tree, else a walk over
//     this node's own records with no network traffic), kDistributed (the
//     Section 4.1 pointer-walk: signed, sequenced request/response messages
//     reconstruct the proof across nodes, online records preferred and the
//     offline archive as fallback at every hop), or kAuto (local when a
//     full tree is stored, distributed otherwise);
//   * grain  - which variables the reconstructed proof folds to (principal
//     or base-tuple, provenance/granularity semantics);
//   * limits - depth / total record budgets, so a forensic probe can bound
//     its own traffic;
//
// and Run() returns an explicit ProofDag plus QueryStats with per-query
// message/byte accounting — the paper's "expensive query vs. cheap
// shipping" trade-off, measurable per query. Semiring evaluations
// (derivability, trust level, counting, condensed cube — reusing
// provenance/semiring.* and provenance/condense.*) fold over the result.
//
// The wire path runs through the receive-side verification pipeline
// (src/adversary/verify.cc): both kMsgProvRequest and kMsgProvResponse
// carry the signed (sequence, destination) header, responses must answer an
// outstanding (query_id, responder, digest) triple issued by this node, and
// forged / replayed / misdirected / unsolicited responses are dropped,
// counted (RunStats::prov_responses_rejected) and audited in the
// SecurityLog.
#ifndef PROVNET_QUERY_PROVQUERY_H_
#define PROVNET_QUERY_PROVQUERY_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bignum/bigint.h"
#include "core/engine.h"
#include "provenance/condense.h"
#include "provenance/derivation.h"
#include "provenance/prov_expr.h"
#include "util/status.h"

namespace provnet {

// Rule labels of synthetic proof nodes (reconstruction artifacts, never
// produced by a real rule firing).
inline constexpr char kMissingRule[] = "missing";  // records unavailable
inline constexpr char kCycleRule[] = "cycle";      // pointer-graph cycle cut
// A responder that never answered within the per-hop deadline (after every
// retry, and with nothing in its offline archive to fall back on): the
// branch is unreachable *now*, not known-absent — re-running the query once
// the partition heals can resolve it.
inline constexpr char kUnreachableRule[] = "unreachable";

// Payload kinds inside the provenance-query wire messages. Public because
// the fault-injection layer (src/adversary/) crafts wire-faithful forged
// responses and must agree on the format.
inline constexpr uint8_t kQueryRecords = 0;  // digest -> ProvRecords
inline constexpr uint8_t kQueryClaims = 1;   // predicates -> asserted claims

enum class QueryScope : uint8_t {
  kAuto = 0,         // local full tree when stored, else distributed
  kLocal = 1,        // this node's stores only; never touches the network
  kDistributed = 2,  // authenticated pointer-walk over the network
};

const char* QueryScopeName(QueryScope scope);

// Traffic/effort bounds for one query. 0 = unbounded. Cut references
// surface as kMissingRule leaves and count into QueryStats::truncated.
struct QueryLimits {
  size_t max_depth = 0;    // derivation hops expanded from the root
  size_t max_records = 0;  // total records folded into the DAG
};

// Per-query accounting: the price of this reconstruction.
struct QueryStats {
  uint64_t messages = 0;  // wire messages the query put on the network
  uint64_t bytes = 0;     // their payload bytes (requests + responses)
  uint64_t requests = 0;  // kMsgProvRequest issued
  uint64_t responses = 0;          // kMsgProvResponse accepted
  uint64_t responses_rejected = 0;  // dropped by the verification pipeline
  uint64_t records = 0;         // ProvRecords folded into the DAG
  uint64_t local_lookups = 0;   // store lookups answered without messages
  uint64_t offline_hits = 0;    // lookups that fell back to the archive
  // Degradation under faults (Engine::QueryTimeoutSeconds): per-hop
  // deadlines that expired, requests re-sent with backoff, and branches
  // finally surfaced as kUnreachableRule leaves. All zero on a healthy
  // network (ToString omits them then, keeping historical bytes).
  uint64_t timeouts = 0;
  uint64_t retries = 0;
  uint64_t unreachable = 0;
  size_t depth = 0;             // deepest level expanded
  size_t truncated = 0;         // refs cut by depth/record limits
  double wall_seconds = 0.0;

  std::string ToString() const;
};

// One node of a reconstructed proof DAG. `children` index into
// ProofDag::nodes; shared sub-derivations resolve to one node.
struct ProofNode {
  Tuple tuple;
  std::string rule;  // rule label, kBaseRule, kUnionRule, kMissingRule, ...
  NodeId location = 0;
  Principal asserted_by;
  double created_at = 0.0;
  std::vector<uint32_t> children;

  bool IsLeaf() const { return children.empty(); }
  // A real origin: a base assertion (not a reconstruction artifact).
  bool IsOrigin() const {
    return children.empty() && rule != kMissingRule && rule != kCycleRule &&
           rule != kUnreachableRule;
  }
};

// The explicit result of a provenance query: a DAG over ProofNodes with the
// root at index `root`. Unlike DerivationPtr trees, the structure is open
// for iteration (nodes vector) and carries no signatures or TTLs — it is
// the *reconstruction*, normalized so that a distributed walk of an honest
// run and the locally stored full-provenance tree produce identical DAGs
// (transport "recv" hops are collapsed; CanonicalBytes() compares them
// byte-for-byte).
struct ProofDag {
  std::vector<ProofNode> nodes;
  uint32_t root = 0;

  bool empty() const { return nodes.empty(); }
  const ProofNode& root_node() const { return nodes[root]; }

  // Distinct base tuples at the leaves (the inputs provenance must recover).
  std::vector<Tuple> Leaves() const;
  // Nodes asserting those leaves — the origin candidates of a traceback.
  std::set<NodeId> OriginNodes() const;
  // Principals asserting those leaves.
  std::set<Principal> LeafPrincipals() const;
  // 1 for a single-node DAG; 0 when empty.
  size_t Depth() const;

  // Provenance polynomial of the DAG: + over alternatives, * over joint
  // derivations, one variable per leaf at the chosen grain (principal or
  // base tuple). Missing/cycle leaves fold to Zero (conservative: nothing
  // is derivable through an unreconstructed branch).
  ProvExpr Annotation(ProvVarRegistry& registry, ProvGrain grain) const;

  // Canonical structural encoding: preorder DFS with first-visit node ids,
  // timestamps excluded. Equal bytes <=> identical proof structure.
  Bytes CanonicalBytes() const;

  // Bridge to the legacy derivation-tree representation.
  DerivationPtr ToDerivation() const;

  std::string ToString() const;
};

// A fully specified query plus its outcome helpers.
struct QueryResult {
  ProofDag dag;
  ProvExpr annotation;  // dag.Annotation at the query's grain
  QueryStats stats;
  QueryScope used = QueryScope::kLocal;  // what kAuto resolved to

  // Semiring evaluations over the reconstructed proof (Section 4.5).
  bool DerivableFrom(
      const std::unordered_map<ProvVar, bool>& trusted) const;
  int64_t TrustLevel(const std::unordered_map<ProvVar, int64_t>& levels,
                     int64_t default_level) const;
  // Counting semiring, saturating at UINT64_MAX — proofs whose shared
  // sub-derivations are referenced both directly and through an aggregate
  // record legitimately count exponentially many derivations, so the
  // machine-word view clamps instead of wrapping mod 2^64.
  uint64_t DerivationCount() const;
  // The exact count in arbitrary precision (src/bignum). Routed through
  // the queried engine's hash-consing arena when one exists (kFull): the
  // annotation is interned first, so repeated counts — across queries and
  // across tuples sharing sub-proofs — reuse the arena's persistent memo.
  BigInt DerivationCountExact() const;
  CondensedProv Condensed() const;

  // Non-owning; set by ProvQuery::Run from Engine::arena() (null outside
  // kFull). Must not outlive the engine.
  store::ProvArena* arena = nullptr;
};

// An executable provenance query, specified and run by ProvQueryBuilder.
// Run() is synchronous (it pumps the network to quiescence for distributed
// scopes).
class ProvQuery {
 public:
  Result<QueryResult> Run();

 private:
  friend class ProvQueryBuilder;
  explicit ProvQuery(Engine& engine) : engine_(&engine) {}

  Result<QueryResult> RunLocal(const StoredTuple* stored);
  Result<QueryResult> RunDistributed();

  Engine* engine_;
  NodeId node_ = 0;
  Tuple tuple_;
  QueryScope scope_ = QueryScope::kAuto;
  QueryLimits limits_;
  ProvGrain grain_ = ProvGrain::kPrincipal;
};

// Fluent construction: ProvQueryBuilder(engine).At(n).Of(t).Run().
class ProvQueryBuilder {
 public:
  explicit ProvQueryBuilder(Engine& engine) : query_(engine) {
    query_.grain_ = engine.options().prov_grain;
  }

  ProvQueryBuilder& At(NodeId node) {
    query_.node_ = node;
    return *this;
  }
  ProvQueryBuilder& Of(const Tuple& tuple) {
    query_.tuple_ = tuple;
    return *this;
  }
  ProvQueryBuilder& WithScope(QueryScope scope) {
    query_.scope_ = scope;
    return *this;
  }
  ProvQueryBuilder& WithGrain(ProvGrain grain) {
    query_.grain_ = grain;
    return *this;
  }
  ProvQueryBuilder& MaxDepth(size_t depth) {
    query_.limits_.max_depth = depth;
    return *this;
  }
  ProvQueryBuilder& MaxRecords(size_t records) {
    query_.limits_.max_records = records;
    return *this;
  }

  Result<QueryResult> Run() const { return ProvQuery(query_).Run(); }

 private:
  ProvQuery query_;
};

// Distributed claim collection over the authenticated query wire path: the
// auditor asks every (non-skipped) node for the tuples it stores of the
// given predicates, together with their asserting principals. Replaces the
// centralized table sweep the equivocation audit used to run for free — the
// exchange is real metered traffic, charged to RunStats::prov_query_bytes
// like any other provenance query. The auditor compares what it collected
// itself (EquivocationAudit, adversary/campaign.h): a delegated comparison
// would let a compromised delegate suppress the conflicts it was handed.
class ClaimsExchange {
 public:
  struct Claim {
    NodeId node = 0;  // where the claim is stored
    Principal asserted_by;
    Tuple tuple;
  };

  ClaimsExchange(Engine& engine, NodeId auditor)
      : engine_(&engine), auditor_(auditor) {}

  // Claims come back ordered by responder node, then the auditor's own:
  // the same list whatever order the responses arrived in.
  Result<std::vector<Claim>> Collect(const std::set<std::string>& predicates,
                                     const std::set<NodeId>& skip_nodes);

  // Accounting of the last Collect().
  const QueryStats& stats() const { return stats_; }

  // Responders that never answered the last Collect(). Silence is not a
  // transport error: each silent node is audited (kSilentResponder) and
  // surfaced here so the caller can treat suppression as incriminating —
  // the sweep completes over the answers it did get.
  const std::set<NodeId>& silent() const { return silent_; }

 private:
  Engine* engine_;
  NodeId auditor_;
  QueryStats stats_;
  std::set<NodeId> silent_;
};

}  // namespace provnet

#endif  // PROVNET_QUERY_PROVQUERY_H_
