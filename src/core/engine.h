// The provenance-aware secure declarative networking engine — the system the
// paper builds by extending P2 (Section 6: "We modified the P2 declarative
// networking system to support the SeNDlog query language, ... signed with
// RSA signatures. We further modify various relational operators
// (particularly joins) to support provenance.")
//
// One Engine runs a whole simulated deployment: it analyzes/localizes the
// program, instantiates a NodeContext per simulated node, and executes the
// distributed dataflow over the byte-metered Network until the distributed
// fixpoint. Three orthogonal switches reproduce the evaluation's variants:
//
//   authenticate=false, prov=kNone       -> "NDLog"
//   authenticate=true,  prov=kNone       -> "SeNDLog"
//   authenticate=true,  prov=kCondensed  -> "SeNDLogProv"
//
// plus the taxonomy modes of Section 4: kFull (local provenance piggybacks
// entire derivation trees), kPointers (distributed provenance: per-hop
// pointers, reconstructed on demand through the ProvQuery API of
// src/query/).
#ifndef PROVNET_CORE_ENGINE_H_
#define PROVNET_CORE_ENGINE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "adversary/audit.h"
#include "core/causal.h"
#include "core/envelope.h"
#include "core/node_context.h"
#include "core/plan.h"
#include "crypto/authenticator.h"
#include "datalog/parser.h"
#include "net/network.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "provenance/condense.h"
#include "provenance/prov_expr.h"
#include "util/status.h"

namespace provnet {

class ThreadPool;  // util/threadpool.h

namespace store {
class ProvArena;  // store/arena.h
}  // namespace store

enum class ProvMode : uint8_t {
  kNone = 0,       // no provenance (NDLog / SeNDLog baselines)
  kCondensed = 1,  // BDD-condensed annotations piggybacked (SeNDLogProv)
  kFull = 2,       // entire derivation tree piggybacked (local provenance)
  kPointers = 3,   // per-hop pointers only (distributed provenance)
};

const char* ProvModeName(ProvMode mode);

// Provenance payload kinds: the marker byte after the tuple in a kMsgTuple
// body (core/envelope.h has the envelope around it). Each ProvMode ships
// exactly one kind (ProvPayloadKind) and accepts only that one. In the
// header because the fault-injection layer (src/adversary/) crafts
// wire-faithful forged messages and must agree on the format.
inline constexpr uint8_t kProvPayloadNone = 0;
inline constexpr uint8_t kProvPayloadCubes = 1;
inline constexpr uint8_t kProvPayloadTree = 2;

// The payload kind `mode` ships: none for kNone/kPointers, cubes for
// kCondensed, the derivation tree for kFull.
uint8_t ProvPayloadKind(ProvMode mode);

enum class ProvGrain : uint8_t {
  kPrincipal = 0,  // one variable per asserting principal (paper's figures)
  kTuple = 1,      // one variable per base tuple (classic semiring lineage)
};

struct EngineOptions {
  // --- says / authentication (Section 2.2, 4.3) ---
  bool authenticate = false;
  SaysLevel says_level = SaysLevel::kRsa;
  size_t rsa_bits = 256;

  // --- receive-side verification pipeline (src/adversary/) ---
  // With authentication on, receivers verify every says tag (dropping
  // failures), and every message of every kind carries a signed (sequence,
  // destination) header: the destination check defeats cross-receiver
  // replay, the per-sender ReplayGuard defeats re-sent messages.
  //
  // Principals with an operator capability: allowed to retract tuples they
  // did not assert (the "network operator" of Section 4.2's compromise
  // response). Everyone else may only retract their own assertions.
  std::vector<Principal> operators;

  // --- provenance (Section 4) ---
  ProvMode prov_mode = ProvMode::kNone;
  ProvGrain prov_grain = ProvGrain::kPrincipal;
  bool record_online = false;   // populate OnlineProvStore
  bool record_offline = false;  // populate the offline archive
  bool recording_enabled = true;  // false = reactive mode (Section 5)
  uint32_t sample_k = 1;          // 1-in-k provenance sampling (Section 5)

  // --- durable provenance store (src/store/) ---
  // Used only with record_offline, which opens every node's archive.
  // Non-empty: each node's offline archive lives on disk at
  // <archive_dir>/node<i>.prov (append-only paged log; reopening an engine
  // over the same directory replays the log, so archives — and the
  // distributed ProvQuery offline fallback — survive process restarts).
  // A disk log keeps only the page being filled in memory. Empty: archives
  // are memory-resident page images in the same format.
  std::string archive_dir;

  // --- fault tolerance (src/net/faults.*) ---
  // A non-empty plan arms the deterministic fault injector and (because
  // lossy links are useless without it) the reliable transport. Scripted
  // crash/restart events are driven by Run() on the virtual clock. The
  // PROVNET_FAULT_PLAN environment variable ("loss=0.01,seed=7") installs
  // a uniform plan when this is left empty.
  FaultPlan fault_plan;
  // Ack/retransmit framing even without a fault plan (loss-free reliable
  // delivery costs only the frame bytes). Off and with an empty plan, the
  // wire format, meters, and telemetry key set are byte-identical to the
  // lossless FIFO. Its timing is fixed (Network::kRtoInitialS and its
  // neighbours).
  bool reliable_transport = false;

  // --- execution ---
  uint64_t seed = 1;
  // Worker lanes for the sharded parallel executor (src/core/parallel.cc).
  // 1 = today's single-threaded loop, bit-for-bit. 0 = hardware
  // concurrency. >1 shards delivery waves across a worker pool by
  // destination node; buffered side effects commit in wave seq order at
  // each wave's barrier, so fixpoints, derivation counts, and telemetry
  // snapshots are byte-identical at every thread count. When left at the
  // default 1, the PROVNET_THREADS environment variable overrides it (CI
  // runs the whole suite parallel that way).
  size_t threads = 1;
  // Principal names per node; defaults to "n0", "n1", ...
  std::vector<std::string> node_names;
};

struct RunStats {
  double wall_seconds = 0.0;  // Figure 3's metric
  double sim_seconds = 0.0;
  uint64_t deliveries = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;  // Figure 4's metric
  uint64_t tuple_bytes = 0;
  uint64_t auth_bytes = 0;
  uint64_t prov_bytes = 0;
  uint64_t events = 0;
  uint64_t derivations = 0;
  // Join-candidate tuples examined by the rule-firing inner loop; the
  // denominator of the evaluator's selectivity and the work the slot
  // compiler is judged on (bench_fixpoint).
  uint64_t join_candidates = 0;
  uint64_t signs = 0;
  uint64_t verifies = 0;
  uint64_t auth_failures = 0;
  // Verification-pipeline rejections beyond signature failures: replayed or
  // misdirected sequence headers, and unauthorized retractions.
  uint64_t replays_rejected = 0;
  uint64_t retracts_rejected = 0;
  // Provenance-query API (src/query/): queries executed over the wire,
  // their request/response traffic, and responses dropped by the
  // verification pipeline (forged, replayed, misdirected, or answering no
  // outstanding query).
  uint64_t prov_queries = 0;
  uint64_t prov_query_bytes = 0;
  uint64_t prov_responses_rejected = 0;
  // Piggybacked annotations rejected by the receive-side framing check (a
  // shipped cube that does not contain the sender's own variable).
  uint64_t prov_frames_rejected = 0;
  // Incremental maintenance (src/dynamics/): deletion deltas processed and
  // tuples restored by the re-derivation phase.
  uint64_t retractions = 0;
  uint64_t rederivations = 0;

  // Peak accounted bytes by subsystem ("table_rows=N prov_annotations=M
  // ..."), filled by Run() when obs::MemAccounting is enabled — empty
  // otherwise, so the default ToString() is unchanged. Wall-clock-free but
  // interleaving-dependent (peaks vary with thread count), hence excluded
  // from the determinism oracles.
  std::string peak_mem;

  std::string ToString() const;
};

struct DeltaState;  // epoch state of the incremental evaluator (dynamics/delta.h)
struct ProvQuerySession;  // in-flight provenance query (query/session.h)

class Engine {
 public:
  // `source` is NDlog or SeNDlog program text.
  static Result<std::unique_ptr<Engine>> Create(const Topology& topo,
                                                const std::string& source,
                                                EngineOptions options);
  static Result<std::unique_ptr<Engine>> Create(const Topology& topo,
                                                Program program,
                                                EngineOptions options);

  // Inserts the topology's link facts: link(@S, D, C). Called by Create;
  // exposed for tests building custom initial states.
  Status InsertLinkFacts();

  ~Engine();

  // Inserts an external base fact at `node` (enqueues a local event).
  // After an initial fixpoint this is an incremental *insertion delta*: only
  // the strands reachable from the new tuple re-fire (pipelined semi-naive
  // evaluation), so the next Run() costs proportional to the change.
  Status InsertFact(NodeId node, const Tuple& tuple, double ttl = -1.0);

  // --- Incremental update & churn (src/dynamics/) ---------------------------
  // Retracts a stored tuple at `node` and enqueues a deletion delta. The
  // next Run() propagates it DRed-style: every tuple derived (transitively,
  // across nodes) from the deleted one is over-deleted, then tuples with
  // surviving alternative derivations are restored. With condensed/full
  // provenance at ProvGrain::kTuple the restore is pruned through the
  // semiring annotations: a dependent whose annotation stays non-Zero after
  // zeroing the deleted base keeps its tuple (and gets the restricted
  // annotation) without any re-derivation. Externally deleted facts are
  // never resurrected by the re-derivation phase.
  Status DeleteFact(NodeId node, const Tuple& tuple);

  // Compromise response (Section 4.2's "delete all routing entries that
  // depend on the malicious node"): revokes every assertion of `principal`
  // and enqueues deletion deltas for all tuples whose provenance depends on
  // it, across every node. Tuples independently derivable through other
  // principals survive (or are re-derived with untainted provenance).
  // Follow with Run() to reach the post-revocation fixpoint.
  Status RetractPrincipal(const Principal& principal);

  // --- Fail-stop crash & recovery (src/net/faults.*) ------------------------
  // Crashes `node` now: all in-memory state (tables, online provenance,
  // anti-replay records) is lost, the durable archive's unflushed tail is
  // torn off, in-flight messages to/from the node vanish, and deliveries
  // while down are discarded. Engine-held identity (the principal's signing
  // key and send sequence — the node's "stable storage") survives.
  // Run() drives scripted CrashSpec events through these automatically.
  Status CrashNode(NodeId node);
  // Restarts a crashed node: re-opens its archive (an archive_dir log
  // replays every intact frame; a torn tail is truncated away; a memory
  // archive restarts empty). Once the network drains,
  // Run() clears every live node's tables and online records and re-inserts
  // every journaled base fact, so the fixpoint — and each online record —
  // is re-derived exactly as in the fault-free run.
  Status RestartNode(NodeId node);

  // Processes events and messages to the distributed fixpoint.
  Result<RunStats> Run();

  // --- Inspection -----------------------------------------------------------
  size_t num_nodes() const { return contexts_.size(); }
  NodeContext& node(NodeId id) { return *contexts_[id]; }
  const NodeContext& node(NodeId id) const { return *contexts_[id]; }
  Network& network() { return net_; }
  Authenticator& authenticator() { return auth_; }
  ProvVarRegistry& registry() { return registry_; }
  const EngineOptions& options() const { return options_; }
  const Plan& plan() const { return plan_; }

  // --- Verification & audit (src/adversary/verify.cc) -----------------------
  // Every receive-side rejection (bad/missing signature, replay, misdirected
  // destination, unauthorized retraction, malformed content) lands here.
  const SecurityLog& security_log() const { return security_log_; }
  SecurityLog& security_log() { return security_log_; }
  // Logs, counts and traces one security event (buffered on worker lanes).
  void RecordSecurityEvent(SecurityEventKind kind, NodeId node, NodeId from,
                           const Principal& claimed, std::string detail);
  // Issues the next authenticated-message sequence number for `principal`.
  // Public because key compromise includes counter compromise: an adversary
  // holding a principal's key continues its sequence (src/adversary/).
  uint64_t NextSendSeq(const Principal& principal) {
    return ++send_seq_[principal];
  }

  // Sorted tuples of `pred` stored at `node`.
  std::vector<Tuple> TuplesAt(NodeId node, const std::string& pred) const;

  Principal PrincipalOf(NodeId id) const;
  Result<NodeId> NodeOf(const Principal& principal) const;
  std::string VarName(ProvVar v) const { return registry_.NameOf(v); }

  // --- Provenance queries ---------------------------------------------------
  // Raw stored-state accessors. Reconstruction and evaluation — local or
  // over the network — goes through the ProvQuery API (src/query/), which
  // issues signed, sequenced request/response messages whose bytes are
  // charged to the bandwidth meters and to RunStats::prov_query_bytes.
  //
  // Semiring annotation of a stored tuple.
  Result<ProvExpr> AnnotationOf(NodeId node, const Tuple& tuple) const;
  // Condensed annotation (<a + a*b> -> <a>).
  Result<CondensedProv> CondensedOf(NodeId node, const Tuple& tuple) const;
  // Full local derivation tree (ProvMode::kFull).
  Result<DerivationPtr> LocalDerivationOf(NodeId node,
                                          const Tuple& tuple) const;
  // Hash-consing derivation arena (src/store/arena.h): non-null only in
  // kFull mode, where every stored derivation and annotation is interned
  // through it. Queries and tests reach it for memoized exact derivation
  // counts over stable arena ids.
  store::ProvArena* arena() const { return arena_.get(); }

  // --- Query sessions (src/query/wire.cc) -----------------------------------
  // ProvQuery and the audit's ClaimsExchange (query/provquery.h) build a
  // ProvQuerySession (query/session.h) and run it here: refuses while
  // another session pumps the network, lets `issue` send the first requests
  // (then adopts a set session.causal as the lane's context), pumps until
  // every request resolved or nothing can progress, and meters messages
  // and bytes into session.stats. A records walk counts one query, samples
  // provquery.latency_s and emits its `provquery` span; a claims collection
  // counts one query and records each responder still awaited as
  // kSilentResponder into session.silent.
  Status RunQuerySession(ProvQuerySession& session,
                         const std::function<Status()>& issue);
  // Issues one signed request of the session's kind to `to` and registers
  // it in the session's pending set. `args` is the kind's request body
  // after (kind, query id); `digest` is what a records answer must name.
  Status SendQueryRequest(ProvQuerySession& session, NodeId to,
                          const Bytes& args, TupleDigest digest = 0);
  // Resolves the session's asker-local references from the asker's own
  // stores, without messages: the whole of a kLocal walk.
  Status DrainQueryFrontier(ProvQuerySession& session);
  // Attributable claims `node` stores of the given predicates — what a
  // claims request answers and what the auditor reads locally.
  std::vector<const StoredTuple*> ClaimTuplesAt(
      NodeId node, const std::set<std::string>& predicates) const;

  // Cumulative engine counters (RunStats returns per-Run() windows; this is
  // the running total). Meter-style fields — wall/sim seconds, messages,
  // bytes — are computed per window and stay zero here; the tuple/auth/prov
  // byte splits and all rejection counters are cumulative. RunStats is a
  // *view*: the counters live in the metrics registry (per rule, per link,
  // per security-event kind) and are summed back into the flat struct here.
  const RunStats& cumulative_stats() const {
    stats_view_ = StatsView();
    return stats_view_;
  }

  // --- Observability (src/obs/) ---------------------------------------------
  // The typed metrics registry every engine counter lives in: per-rule
  // firing/candidate/derivation counts, per-link bytes by message kind,
  // per-kind security-event counters, provenance-query latency histograms.
  // Export with obs::SnapshotJson / obs::SnapshotText (obs/export.h).
  obs::Registry& metrics() { return obs_; }
  const obs::Registry& metrics() const { return obs_; }
  // Virtual-time tracer (off by default; Enable() to capture spans for rule
  // firings, message hops, deletion cascades, and ProvQuery walks).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  // Wall-clock phase profiler (off by default; Enable() before Run() to
  // measure where the wall time goes — parallel compute vs. serial commit
  // replay, crypto, delivery, query serving). Never feeds the golden
  // registry snapshot; export with obs::ProfileJson / obs_dump --prof.
  obs::Profiler& profiler() { return profiler_; }
  const obs::Profiler& profiler() const { return profiler_; }

  // Mints the next causal span id for a message sent by `node` —
  // deterministic (per-node counter, see core/causal.h). Public because
  // the fault-injection layer crafts wire-faithful messages and a stolen
  // key includes the victim's causal stream.
  uint64_t NewCausalSpan(NodeId node) {
    return PackSpanId(node, ++causal_seqs_[node]);
  }

  // Reactive provenance control (Section 5).
  void SetRecordingEnabled(bool enabled) {
    options_.recording_enabled = enabled;
  }

  // Observer invoked on every materialized tuple change (new/replaced/
  // refreshed). Drives the continuous monitoring queries of apps/diagnostics.
  using UpdateObserver =
      std::function<void(NodeId, const Tuple&, InsertOutcome, double now)>;
  void SetUpdateObserver(UpdateObserver observer) {
    observer_ = std::move(observer);
  }

  // Soft-state maintenance: expire tuples/provenance older than network time.
  void ExpireNow();

 private:
  Engine(const Topology& topo, EngineOptions options);

  // Divergence guard: the steps (events + deliveries) one Run() or one
  // query pump may take before failing as a divergent program.
  static constexpr uint64_t kMaxSteps = 100000000;

  Status Init(Program program);

  // --- Observability plumbing (src/obs/) ------------------------------------
  // Registers every engine instrument and resolves the hot-path handles
  // (raw pointers into the registry). Runs once at Init, after the plan is
  // compiled and node principals are known.
  void InitObs();
  // The flat RunStats recovered from the registry (per-rule counters summed
  // into the global totals). Meter-style fields stay zero; Run() fills them
  // from the network/authenticator meters per window.
  RunStats StatsView() const;
  // Per-(src, dst, message-kind) byte counter, interned on first traffic.
  obs::Counter* LinkBytesCell(NodeId from, NodeId to, uint8_t msg_kind);
  // Index of a compiled rule within plan_.rules() (contiguous storage).
  size_t RuleIndex(const CompiledRule& cr) const {
    return static_cast<size_t>(&cr - plan_.rules().data());
  }

  // Engine counters with pre-resolved registry handles: registration
  // (string hashing) happens at InitObs, never on the firing/receive hot
  // paths. The named ones are indexed by Ctr and registered from the one
  // name table in InitObs.
  enum class Ctr : uint8_t {
    kDeliveries,
    kEvents,
    kRetractions,
    kRederivations,
    kTupleBytes,
    kAuthBytes,
    kProvBytes,
    kAuthFailures,
    kReplaysRejected,
    kRetractsRejected,
    kProvQueries,
    kProvQueryBytes,
    kProvResponsesRejected,
    kProvFramesRejected,
    kQueryOfflineHits,
    // Durable-store health (src/store/). Conditionally registered: the
    // arena pair only in kFull mode, the archive pair only with
    // record_offline — so condensed/none telemetry snapshots keep exactly
    // their pre-store key set. Null handles when not registered.
    kStoreInternedNodes,
    kStoreInternedHits,
    kArchivePageReads,
    kArchivePageWrites,
    kNumNamed,
  };
  // Per-rule counters (label rule=<label>), three per compiled rule.
  enum class RuleCtr : uint8_t { kFirings, kCandidates, kDerivations };
  static constexpr size_t kSecurityBase = static_cast<size_t>(Ctr::kNumNamed);
  static constexpr size_t kRuleBase = kSecurityBase + kNumSecurityEventKinds;

  struct ObsCells {
    // Every counter handle in one array, so worker lanes mirror and merge
    // it by position: the Ctr counters, then one per SecurityEventKind,
    // then three per rule in plan_.rules() order.
    std::vector<obs::Counter*> counters;
    // Virtual-time latency distributions of the ProvQuery walk.
    obs::Histogram* query_latency = nullptr;
    obs::Histogram* query_hop_latency = nullptr;

    obs::Counter* operator[](Ctr c) const {
      return counters[static_cast<size_t>(c)];
    }
    obs::Counter* security(SecurityEventKind kind) const {
      return counters[kSecurityBase + static_cast<size_t>(kind)];
    }
    obs::Counter* rule(size_t rule_index, RuleCtr c) const {
      return counters[kRuleBase + 3 * rule_index + static_cast<size_t>(c)];
    }
  };

  struct PendingEvent {
    NodeId node;
    Tuple tuple;
    // Causal context the event was created under (the inbound message that
    // delivered the tuple, or zero for external inserts). Cascade sends
    // processing this event inherit it.
    CausalIds causal;
  };

  ProvExpr BaseAnnotation(const Principal& principal, const Tuple& tuple);

  Status ProcessEvent(const PendingEvent& event);
  Status FireStrand(NodeId node_id, const CompiledRule& cr, int delta_index,
                    const StoredTuple& delta_entry);
  Status EmitHead(NodeId node_id, const CompiledRule& cr, const Frame& frame,
                  const std::vector<const StoredTuple*>& used);
  // Stores a tuple locally; enqueues a delta event when it changed state.
  // `children` are the provenance child refs captured at emit time (empty
  // for base facts and received tuples, which build their own).
  Status DeliverLocal(NodeId node_id, StoredTuple entry,
                      std::vector<ProvChildRef> children,
                      const std::string& rule_label);
  Status SendTuple(NodeId from, NodeId to, const Tuple& tuple,
                   const ProvExpr& prov, const DerivationPtr& deriv);
  // The one honest send step for every message kind: seals `body` into a
  // `type` envelope (core/envelope.h) with a fresh signed prefix and says
  // tag, charges and traces it, and ships it (buffered on a worker lane).
  // Tuple and retract bytes split into prov (`prov_bytes` of the body),
  // auth (header plus tag) and tuple (the rest); query bytes all go to
  // prov_query_bytes. `pred` names the carried tuple in the trace.
  Status SealAndShip(NodeId from, NodeId to, uint8_t type, const Bytes& body,
                     size_t prov_bytes = 0, const std::string& pred = "");
  bool SaysMatches(const SlotSays& says, const StoredTuple& entry,
                   Frame& frame) const;

  // True when any provenance-record sink is active (pointer mode or
  // explicit stores) and recording is enabled. Child refs are only captured
  // at emit time when this holds.
  bool RecordingPossible() const;
  // Captures the provenance child refs of a local rule firing while the
  // `used` pointers are still valid (i.e. before deferred mutations apply).
  std::vector<ProvChildRef> BuildChildRefs(
      NodeId node_id, const std::vector<const StoredTuple*>& used) const;
  void RecordProvenance(NodeId node_id, const Tuple& tuple,
                        const std::string& rule, TupleOrigin origin,
                        NodeId from_node, const Principal& asserted_by,
                        std::vector<ProvChildRef> children, double expires_at);

  // The one receive-side dispatcher: decodes the envelope, verifies it
  // (VerifyInbound), adopts the sender's causal context, and hands the
  // kind's handler the verified body, positioned after the signed prefix.
  // Authenticated deployments quarantine malformed or truncated input as a
  // counted kMalformed event instead of failing the run.
  Status HandleMessage(NodeId to, NodeId from, const Bytes& payload);
  Status HandleTupleMessage(NodeId to, NodeId from, const Envelope& env,
                            ByteReader& body);

  // --- Provenance-query wire path (implemented in src/query/wire.cc) -------
  // Records a detaching session's unanswered query ids so their late
  // responses are recognized as stale rather than audited as attacks.
  void NoteAbandonedQueries(const ProvQuerySession& session);
  // Folds one accepted request->response round trip into the hop-latency
  // histogram (virtual time) and the trace stream.
  void ObserveQueryHop(NodeId asker, NodeId responder, double sent_at);
  // Records of `digest` at `node`: online store preferred, offline archive
  // as fallback (forensics over expired state, Section 4.2).
  std::vector<ProvRecord> ProvRecordsAt(NodeId node, TupleDigest digest,
                                        bool* offline_hit) const;
  // Folds the offline archive's I/O deltas (page reads/writes) at `node`
  // into the executing lane's cells. No-op unless the archive counters
  // were registered (record_offline). Const because the read-side query
  // path is const; the counters live behind stable pointers.
  void RecordArchiveIo(NodeId node) const;
  // Opens `node`'s offline archive: in memory when archive_dir is empty,
  // else at <archive_dir>/node<i>.prov, replaying any existing log.
  Status OpenArchive(NodeId node);
  // End-of-Run() barrier for the durable store: folds the arena's dedup
  // counters into the registry cells and flushes every node's archive tail
  // page to disk (crash durability at fixpoint), charging the I/O.
  Status FlushDurableStores();
  // Folds a batch of records for (at, digest) into the session: stores them
  // and expands unseen child references (local frontier or signed requests),
  // honoring the session's depth/record limits.
  Status ProvQueryIngest(ProvQuerySession& session, NodeId at,
                         TupleDigest digest, std::vector<ProvRecord> records);
  Status HandleProvRequest(NodeId to, NodeId from, ByteReader& body);
  Status HandleProvResponse(NodeId to, NodeId from, const Envelope& env,
                            ByteReader& body);
  // Effective per-hop virtual-time deadline for distributed queries: 10x
  // the transport's initial RTO when the fault-tolerant transport is
  // active, 0 (disabled) otherwise.
  double QueryTimeoutSeconds() const;
  // Fires every armed per-hop deadline at or before net_.now(): due requests
  // are re-sent under the same query id with exponential backoff until the
  // session's attempt budget runs out, then degrade — records hops fall back
  // to the responder's offline archive (or an `unreachable` proof leaf),
  // claims hops are disarmed and left for RunQuerySession's
  // silent-responder audit.
  Status HandleQueryTimeouts(ProvQuerySession& session);
  // One pump round of RunQuerySession: advances the network by one event or
  // fires due deadlines, whichever is sooner in virtual time. Returns false
  // when neither can make progress anymore (network idle, nothing armed).
  Result<bool> PumpQueryOnce(ProvQuerySession& session);

  // --- Receive-side verification (implemented in src/adversary/verify.cc) --
  // Runs the verification pipeline over an inbound envelope: signature
  // present/valid/known principal, then — reading the signed prefix from
  // `body` — the destination and anti-replay checks. Returns the accepted
  // message's prefix, or nullopt when it must be dropped (the rejection has
  // been audited and counted). Called only by HandleMessage.
  Result<std::optional<SignedPrefix>> VerifyInbound(NodeId to, NodeId from,
                                                    const Envelope& env,
                                                    ByteReader& body);
  // True when `claimed` may retract `stored` at `node`: the asserting
  // principal, a recorded co-asserter, an operator capability, or a
  // principal the tuple's (principal-grain) annotation depends on.
  bool AuthorizedRetractor(NodeId node, const Principal& claimed,
                           const StoredTuple& stored) const;

  // --- Incremental deletion (implemented in src/dynamics/delta.cc) ---------
  // True when stored annotations enumerate every derivation (condensed/full
  // piggybacked provenance), i.e. restriction-based pruning is sound.
  bool AnnotationsComplete() const;
  // Records the provenance variable of a deleted base tuple in the epoch's
  // killed set (ProvGrain::kTuple only; no-op otherwise).
  void NoteKilledBase(const Tuple& tuple);
  // Adds `entry` to the deletion-delta queue and the epoch overlay;
  // optionally schedules the tuple (or its aggregate group) for the
  // re-derivation phase.
  void EnqueueRetraction(NodeId node, StoredTuple entry, bool rederive,
                         bool rederive_group);
  // Fires delete-mode strands for a retracted tuple (DRed over-deletion).
  Status ProcessRetraction(NodeId node, const StoredTuple& entry);
  Status FireDeleteStrand(NodeId node, const CompiledRule& cr,
                          int delta_index, const StoredTuple& delta_entry);
  // Shared join recursion for insert-mode strands, delete-mode strands, and
  // re-derivation: runs the rule's slot program over `frame` with trail
  // undo, iterating stored tuples by pointer (zero copies). `use_overlay`
  // also matches tuples deleted this epoch (the pre-deletion database DRed
  // joins against), `delta_index` may be -1 (no delta literal), and the
  // head action is the caller's `emit`. Emits must not mutate tables
  // directly — they defer through `pending_` (see DrainPending).
  using EmitFn =
      std::function<Status(Frame&, const std::vector<const StoredTuple*>&)>;
  Status DynJoin(NodeId node, const CompiledRule& cr, size_t literal_pos,
                 int delta_index, bool use_overlay, Frame& frame,
                 std::vector<const StoredTuple*>& used, const EmitFn& emit);
  // Resolves a delete-mode head: schedules removal of the local tuple (or a
  // retraction message when the head lives remotely). Removals are
  // idempotent, so a derivation enumerated once per deleted body tuple
  // needs no dedup.
  Status OverDeleteHead(NodeId node, const CompiledRule& cr,
                        const Frame& frame);
  // Applies an over-deletion to whatever `node` stores for `tuple`,
  // consulting annotation restriction before cascading. An aggregate group
  // (MIN/MAX/COUNT) is removed whole and re-derived.
  Status OverDeleteAt(NodeId node, const Tuple& tuple);
  Status SendRetract(NodeId from, NodeId to, const Tuple& tuple);
  Status HandleRetractMessage(NodeId to, NodeId from, const Envelope& env,
                              ByteReader& body);
  // DRed phase 2: attempts to restore over-deleted tuples from surviving
  // support (runs once the over-deletion cascade has quiesced).
  Status RunRederivePass();
  Status RederiveTuple(NodeId node, const Tuple& tuple, bool group_only);
  // Candidate executing sites for a rule whose local variable the head does
  // not pin: the intersection, over the rule's body-atom predicates, of the
  // nodes that ever stored that predicate (the predicate->site index).
  std::vector<NodeId> CandidateSites(const CompiledRule& cr) const;

  // Mutations scheduled by emits while a join scan is in flight. Tables
  // stay untouched until the scan completes, so candidate pointers remain
  // valid without per-literal snapshots; DrainPending applies them in emit
  // order (preserving event-queue order).
  struct PendingAction {
    enum class Kind : uint8_t { kDeliver, kOverDelete, kSendRetract };
    Kind kind = Kind::kDeliver;
    NodeId node = 0;  // executing node (kDeliver/kOverDelete), sender else
    NodeId dest = 0;  // retract destination (kSendRetract)
    StoredTuple entry;                    // kDeliver
    std::vector<ProvChildRef> children;   // kDeliver provenance capture
    std::string rule_label;               // kDeliver
    Tuple head;                           // kOverDelete / kSendRetract
  };
  Status DrainPending();

  // --- Parallel sharded execution (implemented in src/core/parallel.cc) ----
  // One execution lane's private state. Lane 0 of the sequential path (the
  // main slot) owns the real registry-backed counter handles and applies
  // side effects directly. Worker lanes are `buffered`: their counter
  // handles point into a private mirror array (merged into the registry at
  // the wave barrier — sums commute, so merge order is free), and every
  // externally visible side effect — network sends, trace events, security
  // events, observer callbacks — is appended to the current node's effect
  // stream, which the main thread replays in wave seq order.
  // That replay is what keeps fixpoints and telemetry byte-identical at
  // every thread count. Hot-path code reaches its lane through exec().
  struct ExecSlot {
    // One buffered side effect of a worker-lane cascade.
    struct Effect {
      enum class Kind : uint8_t { kSend, kTrace, kSecurity, kObserver };
      Kind kind = Kind::kSend;
      NodeId node = 0;  // sender (kSend), executing node (else)
      NodeId peer = 0;  // destination (kSend), offending sender (kSecurity)
      // kSend: a fully built (sequenced, signed) wire message. Per-principal
      // send sequences are assigned node-locally by the worker; the commit
      // runs Network::Send so the *global* wire order — network sequence
      // numbers, fault-injection taps, byte meters — matches sequential
      // execution exactly.
      Bytes payload;
      // kTrace: `sampled` events consume the tracer's 1-in-k counter at
      // commit (Tracer::EmitSampled); structural events bypass it.
      obs::TraceEvent trace;
      bool sampled = false;
      // kSecurity: replayed through RecordSecurityEvent at commit.
      SecurityEventKind sec_kind{};
      Principal claimed;
      std::string detail;
      // kObserver: the tuple-change callback.
      Tuple observed;
      InsertOutcome outcome = InsertOutcome::kNew;
    };

    ObsCells cells;  // main slot: real handles; workers: into cell_storage
    Frame frame;
    // Causal context of the unit currently executing on this lane: set from
    // the wire pair when handling an inbound message, from the stored pair
    // when processing an event/retraction, zeroed at external entry points.
    // Sends read it as the parent of the spans they mint.
    CausalIds causal;
    std::vector<PendingAction> pending;
    // Where DeliverLocal queues delta events: &Engine::events_ on the main
    // slot, the per-node local queue on worker lanes.
    std::deque<PendingEvent>* events = nullptr;
    // Non-null on worker lanes while running a node: its effect stream.
    std::vector<Effect>* effects = nullptr;
    // Worker-lane counter mirrors and order-free buffers, merged at the
    // barrier.
    std::vector<obs::Counter> cell_storage;
    struct LinkCharge {
      NodeId from = 0;
      NodeId to = 0;
      uint8_t msg_kind = 0;
      uint64_t bytes = 0;
    };
    std::vector<LinkCharge> link_charges;
    std::vector<std::pair<std::string, NodeId>> pred_sites;
    bool buffered = false;  // true on worker lanes: defer side effects
  };

  // The executing lane's state: the worker slot bound to this thread during
  // a parallel phase, the main slot otherwise.
  ExecSlot& exec() { return tls_slot_ != nullptr ? *tls_slot_ : main_slot_; }

  // Side-effect helpers shared by the sequential and worker-lane paths.
  // Per-link byte charge: direct on the main slot, buffered (interned at
  // the barrier) on workers — the cells are sums, so order is free.
  void ChargeLink(NodeId from, NodeId to, uint8_t msg_kind, uint64_t bytes);
  // Hot-path sampled trace event: EmitSampled on the main slot (consuming
  // the 1-in-k counter immediately), buffered to consume it at commit on
  // workers. Callers check tracer().enabled() before building the event.
  void TraceSampled(obs::TraceEvent ev);
  // Predicate->site index fill (grow-only set union; order-free).
  void NotePredSite(const std::string& pred, NodeId node);

  // Worker-pool plumbing and the parallel wave driver.
  size_t ResolvedThreads();  // options_.threads with PROVNET_THREADS/0=hw
  void EnsureParallelRuntime();
  void MergeWorkerSlots();
  Status CommitEffects(std::vector<ExecSlot::Effect>& effects, size_t begin,
                       size_t end);
  // Attempts to deliver the next wave (all messages due at the earliest
  // instant) in parallel, grouped by destination with per-message cascade
  // units committed in wave seq order. Returns false — after requeueing the
  // wave untouched — when the wave is ineligible (single message, single
  // destination, or any non-kMsgTuple message): the caller falls back to
  // the sequential Step() path.
  Result<bool> TryParallelWave(uint64_t* steps);

  Topology topo_;
  EngineOptions options_;
  Network net_;
  KeyStore keystore_;
  Authenticator auth_;
  ProvVarRegistry registry_;
  Plan plan_;
  std::vector<std::unique_ptr<NodeContext>> contexts_;
  std::deque<PendingEvent> events_;
  // Principal -> node lookup (SaysMatches runs on the join hot path).
  std::unordered_map<Principal, NodeId> node_of_;
  // Predicate -> nodes that ever stored it (grow-only, so always a
  // superset of current support); prunes re-derivation site scans.
  std::unordered_map<std::string, std::set<NodeId>> pred_sites_;
  // The sequential execution lane: scratch frame and deferred-mutation
  // buffer reused across rule firings (never nested: emits defer their
  // mutations), registry-backed counter handles, events -> &events_.
  // Worker lanes get buffered ExecSlots of their own (see exec()).
  ExecSlot main_slot_;
  // Bound by worker lanes for the duration of a parallel phase; null means
  // "the main slot" (see exec()). Defined in the class: with an out-of-line
  // definition, GCC 12's UBSan reports each store to it as a store to a
  // null pointer.
  static inline thread_local ExecSlot* tls_slot_ = nullptr;
  std::unique_ptr<ThreadPool> pool_;  // lazily built on first parallel phase
  std::vector<std::unique_ptr<ExecSlot>> worker_slots_;  // one per lane
  size_t resolved_threads_ = 0;  // cached ResolvedThreads(); 0 = unresolved
  // Metrics registry + resolved handles (see InitObs). The registry is the
  // single source of truth for counters; RunStats is computed from it.
  obs::Registry obs_;
  obs::Tracer tracer_;
  obs::Profiler profiler_;
  ObsCells cells_;
  // (src, dst, kind) -> byte counter, keyed packed (from<<40 | to<<8 | kind).
  std::unordered_map<uint64_t, obs::Counter*> link_cells_;
  mutable RunStats stats_view_;  // scratch for cumulative_stats()
  Status async_error_;  // first error raised inside a network handler
  UpdateObserver observer_;
  SecurityLog security_log_;
  // Per-principal authenticated-message sequence counters (send side).
  std::unordered_map<Principal, uint64_t> send_seq_;
  // Per-node causal span counters (core/causal.h). Indexed by NodeId;
  // worker lanes touch only their own node's element, in canonical cascade
  // order, so minted ids are identical at every thread count (the
  // NextSendSeq argument).
  std::vector<uint64_t> causal_seqs_;

  // --- Fault-plan driving (src/net/faults.*) --------------------------------
  // True when the ack/retransmit transport is armed: reliable_transport, or
  // a non-empty fault plan (lossy links need retransmission to converge).
  bool TransportActive() const {
    return options_.reliable_transport || !options_.fault_plan.Empty();
  }
  // Scripted crash/restart instants, expanded from fault_plan.crashes into
  // one time-sorted schedule Run() consumes against the virtual clock.
  struct FaultEvent {
    double at = 0.0;
    NodeId node = 0;
    bool restart = false;  // false = crash
  };
  // Virtual time of the next unconsumed scripted event (+inf when drained).
  double NextFaultEventTime() const;
  // Fires every scheduled crash/restart at or before `t` (advancing the
  // network clock to each event's instant first, so timers and TTLs agree).
  Status ProcessFaultEventsUpTo(double t);
  std::vector<FaultEvent> fault_events_;
  size_t next_fault_event_ = 0;
  // Externally inserted base facts per node — (tuple, ttl), digest-deduped.
  // This is the engine-side "stable storage" ReplayJournal replays: the
  // simulation's stand-in for an operator's fact file surviving the crash.
  std::vector<std::vector<std::pair<Tuple, double>>> base_fact_journal_;
  std::vector<std::unordered_set<uint64_t>> journal_digests_;
  // Set by RestartNode; Run() calls ReplayJournal once the network drains.
  bool replay_pending_ = false;
  // Crash recovery's clear-and-replay: clears every live node's tables and
  // online records, then re-inserts every journaled base fact.
  Status ReplayJournal();
  obs::Counter* faults_crashes_ = nullptr;
  obs::Counter* faults_restarts_ = nullptr;

  // The provenance query currently pumping the network (nullptr when none).
  // Non-owning: the ProvQuery/ClaimsExchange driver owns the session on its
  // stack and detaches before returning.
  ProvQuerySession* query_session_ = nullptr;
  uint64_t next_query_id_ = 1;
  // Query ids whose session ended before their responses arrived (aborted
  // or error-terminated queries). A late response matching one is stale
  // honest traffic — dropped silently, neither counted nor audited, and
  // the id is consumed. Anything else answering no outstanding query is a
  // bogus (attack) response.
  std::unordered_set<uint64_t> abandoned_queries_;

  // Incremental-evaluator epoch state (deletion queue, overlay of deleted
  // tuples, killed provenance variables, re-derivation worklist).
  std::unique_ptr<DeltaState> dynamics_;

  // Hash-consing arena for kFull derivations and annotations (src/store/).
  // Null outside kFull. Not thread-safe: every kFull run is pinned to the
  // sequential executor (see Run()).
  std::unique_ptr<store::ProvArena> arena_;
};

}  // namespace provnet

#endif  // PROVNET_CORE_ENGINE_H_
