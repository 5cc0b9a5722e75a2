#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>

#include "datalog/analysis.h"
#include "dynamics/delta.h"
#include "obs/mem.h"
#include "provenance/sampling.h"
#include "query/session.h"
#include "store/arena.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/threadpool.h"

namespace provnet {

namespace {

// Virtual one-way latency of every link.
constexpr double kLinkLatencyS = 0.01;

// Local annotations are re-condensed when they outgrow this node count.
constexpr size_t kCondenseThreshold = 64;

}  // namespace

const char* ProvModeName(ProvMode mode) {
  switch (mode) {
    case ProvMode::kNone:
      return "none";
    case ProvMode::kCondensed:
      return "condensed";
    case ProvMode::kFull:
      return "full";
    case ProvMode::kPointers:
      return "pointers";
  }
  return "?";
}

uint8_t ProvPayloadKind(ProvMode mode) {
  switch (mode) {
    case ProvMode::kNone:
    case ProvMode::kPointers:
      return kProvPayloadNone;
    case ProvMode::kCondensed:
      return kProvPayloadCubes;
    case ProvMode::kFull:
      return kProvPayloadTree;
  }
  return kProvPayloadNone;
}

std::string RunStats::ToString() const {
  std::string out = StrFormat(
      "wall=%.3fs sim=%.3fs msgs=%llu bytes=%llu (tuple=%llu auth=%llu "
      "prov=%llu) events=%llu derivations=%llu candidates=%llu signs=%llu "
      "verifies=%llu auth_failures=%llu replays_rejected=%llu "
      "retracts_rejected=%llu retractions=%llu rederivations=%llu "
      "prov_queries=%llu prov_query_bytes=%llu prov_responses_rejected=%llu "
      "prov_frames_rejected=%llu",
      wall_seconds, sim_seconds, static_cast<unsigned long long>(messages),
      static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(tuple_bytes),
      static_cast<unsigned long long>(auth_bytes),
      static_cast<unsigned long long>(prov_bytes),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(derivations),
      static_cast<unsigned long long>(join_candidates),
      static_cast<unsigned long long>(signs),
      static_cast<unsigned long long>(verifies),
      static_cast<unsigned long long>(auth_failures),
      static_cast<unsigned long long>(replays_rejected),
      static_cast<unsigned long long>(retracts_rejected),
      static_cast<unsigned long long>(retractions),
      static_cast<unsigned long long>(rederivations),
      static_cast<unsigned long long>(prov_queries),
      static_cast<unsigned long long>(prov_query_bytes),
      static_cast<unsigned long long>(prov_responses_rejected),
      static_cast<unsigned long long>(prov_frames_rejected));
  // Peak accounted memory (obs::MemAccounting) — present only when byte
  // accounting was enabled for the run, so golden-stats comparisons that
  // toggle observability exclude it explicitly.
  if (!peak_mem.empty()) {
    out += " peak_mem[";
    out += peak_mem;
    out += ']';
  }
  return out;
}

Engine::~Engine() = default;

Engine::Engine(const Topology& topo, EngineOptions options)
    : topo_(topo),
      options_(std::move(options)),
      net_(topo.num_nodes, kLinkLatencyS),
      keystore_(options_.seed, options_.rsa_bits),
      auth_(&keystore_) {
  // The sequential lane queues delta events straight onto the engine queue;
  // wired before Init so program-fact insertion goes through it too.
  main_slot_.events = &events_;
}

Result<std::unique_ptr<Engine>> Engine::Create(const Topology& topo,
                                               const std::string& source,
                                               EngineOptions options) {
  PROVNET_ASSIGN_OR_RETURN(Program program, ParseProgram(source));
  return Create(topo, std::move(program), std::move(options));
}

Result<std::unique_ptr<Engine>> Engine::Create(const Topology& topo,
                                               Program program,
                                               EngineOptions options) {
  // PROVNET_FAULT_PLAN mirrors PROVNET_THREADS: a spec like "loss=0.01,
  // seed=7" arms a uniform fault plan for runs that never touch
  // EngineOptions (CI's fault matrix), unless the caller installed one.
  if (options.fault_plan.Empty()) {
    if (const char* env = std::getenv("PROVNET_FAULT_PLAN");
        env != nullptr && env[0] != '\0') {
      bool ok = false;
      options.fault_plan = FaultPlan::ParseSpec(env, &ok);
      if (!ok) {
        return InvalidArgumentError(std::string("bad PROVNET_FAULT_PLAN: ") +
                                    env);
      }
    }
  }
  std::unique_ptr<Engine> engine(new Engine(topo, std::move(options)));
  PROVNET_RETURN_IF_ERROR(engine->Init(std::move(program)));
  return engine;
}

Status Engine::Init(Program program) {
  dynamics_ = std::make_unique<DeltaState>();
  PROVNET_RETURN_IF_ERROR(AnalyzeProgram(program));
  PROVNET_ASSIGN_OR_RETURN(LocalizedProgram localized,
                           LocalizeProgram(program));
  PROVNET_ASSIGN_OR_RETURN(
      plan_, Plan::Compile(localized, program.materialize));

  if (!options_.node_names.empty() &&
      options_.node_names.size() != topo_.num_nodes) {
    return InvalidArgumentError("node_names size must match topology");
  }

  contexts_.reserve(topo_.num_nodes);
  for (NodeId id = 0; id < topo_.num_nodes; ++id) {
    Principal principal = options_.node_names.empty()
                              ? "n" + std::to_string(id)
                              : options_.node_names[id];
    // Deterministic provenance variable ids: one per principal, in node
    // order, interned up front so all nodes agree.
    registry_.Intern(principal);
    node_of_.emplace(principal, id);
    // Pre-populate the send-sequence map so worker lanes never insert into
    // it concurrently (operator[] would have default-constructed 0 anyway).
    send_seq_.emplace(principal, 0);
    contexts_.push_back(
        std::make_unique<NodeContext>(id, std::move(principal), &plan_));
  }
  // Per-node causal span counters (core/causal.h). Sized up front: a lane
  // only touches the counter of a node it owns during the wave, so minting
  // never allocates or races.
  causal_seqs_.assign(topo_.num_nodes, 0);

  // Durable provenance store (src/store/): the hash-consing arena backs
  // every kFull derivation and annotation, and record_offline opens each
  // node's offline archive, on disk when archive_dir is set. Opening
  // replays any existing log at that path, so recovery completes before the
  // first fact flows.
  if (options_.prov_mode == ProvMode::kFull) {
    arena_ = std::make_unique<store::ProvArena>();
  }
  if (options_.record_offline) {
    for (const auto& ctx : contexts_) {
      PROVNET_RETURN_IF_ERROR(OpenArchive(ctx->id()));
    }
  }

  // Pre-derive key material so PKI setup is not charged to query completion
  // time (the paper measures steady-state execution, not key distribution).
  if (options_.authenticate) {
    for (const auto& ctx : contexts_) {
      PROVNET_ASSIGN_OR_RETURN(const RsaKeyPair* kp,
                               keystore_.KeyPairFor(ctx->principal()));
      (void)kp;
    }
  }

  // Plan and principals are fixed: register every instrument and resolve
  // the hot-path handles.
  InitObs();
  // The main lane writes the registry-backed cells directly.
  main_slot_.cells = cells_;

  net_.SetHandler([this](NodeId to, NodeId from, const Bytes& payload) {
    Status s = HandleMessage(to, from, payload);
    if (!s.ok() && async_error_.ok()) async_error_ = s;
  });

  // Fault-tolerant transport (src/net/faults.*), armed before any fact
  // flows so every wire message of the run is acked/retransmitted. Lost
  // frames are resent and duplicates dropped below the engine, so the
  // handler sees each message exactly once, as on the lossless FIFO.
  net_.SetObsRegistry(&obs_);
  if (TransportActive()) net_.EnableTransport();
  if (!options_.fault_plan.Empty()) {
    net_.InstallFaultPlan(options_.fault_plan);
  }
  base_fact_journal_.resize(topo_.num_nodes);
  journal_digests_.resize(topo_.num_nodes);
  for (const CrashSpec& c : options_.fault_plan.crashes) {
    if (c.node >= topo_.num_nodes) {
      return InvalidArgumentError("fault plan crashes an unknown node");
    }
    fault_events_.push_back(FaultEvent{c.crash_at, c.node, false});
    if (c.restart_at >= 0) {
      fault_events_.push_back(FaultEvent{c.restart_at, c.node, true});
    }
  }
  std::sort(fault_events_.begin(), fault_events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.node != b.node) return a.node < b.node;
              return a.restart < b.restart;  // a crash precedes its restart
            });

  // Program facts: stored at their first address-valued argument (or the
  // declared location attribute).
  for (const Atom& fact : program.facts) {
    std::vector<Value> args;
    args.reserve(fact.args.size());
    for (const Term& t : fact.args) args.push_back(t.constant);
    int loc = fact.loc_index >= 0 ? fact.loc_index : 0;
    if (static_cast<size_t>(loc) >= args.size() ||
        args[static_cast<size_t>(loc)].kind() != ValueKind::kAddress) {
      return InvalidArgumentError("fact " + fact.predicate +
                                  " has no address to place it at");
    }
    NodeId node = args[static_cast<size_t>(loc)].AsAddress();
    if (node >= topo_.num_nodes) {
      return InvalidArgumentError("fact " + fact.predicate +
                                  " placed at unknown node");
    }
    PROVNET_RETURN_IF_ERROR(
        InsertFact(node, Tuple(fact.predicate, std::move(args))));
  }
  return OkStatus();
}

void Engine::InitObs() {
  // The Ctr name table. Durable-store instruments (src/store/) are
  // registered only when their subsystem is active, so none/condensed runs
  // keep exactly their pre-store snapshot key set (golden telemetry).
  enum class Gate : uint8_t { kAlways, kArena, kArchive };
  struct Spec {
    Ctr ctr;
    const char* name;
    Gate gate;
  };
  static constexpr Spec kSpecs[] = {
      {Ctr::kDeliveries, "engine.deliveries", Gate::kAlways},
      {Ctr::kEvents, "engine.events", Gate::kAlways},
      {Ctr::kRetractions, "engine.retractions", Gate::kAlways},
      {Ctr::kRederivations, "engine.rederivations", Gate::kAlways},
      {Ctr::kTupleBytes, "net.tuple_bytes", Gate::kAlways},
      {Ctr::kAuthBytes, "net.auth_bytes", Gate::kAlways},
      {Ctr::kProvBytes, "net.prov_bytes", Gate::kAlways},
      {Ctr::kAuthFailures, "verify.auth_failures", Gate::kAlways},
      {Ctr::kReplaysRejected, "verify.replays_rejected", Gate::kAlways},
      {Ctr::kRetractsRejected, "verify.retracts_rejected", Gate::kAlways},
      {Ctr::kProvQueries, "provquery.queries", Gate::kAlways},
      {Ctr::kProvQueryBytes, "provquery.bytes", Gate::kAlways},
      {Ctr::kProvResponsesRejected, "provquery.responses_rejected",
       Gate::kAlways},
      {Ctr::kProvFramesRejected, "provquery.frames_rejected", Gate::kAlways},
      {Ctr::kQueryOfflineHits, "provquery.offline_hits", Gate::kAlways},
      {Ctr::kStoreInternedNodes, "store.interned_nodes", Gate::kArena},
      {Ctr::kStoreInternedHits, "store.interned_hits", Gate::kArena},
      {Ctr::kArchivePageReads, "store.archive_page_reads", Gate::kArchive},
      {Ctr::kArchivePageWrites, "store.archive_page_writes", Gate::kArchive},
  };
  static_assert(std::size(kSpecs) == kSecurityBase);

  const std::vector<CompiledRule>& rules = plan_.rules();
  cells_.counters.assign(kRuleBase + 3 * rules.size(), nullptr);
  for (const Spec& spec : kSpecs) {
    if ((spec.gate == Gate::kArena && options_.prov_mode != ProvMode::kFull) ||
        (spec.gate == Gate::kArchive && !options_.record_offline)) {
      continue;
    }
    cells_.counters[static_cast<size_t>(spec.ctr)] =
        obs_.GetCounter(spec.name);
  }
  for (size_t r = 0; r < rules.size(); ++r) {
    obs::Labels labels{{"rule", rules[r].prog.label}};
    size_t at = kRuleBase + 3 * r;
    cells_.counters[at] = obs_.GetCounter("rule.firings", labels);
    cells_.counters[at + 1] = obs_.GetCounter("rule.candidates", labels);
    cells_.counters[at + 2] = obs_.GetCounter("rule.derivations", labels);
  }
  for (size_t k = 0; k < kNumSecurityEventKinds; ++k) {
    cells_.counters[kSecurityBase + k] = obs_.GetCounter(
        "security.events",
        {{"kind", SecurityEventKindName(static_cast<SecurityEventKind>(k))}});
  }

  cells_.query_latency = obs_.GetHistogram("provquery.latency_s");
  cells_.query_hop_latency = obs_.GetHistogram("provquery.hop_latency_s");

  // Ring-buffer overwrites are silent data loss for trace consumers;
  // surface them. Only the main thread's Tracer::Emit increments the cell
  // (worker-lane trace events are replayed at commit), so no ObsCells slot
  // is needed.
  tracer_.SetDropCounter(obs_.GetCounter("trace.dropped_spans"));
}

RunStats Engine::StatsView() const {
  RunStats s;
  s.deliveries = cells_[Ctr::kDeliveries]->value;
  s.events = cells_[Ctr::kEvents]->value;
  s.retractions = cells_[Ctr::kRetractions]->value;
  s.rederivations = cells_[Ctr::kRederivations]->value;
  s.tuple_bytes = cells_[Ctr::kTupleBytes]->value;
  s.auth_bytes = cells_[Ctr::kAuthBytes]->value;
  s.prov_bytes = cells_[Ctr::kProvBytes]->value;
  s.auth_failures = cells_[Ctr::kAuthFailures]->value;
  s.replays_rejected = cells_[Ctr::kReplaysRejected]->value;
  s.retracts_rejected = cells_[Ctr::kRetractsRejected]->value;
  s.prov_queries = cells_[Ctr::kProvQueries]->value;
  s.prov_query_bytes = cells_[Ctr::kProvQueryBytes]->value;
  s.prov_responses_rejected = cells_[Ctr::kProvResponsesRejected]->value;
  s.prov_frames_rejected = cells_[Ctr::kProvFramesRejected]->value;
  // Global totals recovered from the per-rule breakdowns.
  s.derivations = obs_.CounterTotal("rule.derivations");
  s.join_candidates = obs_.CounterTotal("rule.candidates");
  return s;
}

obs::Counter* Engine::LinkBytesCell(NodeId from, NodeId to, uint8_t msg_kind) {
  uint64_t key =
      (uint64_t(from) << 40) | (uint64_t(to) << 8) | uint64_t(msg_kind);
  auto it = link_cells_.find(key);
  if (it != link_cells_.end()) return it->second;
  obs::Counter* cell =
      obs_.GetCounter("net.link.bytes", {{"from", PrincipalOf(from)},
                                         {"to", PrincipalOf(to)},
                                         {"kind", MsgKindName(msg_kind)}});
  link_cells_.emplace(key, cell);
  return cell;
}

Principal Engine::PrincipalOf(NodeId id) const {
  PROVNET_CHECK(id < contexts_.size());
  return contexts_[id]->principal();
}

Result<NodeId> Engine::NodeOf(const Principal& principal) const {
  auto it = node_of_.find(principal);
  if (it != node_of_.end()) return it->second;
  return NotFoundError("no node for principal " + principal);
}

ProvExpr Engine::BaseAnnotation(const Principal& principal,
                                const Tuple& tuple) {
  ProvVar v = options_.prov_grain == ProvGrain::kPrincipal
                  ? registry_.Intern(principal)
                  : registry_.Intern(tuple.ToString());
  // In kFull mode every leaf goes through the arena, so annotations built
  // from the same variable share one node process-wide.
  return arena_ != nullptr ? arena_->InternVar(v) : ProvExpr::Var(v);
}

Status Engine::InsertLinkFacts() {
  for (const TopoEdge& e : topo_.edges) {
    Tuple link("link", {Value::Address(e.from), Value::Address(e.to),
                        Value::Int(e.cost)});
    PROVNET_RETURN_IF_ERROR(InsertFact(e.from, link));
  }
  return OkStatus();
}

Status Engine::InsertFact(NodeId node_id, const Tuple& tuple, double ttl) {
  if (node_id >= contexts_.size()) {
    return InvalidArgumentError("InsertFact: unknown node");
  }
  // Journal external base facts (digest-deduped): crash recovery
  // (ReplayJournal) replays this per-node log, the crash model's stand-in
  // for an operator's fact file surviving on stable storage. DeleteFact
  // un-journals.
  if (node_id < journal_digests_.size() &&
      journal_digests_[node_id].insert(tuple.Hash()).second) {
    base_fact_journal_[node_id].emplace_back(tuple, ttl);
  }
  // A base-fact insertion is a causal root: whatever cascade it triggers
  // starts a fresh trace rather than inheriting stale message context.
  exec().causal = CausalIds{};
  StoredTuple entry;
  entry.tuple = tuple;
  entry.origin = TupleOrigin::kBase;
  entry.asserted_by = PrincipalOf(node_id);
  entry.rule = kBaseRule;
  if (ttl >= 0) entry.expires_at = net_.now() + ttl;
  if (options_.prov_mode == ProvMode::kCondensed ||
      options_.prov_mode == ProvMode::kFull) {
    entry.prov = BaseAnnotation(entry.asserted_by, tuple);
  }
  if (options_.prov_mode == ProvMode::kFull) {
    DerivationPtr base = MakeBaseDerivation(tuple, node_id, entry.asserted_by,
                                            net_.now(), ttl);
    if (options_.authenticate) {
      PROVNET_ASSIGN_OR_RETURN(base,
                               SignDerivation(base, auth_,
                                              options_.says_level));
    }
    // Intern after signing so the arena copy carries the signature (RSA
    // signatures are deterministic per content+principal, so content-equal
    // nodes can never disagree about theirs).
    if (arena_ != nullptr) base = arena_->Canonical(base, nullptr);
    entry.deriv = std::move(base);
  }
  return DeliverLocal(node_id, std::move(entry), {}, kBaseRule);
}

Status Engine::DeliverLocal(NodeId node_id, StoredTuple entry,
                            std::vector<ProvChildRef> children,
                            const std::string& rule_label) {
  NodeContext& ctx = *contexts_[node_id];
  Table& table = ctx.TableFor(entry.tuple.predicate());
  TupleOrigin origin = entry.origin;
  NodeId from_node = entry.from_node;
  double expires_at = entry.expires_at;
  // Predicate->site index (grow-only): this node now potentially stores the
  // predicate, making it a candidate executing site for re-derivation. Only
  // the first fill needs recording, keeping the hot path free of it.
  if (table.size() == 0) {
    NotePredSite(entry.tuple.predicate(), node_id);
  }
  // Received tuples are recorded under the *asserting* principal (who says
  // them); unauthenticated traffic falls back to the transport-level sender.
  Principal asserted_by = entry.asserted_by;
  if (origin == TupleOrigin::kRemote && asserted_by.empty()) {
    asserted_by = PrincipalOf(from_node);
  }
  InsertResult result = table.Insert(std::move(entry), net_.now());
  ExecSlot& ex = exec();
  if (observer_ && result.outcome != InsertOutcome::kRejected) {
    if (ex.buffered) {
      // Worker lane: the observer is user code with arbitrary side effects;
      // replay it in canonical commit order.
      ExecSlot::Effect fx;
      fx.kind = ExecSlot::Effect::Kind::kObserver;
      fx.node = node_id;
      fx.observed = result.stored;
      fx.outcome = result.outcome;
      ex.effects->push_back(std::move(fx));
    } else {
      observer_(node_id, result.stored, result.outcome, net_.now());
    }
  }
  // Retraction-authorization bookkeeping: an aggregate group's stored
  // asserted_by rotates to the latest contributor, so every contributor is
  // remembered against the stable group digest — each may later retract
  // its own contribution.
  if (result.outcome != InsertOutcome::kRejected && !asserted_by.empty() &&
      table.options().agg != AggKind::kNone) {
    ctx.NoteCoAsserter(table.GroupDigest(result.stored), asserted_by);
  }

  switch (result.outcome) {
    case InsertOutcome::kNew:
    case InsertOutcome::kReplaced:
      RecordProvenance(node_id, result.stored, rule_label, origin, from_node,
                       asserted_by, std::move(children), expires_at);
      ex.events->push_back(PendingEvent{node_id, result.stored, ex.causal});
      break;
    case InsertOutcome::kRefreshed: {
      // Alternative derivation of an existing tuple: record it, and keep the
      // merged local annotation compact (re-condense when it outgrows the
      // threshold).
      RecordProvenance(node_id, result.stored, rule_label, origin, from_node,
                       asserted_by, std::move(children), expires_at);
      // A refresh under a different principal is an additional assertion of
      // the same tuple; retraction authorization honors every asserter.
      const StoredTuple* merged_entry = table.Find(result.stored);
      if (merged_entry != nullptr && !asserted_by.empty() &&
          asserted_by != merged_entry->asserted_by) {
        ctx.NoteCoAsserter(DigestOf(result.stored), asserted_by);
      }
      if (options_.prov_mode == ProvMode::kCondensed) {
        StoredTuple* merged = table.FindMutable(result.stored);
        if (merged != nullptr &&
            merged->prov.NodeCount() > kCondenseThreshold) {
          merged->prov = Condense(merged->prov).ToExpr();
        }
      }
      break;
    }
    case InsertOutcome::kRejected:
      break;
  }
  return OkStatus();
}

bool Engine::RecordingPossible() const {
  bool recording = options_.prov_mode == ProvMode::kPointers ||
                   options_.record_online || options_.record_offline;
  return recording && options_.recording_enabled;
}

std::vector<ProvChildRef> Engine::BuildChildRefs(
    NodeId node_id, const std::vector<const StoredTuple*>& used) const {
  std::vector<ProvChildRef> children;
  children.reserve(used.size());
  for (const StoredTuple* child : used) {
    ProvChildRef ref;
    ref.node = node_id;
    ref.digest = DigestOf(child->tuple);
    ref.asserted_by = child->asserted_by;
    if (child->origin == TupleOrigin::kBase) {
      ref.is_base = true;
      ref.base_tuple = child->tuple;
    }
    children.push_back(std::move(ref));
  }
  return children;
}

void Engine::RecordProvenance(NodeId node_id, const Tuple& tuple,
                              const std::string& rule, TupleOrigin origin,
                              NodeId from_node, const Principal& asserted_by,
                              std::vector<ProvChildRef> children,
                              double expires_at) {
  if (!RecordingPossible()) return;
  // One hash serves the sampler, the recv child ref and both stores.
  const TupleDigest digest = DigestOf(tuple);
  if (options_.sample_k > 1) {
    TupleSampler sampler(options_.sample_k, options_.seed);
    if (!sampler.ShouldRecord(digest)) return;
  }

  ProvRecord rec;
  rec.tuple = tuple;
  rec.location = node_id;
  rec.asserted_by = asserted_by;
  rec.created_at = net_.now();
  rec.expires_at = expires_at;
  switch (origin) {
    case TupleOrigin::kBase:
      rec.rule = kBaseRule;
      break;
    case TupleOrigin::kRemote: {
      rec.rule = "recv";
      ProvChildRef ref;
      ref.node = from_node;
      ref.digest = digest;
      ref.asserted_by = asserted_by;
      rec.children.push_back(std::move(ref));
      break;
    }
    case TupleOrigin::kLocalRule:
      rec.rule = rule;
      rec.children = std::move(children);
      break;
  }

  // Encoded once: both stores append these bytes.
  NodeContext& ctx = *contexts_[node_id];
  ByteWriter& encoded = ctx.record_buffer();
  encoded.Clear();
  rec.Serialize(encoded);
  const uint8_t* data = encoded.bytes().data();
  if (options_.record_online || options_.prov_mode == ProvMode::kPointers) {
    ctx.online_store().AddEncoded(data, encoded.size(), expires_at >= 0,
                                  digest);
  }
  if (options_.record_offline) {
    ctx.offline_store().AddEncoded(data, encoded.size(), rec.created_at,
                                   digest);
    RecordArchiveIo(node_id);
  }
}

void Engine::RecordArchiveIo(NodeId node) const {
  // exec() is non-const, but only to reach the lane's cell pointers — the
  // counters themselves are mutable registry state.
  const ObsCells& cells = const_cast<Engine*>(this)->exec().cells;
  if (cells[Ctr::kArchivePageReads] == nullptr) return;  // not registered
  store::ArchiveIo io = contexts_[node]->offline_store().TakeIo();
  cells[Ctr::kArchivePageReads]->value += io.page_reads;
  cells[Ctr::kArchivePageWrites]->value += io.page_writes;
}

Status Engine::OpenArchive(NodeId node) {
  if (options_.archive_dir.empty()) return contexts_[node]->OpenArchive("");
  return contexts_[node]->OpenArchive(options_.archive_dir + "/node" +
                                      std::to_string(node) + ".prov");
}

Status Engine::FlushDurableStores() {
  if (arena_ != nullptr && cells_[Ctr::kStoreInternedNodes] != nullptr) {
    store::ProvArena::Stats s = arena_->TakeStats();
    cells_[Ctr::kStoreInternedNodes]->value += s.interned_nodes;
    cells_[Ctr::kStoreInternedHits]->value += s.interned_hits;
  }
  if (options_.record_offline) {
    for (const auto& ctx : contexts_) {
      PROVNET_RETURN_IF_ERROR(ctx->offline_store().Flush());
      RecordArchiveIo(ctx->id());
    }
  }
  return OkStatus();
}

// --- Fail-stop crash & recovery (src/net/faults.*) --------------------------

double Engine::NextFaultEventTime() const {
  return next_fault_event_ < fault_events_.size()
             ? fault_events_[next_fault_event_].at
             : std::numeric_limits<double>::infinity();
}

Status Engine::ProcessFaultEventsUpTo(double t) {
  while (next_fault_event_ < fault_events_.size() &&
         fault_events_[next_fault_event_].at <= t) {
    const FaultEvent ev = fault_events_[next_fault_event_++];
    if (ev.at > net_.now()) net_.AdvanceTo(ev.at);
    if (ev.restart) {
      PROVNET_RETURN_IF_ERROR(RestartNode(ev.node));
    } else {
      PROVNET_RETURN_IF_ERROR(CrashNode(ev.node));
    }
  }
  return OkStatus();
}

Status Engine::CrashNode(NodeId node) {
  if (node >= contexts_.size()) {
    return InvalidArgumentError("CrashNode: unknown node");
  }
  if (net_.IsCrashed(node)) {
    return InvalidArgumentError("CrashNode: node is already down");
  }
  // Wire first — in-flight frames to/from the node vanish and peers start
  // burning their retry budgets — then memory, then the archive's unflushed
  // tail (torn off, exactly what a real fail-stop loses).
  net_.SetCrashed(node, true);
  contexts_[node]->ResetForCrash();
  if (faults_crashes_ == nullptr) {
    // Lazily registered so fault-free runs keep their golden key set.
    faults_crashes_ = obs_.GetCounter("faults.crashes");
  }
  ++faults_crashes_->value;
  if (tracer_.enabled()) {
    obs::TraceEvent ev;
    ev.sim_time = net_.now();
    ev.node = node;
    ev.kind = "crash";
    tracer_.Emit(std::move(ev));
  }
  return OkStatus();
}

Status Engine::RestartNode(NodeId node) {
  if (node >= contexts_.size()) {
    return InvalidArgumentError("RestartNode: unknown node");
  }
  if (!net_.IsCrashed(node)) {
    return InvalidArgumentError("RestartNode: node is not down");
  }
  // Transport back first: the node's links restart on a fresh frame
  // generation, so peers reset their receive records instead of discarding
  // the reborn node's traffic as stale.
  net_.SetCrashed(node, false);
  if (options_.record_offline) {
    // Replay an on-disk log: every intact frame survives; a torn tail
    // (records buffered past the last flush when the crash hit) is
    // truncated away. A memory archive restarts empty.
    PROVNET_RETURN_IF_ERROR(OpenArchive(node));
    RecordArchiveIo(node);
  }
  // The node's in-memory state comes back by re-derivation, once the
  // network drains (Run() then calls ReplayJournal).
  replay_pending_ = true;
  if (faults_restarts_ == nullptr) {
    faults_restarts_ = obs_.GetCounter("faults.restarts");
  }
  ++faults_restarts_->value;
  if (tracer_.enabled()) {
    obs::TraceEvent ev;
    ev.sim_time = net_.now();
    ev.node = node;
    ev.kind = "restart";
    tracer_.Emit(std::move(ev));
  }
  return OkStatus();
}

Status Engine::ReplayJournal() {
  replay_pending_ = false;
  // Every live node forgets its tables and online records, then its
  // journaled base facts go back in: the fixpoint, and each record, is
  // re-derived from stable inputs alone, as in a fault-free run (the queued
  // events run only after every node is replayed). Append-only archives
  // keep their pre-crash copies; the query walk skips repeats.
  for (NodeId m = 0; m < contexts_.size(); ++m) {
    if (net_.IsCrashed(m)) continue;
    contexts_[m]->ClearTables();
    // InsertFact re-journals nothing: every digest is already in.
    for (const auto& [tuple, ttl] : base_fact_journal_[m]) {
      PROVNET_RETURN_IF_ERROR(InsertFact(m, tuple, ttl));
    }
  }
  return OkStatus();
}

Status Engine::ProcessEvent(const PendingEvent& event) {
  // Restore the causal context captured when the event was queued, so
  // cascades triggered by a remote delivery stay in the sender's trace.
  exec().causal = event.causal;
  NodeContext& ctx = *contexts_[event.node];
  const Table* table = ctx.FindTable(event.tuple.predicate());
  if (table == nullptr) return OkStatus();
  const StoredTuple* current = table->Find(event.tuple);
  // Stale event: the tuple was replaced (e.g. a better aggregate) before we
  // got to it.
  if (current == nullptr) return OkStatus();
  StoredTuple delta = *current;  // copy: tables mutate during firing

  const std::vector<Strand>* strands =
      plan_.StrandsFor(event.tuple.predicate());
  if (strands == nullptr) return OkStatus();
  for (const Strand& strand : *strands) {
    const CompiledRule& cr = plan_.rules()[strand.rule_index];
    PROVNET_RETURN_IF_ERROR(
        FireStrand(event.node, cr, strand.body_index, delta));
  }
  return OkStatus();
}

bool Engine::SaysMatches(const SlotSays& says, const StoredTuple& entry,
                         Frame& frame) const {
  const Principal& principal = entry.asserted_by;
  if (principal.empty() || says.never) return false;
  auto matches_value = [this, &principal](const Value& v) {
    if (v.kind() == ValueKind::kAddress) {
      NodeId id = v.AsAddress();
      return id < contexts_.size() && contexts_[id]->principal() == principal;
    }
    if (v.kind() == ValueKind::kString) return v.AsString() == principal;
    return false;
  };
  if (says.is_const) return matches_value(says.constant);
  if (frame.IsBound(says.slot)) return matches_value(frame.Get(says.slot));
  // Bind: prefer the node address when the principal names a node.
  auto node = node_of_.find(principal);
  if (node != node_of_.end()) {
    frame.BindOrCheck(says.slot, Value::Address(node->second));
  } else {
    frame.BindOrCheck(says.slot, Value::Str(principal));
  }
  return true;
}

Status Engine::FireStrand(NodeId node_id, const CompiledRule& cr,
                          int delta_index, const StoredTuple& delta_entry) {
  const RuleProgram& prog = cr.prog;
  ExecSlot& ex = exec();
  Frame& frame = ex.frame;
  frame.Reset(prog.num_slots);
  frame.BindOrCheck(prog.local_slot, Value::Address(node_id));

  const SlotLiteral& delta_lit = prog.body[static_cast<size_t>(delta_index)];
  if (!MatchTuple(delta_lit, delta_entry.tuple, frame)) return OkStatus();
  if (delta_lit.says.has_value() &&
      !SaysMatches(*delta_lit.says, delta_entry, frame)) {
    return OkStatus();
  }

  // The strand actually runs its join (the delta literal matched).
  ++ex.cells.rule(RuleIndex(cr), RuleCtr::kFirings)->value;
  if (tracer_.enabled()) {
    obs::TraceEvent ev;
    ev.sim_time = net_.now();
    ev.node = node_id;
    ev.kind = "fire";
    ev.attrs = {{"rule", prog.label},
                {"delta", delta_entry.tuple.predicate()}};
    TraceSampled(std::move(ev));
  }

  std::vector<const StoredTuple*> used;
  used.reserve(prog.body.size());
  used.push_back(&delta_entry);
  // The join recursion collects `used` delta-first; emit restores body
  // order below. Canonical order matters beyond readability: a derivation
  // must record identical bytes no matter which body literal's delta
  // triggered it, or a crash-recovery re-derivation (triggered by a
  // different delta than the original run) would produce a provenance
  // record — and proof — that differs from the fault-free one.
  const size_t delta_pos = [&] {
    size_t atoms = 0;
    for (int i = 0; i < delta_index; ++i) {
      if (prog.body[static_cast<size_t>(i)].kind == LiteralKind::kAtom) {
        ++atoms;
      }
    }
    return atoms;
  }();
  PROVNET_RETURN_IF_ERROR(DynJoin(
      node_id, cr, 0, delta_index, /*use_overlay=*/false, frame, used,
      [this, node_id, &cr, delta_pos](
          Frame& f, const std::vector<const StoredTuple*>& u) {
        std::vector<const StoredTuple*> body_order(u.begin() + 1, u.end());
        body_order.insert(body_order.begin() + static_cast<long>(delta_pos),
                          u.front());
        return EmitHead(node_id, cr, f, body_order);
      }));
  return DrainPending();
}

Status Engine::EmitHead(NodeId node_id, const CompiledRule& cr,
                        const Frame& frame,
                        const std::vector<const StoredTuple*>& used) {
  PROVNET_ASSIGN_OR_RETURN(Tuple head, BuildHeadTuple(cr.prog, frame));
  ++exec().cells.rule(RuleIndex(cr), RuleCtr::kDerivations)->value;

  const std::string& label = cr.prog.label;

  // Provenance annotation: product over the body tuples used (hash-consed
  // through the arena in kFull mode, so identical products share nodes).
  ProvExpr prov;
  if (options_.prov_mode == ProvMode::kCondensed ||
      options_.prov_mode == ProvMode::kFull) {
    prov = ProvExpr::One();
    for (const StoredTuple* child : used) {
      prov = arena_ != nullptr ? arena_->InternTimes(prov, child->prov)
                               : ProvExpr::Times(prov, child->prov);
    }
  }

  DerivationPtr deriv;
  if (options_.prov_mode == ProvMode::kFull) {
    std::vector<DerivationPtr> children;
    children.reserve(used.size());
    for (const StoredTuple* child : used) {
      if (child->deriv != nullptr) children.push_back(child->deriv);
    }
    deriv = MakeRuleDerivation(head, label, node_id,
                               contexts_[node_id]->principal(), net_.now(),
                               -1.0, std::move(children));
    if (options_.authenticate) {
      PROVNET_ASSIGN_OR_RETURN(
          deriv, SignDerivation(deriv, auth_, options_.says_level));
    }
    // Intern after signing (see InsertFact); shared sub-proofs — the body
    // derivations — are already arena-owned, so only the new step is added.
    if (arena_ != nullptr) deriv = arena_->Canonical(deriv, nullptr);
  }

  // Destination.
  NodeId dest = node_id;
  if (cr.prog.send_to.has_value()) {
    PROVNET_ASSIGN_OR_RETURN(Value v, EvalSlotTerm(*cr.prog.send_to, frame));
    if (v.kind() != ValueKind::kAddress) {
      return InvalidArgumentError("rule " + label +
                                  ": destination is not an address: " +
                                  v.ToString());
    }
    dest = v.AsAddress();
    if (dest >= contexts_.size()) {
      return InvalidArgumentError("rule " + label +
                                  ": destination node out of range");
    }
  }

  if (dest == node_id) {
    // Local head: defer the table mutation until the join scan completes —
    // the scan iterates stored tuples by pointer, so tables must not change
    // under it. Provenance child refs are captured now, while `used` points
    // at live entries.
    StoredTuple entry;
    entry.tuple = std::move(head);
    entry.origin = TupleOrigin::kLocalRule;
    entry.asserted_by = contexts_[node_id]->principal();
    entry.rule = label;
    entry.prov = std::move(prov);
    entry.deriv = std::move(deriv);
    PendingAction action;
    action.kind = PendingAction::Kind::kDeliver;
    action.node = node_id;
    action.entry = std::move(entry);
    if (RecordingPossible()) action.children = BuildChildRefs(node_id, used);
    action.rule_label = label;
    exec().pending.push_back(std::move(action));
    return OkStatus();
  }

  // Remote head: the sender records the derivation step (distributed
  // provenance keeps state at each hop), then ships the tuple. Neither
  // touches local tables, so this needs no deferral.
  RecordProvenance(node_id, head, label, TupleOrigin::kLocalRule, 0,
                   contexts_[node_id]->principal(),
                   RecordingPossible() ? BuildChildRefs(node_id, used)
                                       : std::vector<ProvChildRef>{},
                   -1.0);
  return SendTuple(node_id, dest, head, prov, deriv);
}

Status Engine::DrainPending() {
  // Apply in emit order; DeliverLocal pushes delta events in the same
  // order the seed evaluator did. Actions may append further pending work
  // only via the retraction queue, never the pending buffer itself.
  std::vector<PendingAction>& pending = exec().pending;
  for (size_t i = 0; i < pending.size(); ++i) {
    PendingAction action = std::move(pending[i]);
    switch (action.kind) {
      case PendingAction::Kind::kDeliver:
        PROVNET_RETURN_IF_ERROR(DeliverLocal(action.node,
                                             std::move(action.entry),
                                             std::move(action.children),
                                             action.rule_label));
        break;
      case PendingAction::Kind::kOverDelete:
        PROVNET_RETURN_IF_ERROR(OverDeleteAt(action.node, action.head));
        break;
      case PendingAction::Kind::kSendRetract:
        // The firing node recorded the derivation of this shipped head in
        // its own online store; the head tuple (and its recv record) lives
        // at the destination. The remote over-deletion scrubs only the
        // destination's records, so the dead derivation must be dropped
        // here — otherwise a later re-derivation records a second copy and
        // the proof gains a spurious union branch.
        contexts_[action.node]->online_store().Remove(DigestOf(action.head));
        PROVNET_RETURN_IF_ERROR(
            SendRetract(action.node, action.dest, action.head));
        break;
    }
  }
  pending.clear();
  return OkStatus();
}

Status Engine::SendTuple(NodeId from, NodeId to, const Tuple& tuple,
                         const ProvExpr& prov, const DerivationPtr& deriv) {
  // Body: tuple + provenance payload. The says tag signs it, so piggybacked
  // provenance is authenticated too (Section 4.3).
  ByteWriter body;
  tuple.Serialize(body);
  body.PutU8(ProvPayloadKind(options_.prov_mode));
  const size_t marker_end = body.size();  // the kind marker is protocol, not
                                          // provenance payload
  switch (options_.prov_mode) {
    case ProvMode::kNone:
    case ProvMode::kPointers:
      break;
    case ProvMode::kCondensed:
      Condense(prov).Serialize(body);
      break;
    case ProvMode::kFull: {
      PROVNET_CHECK(deriv != nullptr);
      // The same canonical proof ships to every neighbor; serialize it once
      // and replay the bytes from the arena's wire cache afterwards.
      const store::DerivId id = arena_->IdOfOwned(deriv.get());
      const Bytes* cached = id != 0 ? arena_->CachedWire(id) : nullptr;
      if (cached != nullptr) {
        body.PutRaw(cached->data(), cached->size());
      } else {
        deriv->Serialize(body);
        if (id != 0) {
          arena_->CacheWire(id, Bytes(body.bytes().begin() + marker_end,
                                      body.bytes().end()));
        }
      }
      // Prime the receive path's decode cache with the exact bytes just
      // shipped: Canonical(Deserialize(bytes)) is an identity for bytes
      // serialized from a canonical node, so the receiver can map them
      // straight back to `id` without re-materializing the tree. The wire
      // and its metering are untouched; payloads that SendTuple never
      // produced (forged frames) miss the cache and take the full decode
      // path with all its checks.
      if (id != 0) {
        arena_->CacheDecode(body.bytes().data() + marker_end,
                            body.size() - marker_end, id);
      }
      break;
    }
  }
  return SealAndShip(from, to, kMsgTuple, body.bytes(),
                     body.size() - marker_end, tuple.predicate());
}

Status Engine::SealAndShip(NodeId from, NodeId to, uint8_t type,
                           const Bytes& body, size_t prov_bytes,
                           const std::string& pred) {
  ExecSlot& ex = exec();
  const Principal& sender = contexts_[from]->principal();
  // Causal span (core/causal.h): the message is a span, child of whatever
  // context produced it; no context roots a fresh trace. The ids ride the
  // wire unconditionally — inside the signed content, so they cannot be
  // re-stitched — which keeps message bytes identical whether or not
  // tracing is on.
  SignedPrefix prefix;
  if (options_.authenticate) {
    prefix.seq = NextSendSeq(sender);
    prefix.dest = to;
  }
  prefix.causal.span_id = NewCausalSpan(from);
  prefix.causal.trace_id = ex.causal.trace_id != 0 ? ex.causal.trace_id
                                                   : prefix.causal.span_id;
  Envelope env;
  env.type = type;
  ByteWriter content;
  content.Reserve(kMaxSignedPrefixBytes + body.size());
  const size_t header_bytes =
      PutSignedPrefix(content, prefix, options_.authenticate);
  content.PutRaw(body.data(), body.size());
  env.content = std::move(content).Take();
  // A says tag ships whenever the program's dialect uses principals: with
  // authentication it carries a MAC/signature; without it, the paper's
  // "benign world" cleartext principal header.
  if (options_.authenticate || plan_.sendlog()) {
    obs::Profiler::Scope sign_scope(profiler_, obs::Phase::kSign);
    PROVNET_ASSIGN_OR_RETURN(
        env.tag, auth_.Say(sender, env.content,
                           options_.authenticate ? options_.says_level
                                                 : SaysLevel::kCleartext));
  }
  size_t tag_bytes = 0;
  Bytes wire = env.Encode(&tag_bytes);

  if (type == kMsgProvRequest || type == kMsgProvResponse) {
    ex.cells[Ctr::kProvQueryBytes]->value += wire.size();
  } else {
    // The anti-replay header and the tag are authentication overhead, not
    // tuple payload.
    const size_t auth_bytes = header_bytes + tag_bytes;
    ex.cells[Ctr::kProvBytes]->value += prov_bytes;
    ex.cells[Ctr::kAuthBytes]->value += auth_bytes;
    ex.cells[Ctr::kTupleBytes]->value += wire.size() - prov_bytes - auth_bytes;
  }
  ChargeLink(from, to, type, wire.size());
  if (tracer_.enabled()) {
    obs::TraceEvent ev;
    ev.sim_time = net_.now();
    ev.node = from;
    ev.kind = "send";
    ev.trace_id = prefix.causal.trace_id;
    ev.span_id = prefix.causal.span_id;
    ev.parent_span = ex.causal.span_id;
    ev.attrs = {{"to", PrincipalOf(to)}, {"msg", MsgKindName(type)}};
    if (!pred.empty()) ev.attrs.emplace_back("pred", pred);
    ev.attrs.emplace_back("bytes", std::to_string(wire.size()));
    TraceSampled(std::move(ev));
  }
  if (ex.buffered) {
    // Worker lane: the message is fully built and signed (per-principal
    // sequence numbers are node-local), but the wire — global sequence
    // numbers, fault-injection taps, byte meters — is ordered state. Commit
    // runs Network::Send in canonical order.
    ExecSlot::Effect fx;
    fx.kind = ExecSlot::Effect::Kind::kSend;
    fx.node = from;
    fx.peer = to;
    fx.payload = std::move(wire);
    ex.effects->push_back(std::move(fx));
    return OkStatus();
  }
  return net_.Send(from, to, std::move(wire));
}

Status Engine::HandleMessage(NodeId to, NodeId from, const Bytes& payload) {
  Status s = [&]() -> Status {
    PROVNET_ASSIGN_OR_RETURN(Envelope env, Envelope::Decode(payload));
    ByteReader body(env.content);
    PROVNET_ASSIGN_OR_RETURN(std::optional<SignedPrefix> prefix,
                             VerifyInbound(to, from, env, body));
    if (!prefix.has_value()) {
      if (env.type == kMsgProvResponse) {
        ++cells_[Ctr::kProvResponsesRejected]->value;
        if (query_session_ != nullptr) {
          ++query_session_->stats.responses_rejected;
        }
      }
      return OkStatus();  // rejected and audited; drop
    }
    // Adopt the sender's causal context: whatever the delivery triggers —
    // a cascade, an over-deletion, a query answer or follow-up request —
    // and every message that sends descends from the message span.
    exec().causal = prefix->causal;
    switch (env.type) {
      case kMsgTuple:
        return HandleTupleMessage(to, from, env, body);
      case kMsgProvRequest:
        return HandleProvRequest(to, from, body);
      case kMsgProvResponse:
        return HandleProvResponse(to, from, env, body);
      default:  // kMsgRetract; Decode refuses unknown types
        return HandleRetractMessage(to, from, env, body);
    }
  }();
  // In an authenticated (hostile-world) deployment, unparseable or torn
  // traffic is an attack symptom, not an engine failure: audit it and drop
  // the message instead of poisoning the run. (A verified signature does
  // not imply well-formed content — a stolen key signs anything.)
  if (!s.ok() &&
      (s.code() == StatusCode::kInvalidArgument ||
       s.code() == StatusCode::kOutOfRange) &&
      options_.authenticate) {
    RecordSecurityEvent(SecurityEventKind::kMalformed, to, from, "",
                        s.ToString());
    return OkStatus();
  }
  return s;
}

Status Engine::HandleTupleMessage(NodeId to, NodeId from, const Envelope& env,
                                  ByteReader& body) {
  const Principal sender_principal =
      env.tag.has_value() ? env.tag->principal : "";
  PROVNET_ASSIGN_OR_RETURN(Tuple tuple, Tuple::Deserialize(body));
  // A receiver takes only the payload kind its own mode ships: anything
  // else would bypass its checks (a condensed receiver handed no cubes
  // skips the framing check below).
  PROVNET_ASSIGN_OR_RETURN(uint8_t prov_kind, body.GetU8());
  if (prov_kind != ProvPayloadKind(options_.prov_mode)) {
    return InvalidArgumentError("provenance payload kind does not match " +
                                std::string(ProvModeName(options_.prov_mode)) +
                                " mode");
  }

  StoredTuple entry;
  entry.tuple = std::move(tuple);
  entry.origin = TupleOrigin::kRemote;
  entry.from_node = from;
  entry.asserted_by = sender_principal;
  switch (prov_kind) {
    case kProvPayloadNone:
      break;
    case kProvPayloadCubes: {
      PROVNET_ASSIGN_OR_RETURN(CondensedProv cubes,
                               CondensedProv::Deserialize(body));
      // Receive-side framing check (closes a PR 3 follow-up): every honest
      // derivation a principal ships passes through one of its own
      // assertions (localized rules join through the sender's link state),
      // so every shipped cube must contain the sender's own variable. A
      // stolen key can still forge tuples, but it can no longer *frame*
      // other principals with annotation cubes that omit itself — the
      // traceback that follows a framed cube would blame an innocent.
      if (options_.authenticate &&
          options_.prov_grain == ProvGrain::kPrincipal && env.tag.has_value()) {
        std::optional<ProvVar> sender_var = registry_.Find(sender_principal);
        bool framed = false;
        for (const std::vector<ProvVar>& cube : cubes.cubes) {
          if (!sender_var.has_value() ||
              std::find(cube.begin(), cube.end(), *sender_var) ==
                  cube.end()) {
            framed = true;
            break;
          }
        }
        if (framed) {
          ++exec().cells[Ctr::kProvFramesRejected]->value;
          RecordSecurityEvent(
              SecurityEventKind::kForeignProvenance, to, from,
              sender_principal,
              "annotation cube omits sender: " + entry.tuple.ToString());
          return OkStatus();  // rejected and audited; drop
        }
      }
      entry.prov = cubes.ToExpr();
      break;
    }
    case kProvPayloadTree: {
      // kFull: the proof tree is the tail of the signed content, and the
      // send side replays bit-identical bytes per proof (CacheWire), so
      // the payload bytes key a decode cache — a proof that arrived
      // before (from any sender) maps straight to its interned root,
      // skipping deserialization and the per-node digest pass. The key
      // is the exact bytes, so a forged payload can never alias an
      // honest proof.
      const uint8_t* payload = env.content.data() + body.position();
      const size_t payload_len = body.remaining();
      store::DerivId root_id = arena_->CachedDecode(payload, payload_len);
      if (root_id != 0) {
        entry.deriv = arena_->Lookup(root_id);
      } else {
        PROVNET_ASSIGN_OR_RETURN(entry.deriv,
                                 DerivationNode::Deserialize(body));
        // Intern the tree so every shared sub-proof is stored once
        // process-wide.
        entry.deriv = arena_->Canonical(entry.deriv, &root_id);
        arena_->CacheDecode(payload, payload_len, root_id);
      }
      // Rebuild the annotation through the arena's annotation cache — a
      // sub-proof seen at any earlier hop costs O(1), not O(tree).
      // Principal-grain leaves with no recorded asserter take the
      // *sender's* variable, so subtrees containing one are
      // sender-dependent and never enter the cache. (Honest senders always
      // name the asserter; the fallback serves trees that do not.)
      struct Ann {
        ProvExpr expr;
        bool sender_dep = false;
      };
      std::unordered_map<const DerivationNode*, Ann> memo;
      std::function<Ann(const DerivationPtr&)> annotate =
          [&](const DerivationPtr& n) -> Ann {
        auto it = memo.find(n.get());
        if (it != memo.end()) return it->second;
        store::DerivId id = arena_->IdOfOwned(n.get());
        if (id == 0) id = arena_->IdOf(n->ContentDigest());
        if (const ProvExpr* hit = arena_->CachedAnnotation(id)) {
          Ann out{*hit, false};
          memo.emplace(n.get(), out);
          return out;
        }
        Ann out;
        if (n->children.empty()) {
          out.sender_dep = n->asserted_by.empty() &&
                           options_.prov_grain == ProvGrain::kPrincipal;
          out.expr = BaseAnnotation(
              n->asserted_by.empty() ? sender_principal : n->asserted_by,
              n->tuple);
        } else if (n->rule == kUnionRule) {
          out.expr = ProvExpr::Zero();
          // Canonical children make duplicate alternatives pointer-equal;
          // dedup so a crafted tree cannot inflate derivation counts
          // (honest senders already dedup in MergeAlternatives).
          std::unordered_set<const DerivationNode*> seen;
          for (const DerivationPtr& c : n->children) {
            if (!seen.insert(c.get()).second) continue;
            Ann ca = annotate(c);
            out.sender_dep |= ca.sender_dep;
            out.expr = arena_->InternPlus(out.expr, ca.expr);
          }
        } else {
          out.expr = ProvExpr::One();
          for (const DerivationPtr& c : n->children) {
            Ann ca = annotate(c);
            out.sender_dep |= ca.sender_dep;
            out.expr = arena_->InternTimes(out.expr, ca.expr);
          }
        }
        if (id != 0 && !out.sender_dep) arena_->CacheAnnotation(id, out.expr);
        memo.emplace(n.get(), out);
        return out;
      };
      entry.prov = annotate(entry.deriv).expr;
      break;
    }
  }
  if (tracer_.enabled()) {
    obs::TraceEvent ev;
    ev.sim_time = net_.now();
    ev.node = to;
    ev.kind = "deliver";
    // Same span id as the sender's "send" event — the cross-node join
    // point when the JSONL streams are stitched into one tree.
    ev.trace_id = exec().causal.trace_id;
    ev.span_id = exec().causal.span_id;
    ev.attrs = {{"from", PrincipalOf(from)},
                {"msg", "tuple"},
                {"pred", entry.tuple.predicate()}};
    TraceSampled(std::move(ev));
  }
  return DeliverLocal(to, std::move(entry), {}, "recv");
}

Result<RunStats> Engine::Run() {
  RunStats before = StatsView();
  uint64_t bytes0 = net_.total_bytes();
  uint64_t msgs0 = net_.total_messages();
  uint64_t signs0 = auth_.sign_count();
  uint64_t verifies0 = auth_.verify_count();
  double sim0 = net_.now();

  auto t0 = std::chrono::steady_clock::now();
  // Parallel lanes are worth engaging only when there are several nodes to
  // shard across. kFull provenance is pinned sequential at every grain:
  // the hash-consing arena interns derivations and annotations in
  // first-come order (and at tuple grain the receive path additionally
  // interns provenance variables for unseen base tuples), so that order
  // must stay the sequential one.
  const bool parallel = ResolvedThreads() > 1 && contexts_.size() > 1 &&
                        options_.prov_mode != ProvMode::kFull;
  if (parallel) EnsureParallelRuntime();
  // Phase meters (obs/profiler.h): kFixpoint spans the whole loop; the
  // branch scopes below meter where it goes. All wall-clock, none exported
  // through the (deterministic) metrics registry.
  obs::Profiler::Scope fixpoint_scope(profiler_, obs::Phase::kFixpoint);
  uint64_t steps = 0;
  while (true) {
    if (!async_error_.ok()) {
      Status s = async_error_;
      async_error_ = OkStatus();
      return s;
    }
    if (!dynamics_->queue.empty()) {
      obs::Profiler::Scope scope(profiler_, obs::Phase::kRetractions);
      // Deletion deltas run ahead of insertions: an epoch's over-deletion
      // reaches fixpoint before any restoration fires.
      DeltaState::Retraction retraction = std::move(dynamics_->queue.front());
      dynamics_->queue.pop_front();
      ++cells_[Ctr::kRetractions]->value;
      // Restore the context captured at enqueue: the deletion cascade (and
      // any kMsgRetract it ships) stays in its originating trace.
      exec().causal = retraction.causal;
      PROVNET_RETURN_IF_ERROR(
          ProcessRetraction(retraction.node, retraction.entry));
    } else if (!events_.empty()) {
      obs::Profiler::Scope scope(profiler_, obs::Phase::kEvents);
      PendingEvent event = std::move(events_.front());
      events_.pop_front();
      ++cells_[Ctr::kEvents]->value;
      PROVNET_RETURN_IF_ERROR(ProcessEvent(event));
    } else if (!net_.Idle()) {
      obs::Profiler::Scope scope(profiler_, obs::Phase::kDelivery);
      // Scripted faults fire on the virtual clock: a crash/restart due no
      // later than the next network event interposes here (ties: the fault
      // wins, so a crash at t kills deliveries at t).
      if (NextFaultEventTime() <= net_.NextEventTime()) {
        PROVNET_RETURN_IF_ERROR(ProcessFaultEventsUpTo(NextFaultEventTime()));
      } else {
        bool handled = false;
        if (parallel) {
          PROVNET_ASSIGN_OR_RETURN(handled, TryParallelWave(&steps));
        }
        if (!handled) {
          // Step may instead fire a retransmit timer or consume an ack;
          // only handler invocations count as deliveries.
          uint64_t delivered = net_.deliveries();
          net_.Step();
          cells_[Ctr::kDeliveries]->value += net_.deliveries() - delivered;
        }
      }
    } else if (!dynamics_->rederive.empty()) {
      obs::Profiler::Scope scope(profiler_, obs::Phase::kRederive);
      // Quiescent (no deltas, nothing in flight): the over-deletion cascade
      // is complete, so DRed's re-derivation phase may restore survivors.
      PROVNET_RETURN_IF_ERROR(RunRederivePass());
    } else if (replay_pending_) {
      // Crash recovery (RestartNode), at full quiescence: nothing in flight
      // can race the cleared tables.
      PROVNET_RETURN_IF_ERROR(ReplayJournal());
    } else if (next_fault_event_ < fault_events_.size()) {
      // Quiescent with scripted events still pending (e.g. a restart after
      // the crashed network reached fixpoint): jump the clock to the next.
      PROVNET_RETURN_IF_ERROR(ProcessFaultEventsUpTo(NextFaultEventTime()));
    } else {
      break;  // distributed fixpoint: no events, no in-flight messages
    }
    if (++steps > kMaxSteps) {
      return ResourceExhaustedError(
          "engine exceeded max_steps; divergent program?");
    }
  }
  dynamics_->EndEpoch();
  PROVNET_RETURN_IF_ERROR(FlushDurableStores());
  auto t1 = std::chrono::steady_clock::now();

  RunStats cur = StatsView();
  RunStats out;
  out.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  out.sim_seconds = net_.now() - sim0;
  out.deliveries = cur.deliveries - before.deliveries;
  out.events = cur.events - before.events;
  out.derivations = cur.derivations - before.derivations;
  out.join_candidates = cur.join_candidates - before.join_candidates;
  out.messages = net_.total_messages() - msgs0;
  out.bytes = net_.total_bytes() - bytes0;
  out.tuple_bytes = cur.tuple_bytes - before.tuple_bytes;
  out.auth_bytes = cur.auth_bytes - before.auth_bytes;
  out.prov_bytes = cur.prov_bytes - before.prov_bytes;
  out.signs = auth_.sign_count() - signs0;
  out.verifies = auth_.verify_count() - verifies0;
  out.auth_failures = cur.auth_failures - before.auth_failures;
  out.replays_rejected = cur.replays_rejected - before.replays_rejected;
  out.retracts_rejected = cur.retracts_rejected - before.retracts_rejected;
  out.retractions = cur.retractions - before.retractions;
  out.rederivations = cur.rederivations - before.rederivations;
  out.prov_queries = cur.prov_queries - before.prov_queries;
  out.prov_query_bytes = cur.prov_query_bytes - before.prov_query_bytes;
  out.prov_responses_rejected =
      cur.prov_responses_rejected - before.prov_responses_rejected;
  out.prov_frames_rejected =
      cur.prov_frames_rejected - before.prov_frames_rejected;
  // Peak accounted bytes by subsystem — filled only when accounting is on,
  // so byte-accounting toggles never perturb golden stats comparisons.
  if (obs::MemAccounting::Global().enabled()) {
    out.peak_mem = obs::MemAccounting::Global().PeakSummary();
  }
  return out;
}

std::vector<Tuple> Engine::TuplesAt(NodeId node_id,
                                    const std::string& pred) const {
  std::vector<Tuple> out;
  const Table* table = contexts_[node_id]->FindTable(pred);
  if (table == nullptr) return out;
  for (const StoredTuple* entry : table->Scan()) out.push_back(entry->tuple);
  std::sort(out.begin(), out.end());
  return out;
}

Result<ProvExpr> Engine::AnnotationOf(NodeId node_id,
                                      const Tuple& tuple) const {
  const Table* table = contexts_[node_id]->FindTable(tuple.predicate());
  if (table == nullptr) return NotFoundError("no such table");
  const StoredTuple* entry = table->Find(tuple);
  if (entry == nullptr) return NotFoundError("tuple not stored: " +
                                             tuple.ToString());
  return entry->prov;
}

Result<CondensedProv> Engine::CondensedOf(NodeId node_id,
                                          const Tuple& tuple) const {
  PROVNET_ASSIGN_OR_RETURN(ProvExpr prov, AnnotationOf(node_id, tuple));
  return Condense(prov);
}

Result<DerivationPtr> Engine::LocalDerivationOf(NodeId node_id,
                                                const Tuple& tuple) const {
  const Table* table = contexts_[node_id]->FindTable(tuple.predicate());
  if (table == nullptr) return NotFoundError("no such table");
  const StoredTuple* entry = table->Find(tuple);
  if (entry == nullptr) return NotFoundError("tuple not stored");
  if (entry->deriv == nullptr) {
    return FailedPreconditionError(
        "no local derivation tree; run with ProvMode::kFull");
  }
  return entry->deriv;
}

void Engine::ExpireNow() {
  // Expiry is an external (clock-driven) cause: cascades root fresh traces.
  exec().causal = CausalIds{};
  double now = net_.now();
  for (auto& ctx : contexts_) {
    std::vector<StoredTuple> expired;
    ctx->ExpireTablesBefore(now, &expired);
    ctx->online_store().ExpireBefore(now);
    // Soft-state expiry is a deletion like any other: the next Run()
    // propagates deletion deltas so derived state shrinks with its support.
    // Expired *derived* tuples are scheduled for re-derivation — if their
    // support still stands they return with a fresh TTL (the P2 refresh);
    // expired base facts stay gone (nothing derives them).
    for (StoredTuple& entry : expired) {
      bool is_base = entry.origin == TupleOrigin::kBase;
      if (is_base) NoteKilledBase(entry.tuple);
      bool is_agg =
          plan_.OptionsFor(entry.tuple.predicate()).agg != AggKind::kNone;
      EnqueueRetraction(ctx->id(), std::move(entry), /*rederive=*/!is_base,
                        /*rederive_group=*/is_agg);
    }
  }
}

}  // namespace provnet
