// perfbench: the repository's one benchmark. Three seeded Best-Path
// workloads run through the public API only (Engine::Create,
// InsertLinkFacts, Run, ProvQueryBuilder::Run, ChurnDriver::Step); an
// untraced run gives the end-to-end metrics, a separate traced run the
// per-layer ones.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// Workloads, all closed loop with one client on RingPlusRandom(n, 3):
//   fig3-sendlogprov  SeNDLogProv (RSA says, condensed principal-grain
//                     provenance), n=100, min(2, nproc) lanes; one cold
//                     fixpoint per episode.
//   forensic-queries  SeNDLog with HMAC says, pointer provenance and the
//                     in-memory archive, n=100, 1 lane; after the fixpoint a
//                     seeded half of the nodes loses its online records and
//                     distributed ProvQuery walks run one after another.
//   armed-fixpoint    NDLog with condensed tuple-grain provenance, n=40,
//                     1 lane, the ack/retransmit transport armed and no
//                     loss; one cold fixpoint per episode.
// Two more run the same engine at n=50 under 1% uniform loss. They are not
// BENCHMARK.json workloads, because operations fail on them (see
// README.md); they stay runnable to show those defects:
//   lossy-fixpoint    one cold fixpoint per episode; some leave every route
//                     to one destination missing.
//   lossy-churn       the fixpoint, then a link-flap script applied one
//                     ChurnDriver::Step at a time; incremental maintenance
//                     leaves bestPath routes over deleted links.
//
// The seed derives a few instances of a workload (topology, key and fault
// seeds, query picks, archive-only nodes, flap script). A run cycles
// through them, one episode (set-up, first fixpoint, the workload's
// operations) at a time, until every instance ran and --seconds have
// passed. Counts are means over the instances and must repeat exactly in
// every episode of an instance; fixpoint times are trimmed means, other
// wall times medians, over all episodes.
// Stdout is one JSON report (written with obs::JsonWriter); run.py turns it
// into the benchmark result.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/bestpath.h"
#include "apps/programs.h"
#include "crypto/keystore.h"
#include "datalog/analysis.h"
#include "datalog/localize.h"
#include "datalog/parser.h"
#include "dynamics/churn.h"
#include "net/faults.h"
#include "net/topology.h"
#include "obs/export.h"
#include "obs/mem.h"
#include "obs/profiler.h"
#include "query/provquery.h"
#include "util/random.h"

#ifndef PERFBENCH_BUILD_FLAGS
#define PERFBENCH_BUILD_FLAGS "unknown"
#endif

namespace provnet::perfbench {
namespace {

// --- Spans -----------------------------------------------------------------

struct SpanRecord {
  std::string name;
  uint64_t trace = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root of its trace
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

// Every timed call goes through a Span, traced or not, so both runs time
// the same code; only the traced run keeps the records, in memory, and
// writes them when it ends.
class SpanLog {
 public:
  explicit SpanLog(bool keep) : keep_(keep) {}
  uint64_t NewTrace() { return ++last_trace_; }
  uint64_t NewId() { return ++last_id_; }
  void Add(const SpanRecord& span) {
    if (keep_) spans_.push_back(span);
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  bool keep_;
  uint64_t last_trace_ = 0;
  uint64_t last_id_ = 0;
  std::vector<SpanRecord> spans_;
};

class Span {
 public:
  Span(SpanLog& log, const char* name, uint64_t trace, uint64_t parent = 0)
      : log_(log),
        rec_{name, trace, log.NewId(), parent, obs::Profiler::NowNs(), 0} {}
  ~Span() { Finish(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return rec_.id; }
  // Ends the span (once) and returns its duration in seconds.
  double Finish() {
    if (rec_.end_ns == 0) {
      rec_.end_ns = obs::Profiler::NowNs();
      log_.Add(rec_);
    }
    return static_cast<double>(rec_.end_ns - rec_.start_ns) * 1e-9;
  }

 private:
  SpanLog& log_;
  SpanRecord rec_;
};

double NowSeconds() { return static_cast<double>(obs::Profiler::NowNs()) * 1e-9; }

// --- Inputs ----------------------------------------------------------------

// SplitMix64 over (seed, stream): one independent stream per input.
uint64_t Derive(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + stream * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

enum Stream : uint64_t {
  kTopologyStream = 1,
  kQueryStream = 2,
  kArchiveStream = 3,
  kFlapStream = 4,
  kFaultStream = 5,
  kKeyStream = 6,
  kInstanceStream = 100,  // + instance index
};

enum class Kind { kFig3, kForensic, kTransport };

// One seeded draw of a workload's inputs.
struct Instance {
  EngineOptions options;  // carries the key and fault-plan seeds
  Topology topo;
  uint64_t query_seed = 0;
  std::vector<NodeId> archive_only;  // nodes whose online records are cleared
  ChurnScript script;
};

struct Workload {
  std::string name;
  Kind kind = Kind::kFig3;
  size_t n = 0;
  // Queries (forensic-queries) or updates (lossy-churn) per episode; 0:
  // the episode's operation is its cold fixpoint.
  size_t ops = 0;
  double loss = 0.0;  // uniform per-frame loss rate
  const std::string* program = nullptr;
  // Averaging several topologies per run keeps the spread across seeds
  // small; the transport ones, whose cost varies most with the topology,
  // have more.
  std::vector<Instance> instances;
};

size_t Nproc() {
  size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  Workload w;
  w.name = name;
  EngineOptions options;
  options.threads = 1;
  size_t instances = 4;
  if (name == "fig3-sendlogprov") {
    w.kind = Kind::kFig3;
    w.n = 100;
    // Two lanes run the parallel executor and leave cores to the rest of
    // a shared host; as many lanes as cores time the host's scheduler.
    options.threads = std::min<size_t>(2, Nproc());
    w.program = &BestPathSendlogProgram();
    options = OptionsForVariant(Variant::kSendlogProv, options);
  } else if (name == "forensic-queries") {
    w.kind = Kind::kForensic;
    w.n = 100;
    w.ops = 1000;
    w.program = &BestPathSendlogProgram();
    options = OptionsForVariant(Variant::kSendlog, options);
    options.says_level = SaysLevel::kHmac;
    options.prov_mode = ProvMode::kPointers;
    options.record_offline = true;
  } else if (name == "armed-fixpoint" || name == "lossy-fixpoint" ||
             name == "lossy-churn") {
    // The armed transport's cost grows steeply with n (about 0.4 s per
    // fixpoint at 30 nodes, 1.6 s at 40, 4.5 s at 50): twelve 40-node
    // topologies fit a run where eight 50-node ones did not, and average
    // out more of the topology.
    bool armed = name == "armed-fixpoint";
    w.kind = Kind::kTransport;
    w.n = armed ? 40 : 50;
    w.ops = name == "lossy-churn" ? 26 : 0;
    w.loss = armed ? 0.0 : 0.01;
    instances = armed ? 12 : 8;
    w.program = &BestPathNdlogProgram();
    options = OptionsForVariant(Variant::kNdlog, options);
    options.prov_mode = ProvMode::kCondensed;
    options.prov_grain = ProvGrain::kTuple;
    options.reliable_transport = true;
  } else {
    return InvalidArgumentError("unknown workload: " + name);
  }
  for (size_t i = 0; i < instances; ++i) {
    uint64_t s = Derive(seed, kInstanceStream + i);
    Instance in;
    in.options = options;
    in.options.seed = Derive(s, kKeyStream);
    if (w.loss > 0.0) {
      in.options.fault_plan =
          FaultPlan::UniformLoss(w.loss, Derive(s, kFaultStream));
    }
    Rng topo_rng(Derive(s, kTopologyStream));
    in.topo = Topology::RingPlusRandom(w.n, 3, topo_rng);
    in.query_seed = Derive(s, kQueryStream);
    if (w.kind == Kind::kForensic) {
      std::vector<NodeId> nodes(w.n);
      for (NodeId id = 0; id < w.n; ++id) nodes[id] = id;
      Rng archive_rng(Derive(s, kArchiveStream));
      archive_rng.Shuffle(nodes);
      in.archive_only.assign(nodes.begin(), nodes.begin() + w.n / 2);
    }
    if (w.kind == Kind::kTransport && w.ops > 0) {
      Rng flap_rng(Derive(s, kFlapStream));
      in.script = ChurnScript::RandomLinkFlaps(
          in.topo, w.ops / 2, /*start=*/1.0, /*spacing=*/1.0, flap_rng);
    }
    w.instances.push_back(std::move(in));
  }
  return w;
}

// The same instances and lanes under another system variant (the Figure
// 3/4 comparison of the fig3-sendlogprov traced run).
Workload AsVariant(const Workload& w, Variant variant) {
  Workload out = w;
  for (Instance& in : out.instances) {
    in.options = OptionsForVariant(variant, in.options);
  }
  out.program = variant == Variant::kNdlog ? &BestPathNdlogProgram()
                                           : &BestPathSendlogProgram();
  return out;
}

// --- Checks ----------------------------------------------------------------

struct RouteCheck {
  bool ok = true;         // false: an oracle violation (InternalError)
  size_t suboptimal = 0;  // pairs whose bestPath costs more than the oracle
  std::string error;
};

// VerifyBestPaths against the links live now. Its FailedPrecondition
// (routes above the oracle cost: tie-blocked, or stuck after loss) is not
// a failure; those pairs are counted instead.
RouteCheck CheckRoutes(Engine& engine, const Topology& topo) {
  RouteCheck check;
  Status s = VerifyBestPaths(engine, topo);
  if (s.ok()) return check;
  if (s.code() != StatusCode::kFailedPrecondition) {
    check.ok = false;
    check.error = s.ToString();
    return check;
  }
  auto oracle = ReferenceShortestPaths(topo);
  for (NodeId node = 0; node < topo.num_nodes; ++node) {
    for (const Tuple& t : engine.TuplesAt(node, "bestPath")) {
      auto it = oracle.find({node, t.arg(1).AsAddress()});
      if (it != oracle.end() && t.arg(3).AsInt() > it->second) {
        ++check.suboptimal;
      }
    }
  }
  return check;
}

// A proof is complete when its root is the queried tuple and no leaf is a
// reconstruction artifact.
bool ProofComplete(const QueryResult& result, const Tuple& queried) {
  if (result.dag.empty() || !(result.dag.root_node().tuple == queried)) {
    return false;
  }
  for (const ProofNode& node : result.dag.nodes) {
    if (node.rule == kMissingRule || node.rule == kUnreachableRule ||
        node.rule == kCycleRule) {
      return false;
    }
  }
  return true;
}

void ApplyToTopology(const ChurnEvent& event, Topology& topo) {
  if (event.kind == ChurnKind::kLinkUp) {
    topo.edges.push_back(TopoEdge{event.from, event.to, event.cost});
    return;
  }
  if (event.kind != ChurnKind::kLinkDown) return;
  for (size_t i = 0; i < topo.edges.size(); ++i) {
    const TopoEdge& e = topo.edges[i];
    if (e.from == event.from && e.to == event.to && e.cost == event.cost) {
      topo.edges.erase(topo.edges.begin() + static_cast<long>(i));
      return;
    }
  }
}

// --- Episodes --------------------------------------------------------------

struct Episode {
  size_t instance = 0;
  bool traced = false;
  double setup_s = 0.0;
  double fixpoint_s = 0.0;
  bool at_fixpoint = false;   // set-up and the first Run() succeeded
  RunStats run;               // the first Run()
  std::vector<double> op_ms;  // per query / update wall latency
  uint64_t op_bytes = 0;      // wire bytes over all queries / updates
  size_t suboptimal = 0;      // at the episode's last fixpoint
  size_t invalid_checks = 0;  // oracle checks that found a violation
  uint64_t failed = 0;     // the fixpoint and every query / update
  uint64_t op_failed = 0;  // of `failed`: queries / updates
  std::vector<std::string> errors;
  // Values that depend on the seed alone; every episode of the same
  // instance must repeat them.
  std::map<std::string, double> exact;
  // Wall-clock and memory-gauge readings (traced episodes only).
  std::map<std::string, double> layer;

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 3) errors.push_back(what);
  }
  void FailOp(const std::string& what) {
    ++op_failed;
    Fail(what);
  }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Status CompileOnly(const std::string& source) {
  PROVNET_ASSIGN_OR_RETURN(Program program, ParseProgram(source));
  PROVNET_RETURN_IF_ERROR(AnalyzeProgram(program));
  return LocalizeProgram(program).status();
}

void RunQueries(Engine& engine, const Workload& w, const Instance& in,
                SpanLog& log, Episode& ep) {
  for (NodeId node : in.archive_only) engine.node(node).online_store().Clear();
  std::vector<std::pair<NodeId, Tuple>> targets;
  for (NodeId node = 0; node < engine.num_nodes(); ++node) {
    for (Tuple& t : engine.TuplesAt(node, "bestPath")) {
      targets.emplace_back(node, std::move(t));
    }
  }
  if (targets.empty()) {
    ep.Fail("no bestPath tuples to query");
    return;
  }
  Rng pick(in.query_seed);
  double messages = 0, records = 0, offline_hits = 0;
  size_t complete = 0;
  for (size_t i = 0; i < w.ops; ++i) {
    const auto& [node, tuple] = targets[pick.NextBelow(targets.size())];
    Span span(log, "provquery.run", log.NewTrace());
    Result<QueryResult> result = ProvQueryBuilder(engine)
                                     .At(node)
                                     .Of(tuple)
                                     .WithScope(QueryScope::kDistributed)
                                     .Run();
    ep.op_ms.push_back(span.Finish() * 1e3);
    if (!result.ok()) {
      ep.FailOp("query: " + result.status().ToString());
      continue;
    }
    const QueryStats& stats = result->stats;
    ep.op_bytes += stats.bytes;
    messages += static_cast<double>(stats.messages);
    records += static_cast<double>(stats.records);
    offline_hits += static_cast<double>(stats.offline_hits);
    if (ProofComplete(*result, tuple)) {
      ++complete;
    } else {
      ep.FailOp("incomplete proof for " + tuple.ToString());
    }
  }
  double q = static_cast<double>(w.ops);
  ep.exact["query.messages_per_query"] = messages / q;
  ep.exact["query.records_per_query"] = records / q;
  ep.exact["query.offline_hits_per_query"] = offline_hits / q;
  ep.exact["query.complete_frac"] = static_cast<double>(complete) / q;
}

void RunUpdates(Engine& engine, const Instance& in, SpanLog& log,
                Episode& ep) {
  ChurnDriver driver(engine, /*link_arity=*/3);
  Topology live = in.topo;
  double retractions = 0, rederivations = 0;
  for (const ChurnEvent& event : in.script.events) {
    uint64_t trace = log.NewTrace();
    Span span(log, "churn.step", trace);
    Result<ChurnEventReport> report = driver.Step(event);
    ep.op_ms.push_back(span.Finish() * 1e3);
    if (!report.ok()) {
      // The engine's state is unknown after a failed step: end the episode.
      ep.FailOp("update: " + report.status().ToString());
      break;
    }
    ep.op_bytes += report->bytes;
    retractions += static_cast<double>(report->retractions);
    rederivations += static_cast<double>(report->rederivations);
    ApplyToTopology(event, live);
    Span check_span(log, "check", trace);
    RouteCheck check = CheckRoutes(engine, live);
    if (!check.ok) {
      ++ep.invalid_checks;
      ep.FailOp("after " + event.ToString() + ": " + check.error);
    }
    ep.suboptimal = check.suboptimal;
  }
  double u = static_cast<double>(in.script.events.size());
  ep.exact["dynamics.retractions_per_update"] = retractions / u;
  ep.exact["dynamics.rederivations_per_update"] = rederivations / u;
  ep.exact["dynamics.restored_frac"] = Ratio(rederivations, retractions);
}

double PhaseMs(const obs::Profiler& prof, obs::Phase phase) {
  return static_cast<double>(prof.PhaseNs(phase)) * 1e-6;
}

double PeakMb(obs::MemSubsystem s) {
  return static_cast<double>(obs::MemAccounting::Global().PeakBytes(s)) /
         1e6;
}

// Counters every episode reports (compared across episodes), and the
// profiler / memory-gauge readings of a traced one.
void CollectLayers(Engine& engine, const Workload& w, const Instance& in,
                   Episode& ep) {
  const RunStats& total = engine.cumulative_stats();
  Network& net = engine.network();
  Authenticator& auth = engine.authenticator();
  const obs::Registry& reg = engine.metrics();
  std::map<std::string, double>& x = ep.exact;
  double signs = static_cast<double>(auth.sign_count());
  double verifies = static_cast<double>(auth.verify_count());
  x["wire_mb"] = static_cast<double>(ep.run.bytes) / 1e6;
  x["converge_vt_s"] = ep.run.sim_seconds;
  x["op_bytes"] = static_cast<double>(ep.op_bytes);
  x["crypto.signs"] = signs;
  x["crypto.verifies"] = verifies;
  x["crypto.auth_mb"] = static_cast<double>(ep.run.auth_bytes) / 1e6;
  x["provenance.mb"] = static_cast<double>(ep.run.prov_bytes) / 1e6;
  x["core.events"] = static_cast<double>(total.events);
  x["core.derivations"] = static_cast<double>(total.derivations);
  x["core.join_candidates"] = static_cast<double>(total.join_candidates);
  double stored = 0;
  for (NodeId node = 0; node < engine.num_nodes(); ++node) {
    for (const Table* table : engine.node(node).AllTables()) {
      stored += static_cast<double>(table->size());
    }
  }
  x["core.useful_frac"] =
      Ratio(stored, static_cast<double>(total.derivations));
  double messages = static_cast<double>(net.total_messages());
  double retransmits = static_cast<double>(net.retransmits());
  x["net.messages"] = messages;
  x["net.deliveries"] = static_cast<double>(total.deliveries);
  x["net.retransmits"] = retransmits;
  x["net.acks"] = static_cast<double>(net.acks_received());
  x["net.fault_losses"] =
      static_cast<double>(reg.CounterTotal("faults.losses"));
  x["net.dup_deduped"] = static_cast<double>(net.duplicates_deduped());
  x["net.links_dead"] = static_cast<double>(net.links_dead());
  x["net.retransmit_overhead"] = Ratio(retransmits, messages);
  x["adversary.rejections"] = static_cast<double>(
      total.auth_failures + total.replays_rejected + total.retracts_rejected +
      total.prov_responses_rejected + total.prov_frames_rejected);
  // The archive's page counters count file I/O only: an in-memory archive
  // leaves them unmeasured.
  if (!in.options.archive_dir.empty()) {
    x["store.archive_page_writes"] =
        static_cast<double>(reg.CounterTotal("store.archive_page_writes"));
    x["store.archive_page_reads"] =
        static_cast<double>(reg.CounterTotal("store.archive_page_reads"));
  }
  x["apps.suboptimal_routes"] = static_cast<double>(ep.suboptimal);
  x["apps.invalid_routes"] = static_cast<double>(ep.invalid_checks);
  if (!ep.traced) return;

  const obs::Profiler& prof = engine.profiler();
  std::map<std::string, double>& l = ep.layer;
  l["crypto.sign_ms"] = PhaseMs(prof, obs::Phase::kSign);
  l["crypto.verify_ms"] = PhaseMs(prof, obs::Phase::kVerify);
  l["crypto.sign_us"] = Ratio(l["crypto.sign_ms"] * 1e3, signs);
  l["crypto.verify_us"] = Ratio(l["crypto.verify_ms"] * 1e3, verifies);
  l["provenance.annotations_peak_mb"] =
      PeakMb(obs::MemSubsystem::kProvAnnotations);
  l["bdd.nodes_peak_mb"] = PeakMb(obs::MemSubsystem::kBddNodes);
  l["core.derivations_per_s"] =
      Ratio(static_cast<double>(ep.run.derivations), ep.fixpoint_s);
  l["core.events_ms"] = PhaseMs(prof, obs::Phase::kEvents);
  l["core.table_rows_peak_mb"] = PeakMb(obs::MemSubsystem::kTableRows);
  l["core.table_indexes_peak_mb"] = PeakMb(obs::MemSubsystem::kTableIndexes);
  l["core.parallel_compute_ms"] = PhaseMs(prof, obs::Phase::kParallelCompute);
  l["core.commit_replay_ms"] = PhaseMs(prof, obs::Phase::kCommitReplay);
  l["core.commit_serial_fraction"] = prof.CommitSerialFraction();
  double lane_min = 0.0;
  for (size_t lane = 0; lane < prof.num_lanes(); ++lane) {
    double util = prof.LaneUtilization(lane);
    lane_min = lane == 0 ? util : std::min(lane_min, util);
  }
  l["core.lane_util_min"] = lane_min;
  l["net.delivery_ms"] = PhaseMs(prof, obs::Phase::kDelivery);
  l["net.queues_peak_mb"] = PeakMb(obs::MemSubsystem::kNetworkQueues);
  l["store.archive_pages_peak_mb"] = PeakMb(obs::MemSubsystem::kArchivePages);
  if (w.kind == Kind::kForensic) {
    double queries = static_cast<double>(w.ops);
    l["query.serve_ms"] = PhaseMs(prof, obs::Phase::kQueryServe) / queries;
  }
  if (!in.script.events.empty()) {
    double updates = static_cast<double>(in.script.events.size());
    l["dynamics.retract_ms"] =
        PhaseMs(prof, obs::Phase::kRetractions) / updates;
    l["dynamics.rederive_ms"] = PhaseMs(prof, obs::Phase::kRederive) / updates;
  }
}

// Engine::Create + InsertLinkFacts: the benchmark's set-up.
Result<std::unique_ptr<Engine>> SetUp(const Workload& w, const Instance& in,
                                      SpanLog& log, uint64_t trace,
                                      uint64_t parent, double* seconds) {
  Span create(log, "engine.create", trace, parent);
  PROVNET_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                           Engine::Create(in.topo, *w.program, in.options));
  *seconds = create.Finish();
  Span links(log, "engine.insert_links", trace, parent);
  PROVNET_RETURN_IF_ERROR(engine->InsertLinkFacts());
  *seconds += links.Finish();
  return engine;
}

// More set-up samples than episodes give: throwaway set-ups of `in` after
// each episode, for a tenth of a second (at least one, at most 50), so that
// the median follows the host over the whole run.
void SampleSetUps(const Instance& in, const Workload& w, SpanLog& log,
                  std::vector<double>& setups) {
  const double start = NowSeconds();
  for (size_t i = 0; i < 50 && (i == 0 || NowSeconds() - start < 0.1); ++i) {
    double s = 0.0;
    if (!SetUp(w, in, log, log.NewTrace(), 0, &s).ok()) return;
    setups.push_back(s);
  }
}

Episode RunEpisode(const Workload& w, size_t instance, SpanLog& log,
                   bool traced) {
  const Instance& in = w.instances[instance];
  Episode ep;
  ep.instance = instance;
  ep.traced = traced;
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  if (traced) {
    mem.Reset();
    mem.Enable();
  }
  uint64_t trace = log.NewTrace();
  Result<std::unique_ptr<Engine>> engine = [&] {
    Span setup(log, "setup", trace);
    if (traced) {
      Span compile(log, "datalog.compile", trace, setup.id());
      Status compiled = CompileOnly(*w.program);
      ep.layer["datalog.compile_ms"] = compile.Finish() * 1e3;
      if (!compiled.ok()) ep.Fail("compile: " + compiled.ToString());
      // The engine derives every principal's RSA key pair at Create
      // whenever says are on, HMAC included; timed here on a fresh store.
      if (in.options.authenticate) {
        Span keygen(log, "crypto.keygen", trace, setup.id());
        KeyStore keys(in.options.seed, in.options.rsa_bits);
        for (NodeId node = 0; node < w.n; ++node) {
          Result<const RsaKeyPair*> pair =
              keys.KeyPairFor("n" + std::to_string(node));
          if (!pair.ok()) ep.Fail("keygen: " + pair.status().ToString());
        }
        ep.layer["crypto.keygen_ms"] = keygen.Finish() * 1e3;
      }
    }
    return SetUp(w, in, log, trace, setup.id(), &ep.setup_s);
  }();
  if (!engine.ok()) {
    ep.Fail("set-up: " + engine.status().ToString());
    return ep;
  }
  Engine& e = **engine;
  if (traced) e.profiler().Enable();
  {
    Span run(log, "engine.run", trace);
    Result<RunStats> stats = e.Run();
    ep.fixpoint_s = run.Finish();
    if (!stats.ok()) {
      ep.Fail("run: " + stats.status().ToString());
      return ep;
    }
    ep.run = stats.value();
    ep.at_fixpoint = true;
  }
  {
    Span check_span(log, "check", trace);
    RouteCheck check = CheckRoutes(e, in.topo);
    if (!check.ok) {
      ++ep.invalid_checks;
      ep.Fail("fixpoint: " + check.error);
    }
    ep.suboptimal = check.suboptimal;
  }
  if (w.kind == Kind::kForensic) RunQueries(e, w, in, log, ep);
  if (!in.script.events.empty()) RunUpdates(e, in, log, ep);
  CollectLayers(e, w, in, ep);
  engine->reset();
  if (traced) mem.Disable();
  return ep;
}

// --- Aggregation -----------------------------------------------------------

// Linear-interpolated quantile (q in [0, 1]) of `values`.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

template <typename F>
std::vector<double> Collect(const std::vector<Episode>& eps, F field) {
  std::vector<double> out;
  for (const Episode& ep : eps) out.push_back(field(ep));
  return out;
}

std::vector<double> Fixpoints(const std::vector<Episode>& eps) {
  return Collect(eps, [](const Episode& e) { return e.fixpoint_s; });
}

// Mean without the fastest and the slowest value (of three or more): one
// host hiccup cannot move it, and unlike a median it averages over every
// other topology, which is what varies most between seeds.
double TrimmedMean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t trim = values.size() >= 3 ? 1 : 0;
  double sum = 0.0;
  for (size_t i = trim; i + trim < values.size(); ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * trim);
}

double FixpointSeconds(const std::vector<Episode>& eps) {
  return TrimmedMean(Fixpoints(eps));
}

// Episodes cycle through the instances, so the first K episodes ran
// instances 0..K-1 once each.
size_t InstanceCount(const std::vector<Episode>& eps) {
  size_t k = 0;
  while (k < eps.size() && eps[k].instance == k) ++k;
  return k;
}

// Mean over the instances of a seed-determined value. An episode that
// failed before recording it (already counted as failed) adds 0.
double InstanceMean(const std::vector<Episode>& eps, const std::string& key) {
  size_t k = InstanceCount(eps);
  double sum = 0.0;
  for (size_t i = 0; i < k; ++i) {
    auto it = eps[i].exact.find(key);
    if (it != eps[i].exact.end()) sum += it->second;
  }
  return sum / static_cast<double>(k);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  bool exact = false;    // determined by the seed alone
  bool measured = true;  // false: nothing in this workload to measure (0)
};

// One overhead of the paper's Section 6 comparison at N=100.
struct PaperComparison {
  std::string metric;
  double measured_pct = 0.0;
  double paper_pct = 0.0;
  // The paper's shape: the overhead is positive and at most twice the
  // paper's (ROADMAP item 3's reproduction target).
  bool shape_holds() const {
    return measured_pct > 0.0 && measured_pct <= 2.0 * paper_pct;
  }
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<PaperComparison> paper;
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops_attempted = 0;  // of the above: queries / updates
  uint64_t ops_failed = 0;
  bool correct = true;
  size_t episodes = 0;
  size_t op_samples = 0;
  size_t setup_samples = 0;
  std::vector<double> fixpoints;  // every episode's, in run order

  void Add(const std::string& name, double value, const std::string& unit,
           bool exact = false, bool measured = true) {
    metrics.push_back(Metric{name, value, unit, exact, measured});
  }
  void Problem(const std::string& what) {
    correct = false;
    if (notes.size() < 20) notes.push_back(what);
  }
};

// Every episode must repeat the seed-determined values of the first
// episode of its instance; then counts its operations.
void Account(const std::vector<Episode>& eps, Report& report) {
  size_t k = InstanceCount(eps);
  for (size_t i = 0; i < eps.size(); ++i) {
    const Episode& ep = eps[i];
    report.attempted += 1 + ep.op_ms.size();  // the fixpoint, then the ops
    report.failed += ep.failed;
    report.ops_attempted += ep.op_ms.size();
    report.ops_failed += ep.op_failed;
    for (const std::string& e : ep.errors) report.Problem(e);
    const Episode& ref = eps[i % k];
    for (const auto& [key, value] : ref.exact) {
      auto it = ep.exact.find(key);
      if (it == ep.exact.end() || it->second != value) {
        report.Problem("episode " + std::to_string(i) + " changed " + key);
      }
    }
  }
  report.episodes += eps.size();
}

// Untraced run: the end-to-end metrics.
void EndToEnd(const Workload& w, const std::vector<Episode>& eps,
              std::vector<double> setups, Report& report) {
  size_t k = InstanceCount(eps);
  std::vector<double> ops;
  size_t instance_ops = 0;
  for (size_t i = 0; i < eps.size(); ++i) {
    ops.insert(ops.end(), eps[i].op_ms.begin(), eps[i].op_ms.end());
    if (i < k) instance_ops += eps[i].op_ms.size();
  }
  for (const Episode& ep : eps) setups.push_back(ep.setup_s);
  report.op_samples = ops.size();
  report.setup_samples = setups.size();
  report.fixpoints = Fixpoints(eps);
  double fixpoint_s = TrimmedMean(report.fixpoints);
  double wire_mb = InstanceMean(eps, "wire_mb");
  double suboptimal = 0;
  for (size_t i = 0; i < k; ++i) suboptimal += eps[i].suboptimal;
  report.Add("setup_s", Median(setups), "s");
  report.Add("fixpoint_s", fixpoint_s, "s");
  report.Add("wire_mb", wire_mb, "MB", true);
  report.Add("converge_vt_s", InstanceMean(eps, "converge_vt_s"), "virtual_s",
             true);
  report.Add("peak_rss_mb", PeakRssMb(), "MB");
  report.Add("suboptimal_routes", suboptimal, "count", true);
  double op_kb = Ratio(InstanceMean(eps, "op_bytes") * k / 1e3,
                       static_cast<double>(instance_ops));
  if (w.ops == 0) {
    // The workload's operation is the cold fixpoint itself.
    report.Add("op_ms_p50", fixpoint_s * 1e3, "ms");
    report.Add("op_kb", wire_mb * 1e3, "KB", true);
    return;
  }
  if (w.kind == Kind::kForensic) {
    report.Add("query_ms_p50", Quantile(ops, 0.50), "ms");
    report.Add("query_ms_p99", Quantile(ops, 0.99), "ms");
    report.Add("query_kb", op_kb, "KB", true);
  } else {
    report.Add("update_ms_p50", Quantile(ops, 0.50), "ms");
    report.Add("update_ms_p90", Quantile(ops, 0.90), "ms");
    report.Add("update_kb", op_kb, "KB", true);
  }
  report.Add("op_ms_p50", Quantile(ops, 0.50), "ms");
  report.Add("op_kb", op_kb, "KB", true);
}

double OverheadPct(double variant, double baseline) {
  return baseline > 0.0 ? 100.0 * (variant / baseline - 1.0) : 0.0;
}

// Traced run: per-layer metrics from the traced episodes, tracing overhead
// from the untraced episodes run alongside them, and (fig3-sendlogprov) the
// paper comparison from the NDLog and SeNDLog episodes.
void PerLayer(const Workload& w, const std::vector<Episode>& traced,
              const std::vector<Episode>& untraced,
              const std::vector<Episode>& ndlog,
              const std::vector<Episode>& sendlog, Report& report) {
  static const std::map<std::string, std::string> kUnits = {
      {"datalog.compile_ms", "ms"},
      {"crypto.keygen_ms", "ms"},
      {"crypto.signs", "count"},
      {"crypto.verifies", "count"},
      {"crypto.sign_ms", "ms"},
      {"crypto.verify_ms", "ms"},
      {"crypto.sign_us", "us"},
      {"crypto.verify_us", "us"},
      {"crypto.auth_mb", "MB"},
      {"provenance.mb", "MB"},
      {"provenance.annotations_peak_mb", "MB"},
      {"bdd.nodes_peak_mb", "MB"},
      {"core.events", "count"},
      {"core.derivations", "count"},
      {"core.join_candidates", "count"},
      {"core.derivations_per_s", "1/s"},
      {"core.useful_frac", "ratio"},
      {"core.events_ms", "ms"},
      {"core.table_rows_peak_mb", "MB"},
      {"core.table_indexes_peak_mb", "MB"},
      {"core.parallel_compute_ms", "ms"},
      {"core.commit_replay_ms", "ms"},
      {"core.commit_serial_fraction", "ratio"},
      {"core.lane_util_min", "ratio"},
      {"net.messages", "count"},
      {"net.deliveries", "count"},
      {"net.delivery_ms", "ms"},
      {"net.retransmits", "count"},
      {"net.acks", "count"},
      {"net.fault_losses", "count"},
      {"net.dup_deduped", "count"},
      {"net.links_dead", "count"},
      {"net.retransmit_overhead", "ratio"},
      {"net.queues_peak_mb", "MB"},
      {"adversary.rejections", "count"},
      {"query.messages_per_query", "count"},
      {"query.records_per_query", "count"},
      {"query.offline_hits_per_query", "count"},
      {"query.serve_ms", "ms"},
      {"query.complete_frac", "ratio"},
      {"store.archive_page_writes", "count"},
      {"store.archive_page_reads", "count"},
      {"store.archive_pages_peak_mb", "MB"},
      {"dynamics.retractions_per_update", "count"},
      {"dynamics.rederivations_per_update", "count"},
      {"dynamics.retract_ms", "ms"},
      {"dynamics.rederive_ms", "ms"},
      {"dynamics.restored_frac", "ratio"},
      {"apps.suboptimal_routes", "count"},
      {"apps.invalid_routes", "count"},
  };
  // A metric no episode recorded (per-query or per-update values without
  // queries or updates, key generation without says, page counters of an
  // in-memory archive) reads 0, flagged as not measured.
  for (const auto& [name, unit] : kUnits) {
    const Episode& first = traced.front();
    if (first.exact.count(name) > 0) {
      report.Add(name, InstanceMean(traced, name), unit, true);
    } else if (first.layer.count(name) > 0) {
      report.Add(name, Median(Collect(traced, [&name](const Episode& e) {
                   return e.layer.at(name);
                 })),
                 unit);
    } else {
      report.Add(name, 0.0, unit, true, false);
    }
  }
  report.Add("obs.traced_overhead_pct",
             OverheadPct(FixpointSeconds(traced), FixpointSeconds(untraced)),
             "%");
  double auth_time = 0, auth_bytes = 0, prov_time = 0, prov_bytes = 0;
  if (w.kind == Kind::kFig3) {
    double nd = InstanceMean(ndlog, "wire_mb");
    double se = InstanceMean(sendlog, "wire_mb");
    double pr = InstanceMean(untraced, "wire_mb");
    auth_time = OverheadPct(FixpointSeconds(sendlog), FixpointSeconds(ndlog));
    auth_bytes = OverheadPct(se, nd);
    prov_time =
        OverheadPct(FixpointSeconds(untraced), FixpointSeconds(sendlog));
    prov_bytes = OverheadPct(pr, se);
    report.paper = {{"crypto.auth_overhead_time_pct", auth_time, 44.0},
                    {"crypto.auth_overhead_bytes_pct", auth_bytes, 17.0},
                    {"provenance.overhead_time_pct", prov_time, 6.0},
                    {"provenance.overhead_bytes_pct", prov_bytes, 10.0}};
  }
  // Only fig3-sendlogprov runs the NDLog and SeNDLog comparison.
  bool fig3 = w.kind == Kind::kFig3;
  report.Add("crypto.auth_overhead_time_pct", auth_time, "%", false, fig3);
  report.Add("crypto.auth_overhead_bytes_pct", auth_bytes, "%", true, fig3);
  report.Add("provenance.overhead_time_pct", prov_time, "%", false, fig3);
  report.Add("provenance.overhead_bytes_pct", prov_bytes, "%", true, fig3);
}

// --- Output ----------------------------------------------------------------

bool WriteSpans(const std::string& path, const SpanLog& log) {
  obs::JsonWriter out;
  out.BeginArray();
  for (const SpanRecord& s : log.spans()) {
    out.BeginObject()
        .Field("name", s.name)
        .Field("trace", s.trace)
        .Field("id", s.id)
        .Field("parent", s.parent)
        .Field("start_ns", s.start_ns)
        .Field("end_ns", s.end_ns)
        .EndObject();
  }
  out.EndArray();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string body = out.Take() + "\n";
  bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

std::string ReportJson(const Workload& w, uint64_t seed, bool trace,
                       const std::vector<std::string>& env_cleared,
                       const Report& report) {
  const Instance& in = w.instances.front();
  obs::JsonWriter out;
  out.BeginObject()
      .Field("workload", w.name)
      .Field("seed", seed)
      .Field("trace", trace)
      .Field("correct", report.correct)
      .Field("attempted", report.attempted)
      .Field("failed", report.failed)
      .Field("fixpoints_attempted", report.attempted - report.ops_attempted)
      .Field("fixpoints_failed", report.failed - report.ops_failed)
      .Field("ops_attempted", report.ops_attempted)
      .Field("ops_failed", report.ops_failed);
  out.Key("metrics").BeginObject();
  for (const Metric& m : report.metrics) {
    out.Key(m.name)
        .BeginObject()
        .Field("value", m.value, "%.17g")
        .Field("unit", m.unit)
        .Field("exact", m.exact)
        .Field("measured", m.measured)
        .EndObject();
  }
  out.EndObject();
  out.Key("paper").BeginArray();
  for (const PaperComparison& p : report.paper) {
    out.BeginObject()
        .Field("metric", p.metric)
        .Field("measured_pct", p.measured_pct, "%.4g")
        .Field("paper_pct", p.paper_pct, "%.4g")
        .Field("shape_holds", p.shape_holds())
        .EndObject();
  }
  out.EndArray();
  out.Key("fixpoint_s_episodes").BeginArray();
  for (double s : report.fixpoints) out.Value(s, "%.6g");
  out.EndArray();
  out.Key("env")
      .BeginObject()
      .Field("nodes", uint64_t{w.n})
      .Field("instances", uint64_t{w.instances.size()})
      .Field("lanes", uint64_t{in.options.threads})
      .Field("transport_armed",
             !in.options.fault_plan.Empty() || in.options.reliable_transport)
      .Field("nproc", uint64_t{Nproc()})
      .Field("compiler", std::string("g++ ") + __VERSION__)
      .Field("build_flags", PERFBENCH_BUILD_FLAGS)
      .Field("episodes", uint64_t{report.episodes})
      .Field("op_samples", uint64_t{report.op_samples})
      .Field("setup_samples", uint64_t{report.setup_samples});
  out.Key("env_cleared").BeginArray();
  for (const std::string& e : env_cleared) out.Value(e);
  out.EndArray();
  out.EndObject();
  out.Key("notes").BeginArray();
  for (const std::string& n : report.notes) out.Value(n);
  out.EndArray();
  out.EndObject();
  return out.Take();
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_path;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (workload_name.empty() || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n");
    return 2;
  }
  // The engine reads both variables when its options leave them at their
  // defaults (an explicit threads = 1 is indistinguishable from the
  // default); CI exports them. Workloads set lanes and faults explicitly.
  std::vector<std::string> env_cleared;
  for (const char* var : {"PROVNET_THREADS", "PROVNET_FAULT_PLAN"}) {
    if (const char* v = std::getenv(var)) {
      env_cleared.push_back(std::string(var) + "=" + v);
      unsetenv(var);
    }
  }
  Result<Workload> made = MakeWorkload(workload_name, seed);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload& w = made.value();

  // Only traced episodes keep their spans.
  SpanLog kept(true);
  SpanLog dropped(false);
  Report report;
  std::vector<Episode> traced, untraced, ndlog, sendlog;
  std::vector<double> setups;
  const double start = NowSeconds();
  Workload ndlog_w = AsVariant(w, Variant::kNdlog);
  Workload sendlog_w = AsVariant(w, Variant::kSendlog);
  const size_t k = w.instances.size();
  for (size_t round = 0; round < k || NowSeconds() - start < seconds;
       ++round) {
    size_t i = round % k;
    if (trace == 1 && w.kind == Kind::kFig3) {
      ndlog.push_back(RunEpisode(ndlog_w, i, dropped, false));
      sendlog.push_back(RunEpisode(sendlog_w, i, dropped, false));
    }
    untraced.push_back(RunEpisode(w, i, dropped, false));
    if (trace == 0) SampleSetUps(w.instances[i], w, dropped, setups);
    if (trace == 1) traced.push_back(RunEpisode(w, i, kept, true));
    // An episode that never reached its fixpoint has no metrics to give.
    if (!untraced.back().at_fixpoint ||
        (trace == 1 && !traced.back().at_fixpoint)) {
      report.Problem("episode " + std::to_string(round) +
                     " did not reach a fixpoint");
      break;
    }
  }

  for (const std::vector<Episode>* eps :
       {&untraced, &traced, &ndlog, &sendlog}) {
    Account(*eps, report);
  }
  bool complete =
      untraced.size() >= k && (trace == 0 || traced.size() >= k);
  if (complete) {
    if (trace == 1) {
      PerLayer(w, traced, untraced, ndlog, sendlog, report);
    } else {
      EndToEnd(w, untraced, std::move(setups), report);
    }
    if (InstanceMean(untraced, "adversary.rejections") != 0.0) {
      report.Problem("adversary rejections in an honest workload");
    }
  }
  if (report.failed > 0) report.correct = false;
  if (!spans_path.empty() && !WriteSpans(spans_path, kept)) {
    report.Problem("cannot write spans to " + spans_path);
  }
  std::printf("%s\n",
              ReportJson(w, seed, trace == 1, env_cleared, report).c_str());
  return complete ? 0 : 1;
}

}  // namespace
}  // namespace provnet::perfbench

int main(int argc, char** argv) {
  return provnet::perfbench::Main(argc, argv);
}
