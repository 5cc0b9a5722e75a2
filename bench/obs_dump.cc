// obs_dump: run a seeded Best-Path deployment and dump the full metrics
// registry — the one-command window into what the engine actually did.
//
// The default workload (50-node ring+random topology, SeNDlog Best-Path
// with pointer provenance, authenticated HMAC says, a batch of distributed
// ProvQueries) exercises every instrumented layer: per-rule firing /
// candidate / derivation counters, per-link bytes split by message kind,
// verification rejection counters, and the ProvQuery latency histograms
// (virtual-time p50/p99). Output is a human-readable table on stdout;
// --json and --trace write the canonical snapshot and the trace JSONL that
// CI archives next to the BENCH reports.
//
// Usage:
//   obs_dump [--n N] [--queries Q] [--sample K] [--json PATH] [--trace PATH]
//            [--prof] [--trace-tree]
//
//   --n N        deployment size (default 50)
//   --queries Q  distributed ProvQueries to issue after fixpoint (default 10)
//   --sample K   trace sampling: keep 1 in K sampled events (default 8)
//   --json PATH  write obs::SnapshotJson of the registry to PATH
//   --trace PATH write the virtual-time trace stream (JSONL) to PATH
//   --prof       enable the wall-clock profiler + memory accounting and
//                append the phase/lane/memory profile to the output, the
//                Montgomery kernel's work counts, and the retransmission-
//                timer work when the transport is armed
//   --trace-tree record causal span ids and print the largest stitched
//                cross-node span tree (the distributed-walk view)
//
// Environment knobs:
//   PROVNET_OBS_SEED  topology seed (default 20080407)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "bignum/montgomery.h"
#include "core/engine.h"
#include "net/topology.h"
#include "obs/export.h"
#include "obs/mem.h"
#include "obs/trace.h"
#include "query/provquery.h"
#include "util/logging.h"

using namespace provnet;

namespace {

struct Config {
  size_t n = 50;
  size_t queries = 10;
  size_t sample_every = 8;
  uint64_t seed = 20080407;
  std::string json_path;
  std::string trace_path;
  bool prof = false;
  bool trace_tree = false;
};

bool WriteFile(const std::string& path, const std::string& body) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", path.c_str());
  return true;
}

// Stitches the ring's events into causal span trees and renders the
// largest one: events sharing a span id collapse into one span node (a
// wire message's send and deliver halves), children are spans whose
// parent_span matches, and roots are spans with no parent in the ring.
void PrintLargestTraceTree(const obs::Tracer& tracer) {
  std::vector<const obs::TraceEvent*> events = tracer.Events();

  // trace id -> span id -> that span's events (ring order).
  std::map<uint64_t, std::map<uint64_t, std::vector<const obs::TraceEvent*>>>
      traces;
  for (const obs::TraceEvent* ev : events) {
    if (ev->span_id == 0) continue;
    uint64_t trace = ev->trace_id != 0 ? ev->trace_id : ev->span_id;
    traces[trace][ev->span_id].push_back(ev);
  }
  if (traces.empty()) {
    std::printf("== trace tree ==\n(no causal spans recorded)\n");
    return;
  }

  // Prefer the largest trace rooted in a ProvQuery walk (the structural
  // events the flag exists to show); fall back to the largest trace of any
  // kind (sampled fixpoint traffic).
  auto has_query = [](const std::map<uint64_t,
                                     std::vector<const obs::TraceEvent*>>&
                          spans) {
    for (const auto& [span_id, evs] : spans) {
      for (const obs::TraceEvent* ev : evs) {
        if (ev->kind.rfind("provquery", 0) == 0) return true;
      }
    }
    return false;
  };
  const auto* largest = &*traces.begin();
  bool largest_is_query = has_query(largest->second);
  for (const auto& entry : traces) {
    bool is_query = has_query(entry.second);
    if ((is_query && !largest_is_query) ||
        (is_query == largest_is_query &&
         entry.second.size() > largest->second.size())) {
      largest = &entry;
      largest_is_query = is_query;
    }
  }
  const auto& spans = largest->second;

  std::map<uint64_t, std::vector<uint64_t>> children;
  std::vector<uint64_t> roots;
  for (const auto& [span_id, evs] : spans) {
    uint64_t parent = 0;
    for (const obs::TraceEvent* ev : evs) {
      if (ev->parent_span != 0) parent = ev->parent_span;
    }
    if (parent != 0 && spans.count(parent) != 0 && parent != span_id) {
      children[parent].push_back(span_id);
    } else {
      roots.push_back(span_id);
    }
  }

  std::set<uint32_t> nodes;
  for (const auto& [span_id, evs] : spans) {
    for (const obs::TraceEvent* ev : evs) nodes.insert(ev->node);
  }
  std::printf("== trace tree ==\ntrace %llu: %zu spans across %zu nodes\n",
              (unsigned long long)largest->first, spans.size(), nodes.size());

  std::function<void(uint64_t, int)> print_span = [&](uint64_t span_id,
                                                      int depth) {
    const std::vector<const obs::TraceEvent*>& evs = spans.at(span_id);
    std::string kinds;
    std::set<uint32_t> span_nodes;
    for (const obs::TraceEvent* ev : evs) {
      if (!kinds.empty()) kinds += '+';
      kinds += ev->kind;
      span_nodes.insert(ev->node);
    }
    std::string node_list;
    for (uint32_t node : span_nodes) {
      if (!node_list.empty()) node_list += ',';
      node_list += std::to_string(node);
    }
    std::printf("%*sspan %llu [node %s] %s t=%.6f\n", depth * 2, "",
                (unsigned long long)span_id, node_list.c_str(), kinds.c_str(),
                evs.front()->sim_time);
    auto it = children.find(span_id);
    if (it == children.end()) return;
    for (uint64_t child : it->second) print_span(child, depth + 1);
  };
  for (uint64_t root : roots) print_span(root, 1);
}

Status RunDump(const Config& cfg) {
  Rng rng(cfg.seed + cfg.n);
  Topology topo = Topology::RingPlusRandom(cfg.n, /*outdegree=*/3, rng);

  EngineOptions opts;
  opts.seed = cfg.seed;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = ProvMode::kPointers;  // distributed walks need records

  if (cfg.prof) obs::MemAccounting::Global().Enable();
  PROVNET_ASSIGN_OR_RETURN(
      std::unique_ptr<Engine> engine,
      Engine::Create(topo, BestPathSendlogProgram(), opts));
  // Tree mode records every event: sampled-out hops would otherwise break
  // parent links and shatter the tree into fragments.
  engine->tracer().Enable(/*capacity=*/16384,
                          cfg.trace_tree ? 1 : cfg.sample_every,
                          /*record_wall=*/false,
                          /*record_spans=*/cfg.trace_tree);
  if (cfg.prof) engine->profiler().Enable();

  PROVNET_RETURN_IF_ERROR(engine->InsertLinkFacts());
  PROVNET_RETURN_IF_ERROR(engine->Run().status());

  // A batch of distributed pointer walks so the provquery.* counters and
  // the latency histograms have real distributions in them.
  size_t issued = 0;
  for (NodeId node = 0; node < engine->num_nodes() && issued < cfg.queries;
       ++node) {
    for (const Tuple& t : engine->TuplesAt(node, "bestPath")) {
      if (issued >= cfg.queries) break;
      Result<QueryResult> query = ProvQueryBuilder(*engine)
                                      .At(node)
                                      .Of(t)
                                      .WithScope(QueryScope::kDistributed)
                                      .Run();
      PROVNET_RETURN_IF_ERROR(query.status());
      ++issued;
    }
  }

  std::string table = obs::SnapshotText(engine->metrics());
  std::fwrite(table.data(), 1, table.size(), stdout);

  if (cfg.prof) {
    std::string prof = obs::ProfileText(engine->profiler(),
                                        obs::MemAccounting::Global());
    std::fwrite(prof.data(), 1, prof.size(), stdout);
    const Network& net = engine->network();
    if (net.TransportEnabled()) {
      std::printf("== transport (armed) ==\n"
                  "timer_ops  %llu  (data frames %llu, retransmits %llu)\n",
                  (unsigned long long)net.timer_ops(),
                  (unsigned long long)net.total_messages(),
                  (unsigned long long)net.retransmits());
    }
    // Process totals: RSA key generation at Create plus any RSA says.
    const MontWork mont = MontWorkTotals();
    std::printf("== Montgomery kernel ==\n"
                "exps  %llu  products  %llu\n",
                (unsigned long long)mont.exps,
                (unsigned long long)mont.products);
  }
  if (cfg.trace_tree) PrintLargestTraceTree(engine->tracer());

  if (!cfg.json_path.empty()) {
    WriteFile(cfg.json_path, obs::SnapshotJson(engine->metrics()));
  }
  if (!cfg.trace_path.empty()) {
    WriteFile(cfg.trace_path, engine->tracer().ToJsonl());
  }
  return OkStatus();
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      cfg.n = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      cfg.queries = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--sample") == 0 && i + 1 < argc) {
      cfg.sample_every = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      cfg.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      cfg.trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--prof") == 0) {
      cfg.prof = true;
    } else if (std::strcmp(argv[i], "--trace-tree") == 0) {
      cfg.trace_tree = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--n N] [--queries Q] [--sample K] "
                   "[--json PATH] [--trace PATH] [--prof] [--trace-tree]\n",
                   argv[0]);
      return 2;
    }
  }
  if (const char* v = std::getenv("PROVNET_OBS_SEED")) {
    cfg.seed = static_cast<uint64_t>(std::atoll(v));
  }
  if (cfg.n < 2) cfg.n = 2;
  if (cfg.sample_every < 1) cfg.sample_every = 1;

  Status status = RunDump(cfg);
  if (!status.ok()) {
    std::fprintf(stderr, "obs_dump failed: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
