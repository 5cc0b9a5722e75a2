// ProvQuery benchmark: the Section 4.1 and 5 provenance trade-offs,
// measured per query across network sizes.
//
// A Best-Path deployment (SeNDlog, HMAC says) answers on-demand bestPath
// provenance queries. Five modes answer three questions:
//
//   online    pointer provenance, records in the online stores (live soft
//             state) — the steady-state forensic configuration;
//   offline   archive-only answering: every hop of the walk falls back to
//             the offline archive (forensics over aged-out state);
//   reactive  recording enabled only after an anomaly (Section 5): the
//             pre-anomaly portion of the proof is unreconstructible —
//             proactive against reactive recording;
//   full      local provenance (ProvMode::kFull): every shipped tuple
//             carries its derivation tree, and queries (QueryScope::kAuto)
//             read the stored tree without a message — local against
//             distributed provenance;
//   sampled   pointer provenance recording 1 in `sample_k` derivations —
//             sampling against completeness.
//
// Reported per (n, mode): queries answered, mean/max query latency, mean
// messages, bytes and records per query, the fraction of proofs with no
// missing leaves, and the fixpoint's cost — its wire bytes, the provenance
// bytes among them, and the online records it stored before any anomaly,
// in records and in the bytes the online stores hold.
// Writes BENCH_provquery.json (CI uploads it per PR) and exits 1 unless
// each mode has its expected shape (see CheckShapes).
//
// Usage:
//   bench_provquery [--quick] [--out PATH]
//
//   --quick      n in {10, 20}, 10 queries each (CI smoke)
//   --out PATH   JSON output path (default BENCH_provquery.json)
//
// Environment knobs:
//   PROVNET_PQ_QUERIES  queries per configuration (default 25)
//   PROVNET_PQ_SEED     topology seed (default 20080408)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "apps/programs.h"
#include "core/engine.h"
#include "net/topology.h"
#include "obs/export.h"
#include "query/provquery.h"

using namespace provnet;

namespace {

const char* const kModes[] = {"online", "offline", "reactive", "full",
                              "sampled"};
constexpr uint32_t kSampleK = 4;  // the sampled mode's 1-in-k rate

struct Config {
  std::vector<size_t> node_counts = {10, 20, 40};
  size_t queries = 25;
  uint64_t seed = 20080408;
  std::string out_path = "BENCH_provquery.json";
};

struct Point {
  size_t n = 0;
  std::string mode;
  uint32_t sample_k = 1;
  size_t queries = 0;
  double mean_latency_s = 0.0;
  double max_latency_s = 0.0;
  double mean_messages = 0.0;
  double mean_bytes = 0.0;
  double mean_records = 0.0;
  double complete_fraction = 0.0;  // proofs with no missing leaves
  uint64_t run_bytes = 0;          // fixpoint traffic (the "cheap shipping")
  uint64_t prov_bytes = 0;         // provenance shipped within run_bytes
  uint64_t online_records = 0;     // stored by the fixpoint, pre-anomaly
  uint64_t online_bytes = 0;       // what those records occupy
};

Result<Point> RunMode(const Config& cfg, size_t n, const std::string& mode) {
  Rng rng(cfg.seed + n);
  Topology topo = Topology::RingPlusRandom(n, 3, rng);

  EngineOptions opts;
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;  // isolate provenance costs from RSA
  opts.prov_mode = mode == "full" ? ProvMode::kFull : ProvMode::kPointers;
  if (mode == "offline") {
    // Archive-only answering: record to both stores during the run, then
    // clear the online stores before querying (pointer mode always records
    // online, so "aged out" is simulated by emptying them).
    opts.record_offline = true;
  } else if (mode == "reactive") {
    opts.recording_enabled = false;
  } else if (mode == "sampled") {
    opts.sample_k = kSampleK;
  }

  PROVNET_ASSIGN_OR_RETURN(
      std::unique_ptr<Engine> engine,
      Engine::Create(topo, BestPathSendlogProgram(), opts));
  PROVNET_RETURN_IF_ERROR(engine->InsertLinkFacts());
  PROVNET_ASSIGN_OR_RETURN(RunStats run_stats, engine->Run());

  Point point;
  point.n = n;
  point.mode = mode;
  point.sample_k = opts.sample_k;
  point.run_bytes = run_stats.bytes;
  point.prov_bytes = run_stats.prov_bytes;
  for (NodeId node = 0; node < engine->num_nodes(); ++node) {
    point.online_records += engine->node(node).online_store().size();
    point.online_bytes += engine->node(node).online_store().bytes();
  }

  if (mode == "offline") {
    // Every online record is gone; each hop of every walk must fall back
    // to the archive.
    for (NodeId node = 0; node < engine->num_nodes(); ++node) {
      engine->node(node).online_store().Clear();
    }
  }
  if (mode == "reactive") {
    // The anomaly: recording switches on, and only post-anomaly derivations
    // leave records. Re-derive some state by touching one link per node.
    engine->SetRecordingEnabled(true);
    for (const TopoEdge& e : topo.edges) {
      if (e.from % 3 == 0) {
        Tuple link("link", {Value::Address(e.from), Value::Address(e.to),
                            Value::Int(e.cost)});
        PROVNET_RETURN_IF_ERROR(engine->DeleteFact(e.from, link));
        PROVNET_RETURN_IF_ERROR(engine->InsertFact(e.from, link));
      }
    }
    PROVNET_RETURN_IF_ERROR(engine->Run().status());
  }

  // Local provenance answers from the stored tree; every other mode walks
  // the pointers.
  const QueryScope scope =
      mode == "full" ? QueryScope::kAuto : QueryScope::kDistributed;
  double latency_sum = 0.0;
  double msg_sum = 0.0, byte_sum = 0.0, record_sum = 0.0;
  size_t complete = 0;
  for (NodeId node = 0; node < engine->num_nodes(); ++node) {
    for (const Tuple& t : engine->TuplesAt(node, "bestPath")) {
      if (point.queries >= cfg.queries) break;
      Result<QueryResult> query =
          ProvQueryBuilder(*engine).At(node).Of(t).WithScope(scope).Run();
      if (!query.ok()) continue;  // reactive/sampled: some proofs are gone
      const QueryResult& result = query.value();
      ++point.queries;
      latency_sum += result.stats.wall_seconds;
      point.max_latency_s =
          std::max(point.max_latency_s, result.stats.wall_seconds);
      msg_sum += static_cast<double>(result.stats.messages);
      byte_sum += static_cast<double>(result.stats.bytes);
      record_sum += static_cast<double>(result.stats.records);
      bool missing = false;
      for (const ProofNode& pn : result.dag.nodes) {
        if (pn.rule == kMissingRule) missing = true;
      }
      if (!missing) ++complete;
    }
  }
  if (point.queries > 0) {
    point.mean_latency_s = latency_sum / point.queries;
    point.mean_messages = msg_sum / point.queries;
    point.mean_bytes = byte_sum / point.queries;
    point.mean_records = record_sum / point.queries;
    point.complete_fraction =
        static_cast<double>(complete) / static_cast<double>(point.queries);
  }
  return point;
}

void WriteJson(const Config& cfg, const std::vector<Point>& points) {
  obs::JsonWriter w;
  w.BeginObject()
      .Field("bench", "provquery")
      .Field("workload", "bestpath-sendlog-hmac")
      .Field("outdegree", 3)
      .Field("seed", cfg.seed)
      .Field("queries_per_point", uint64_t{cfg.queries})
      .Field("hw_threads",
             uint64_t{std::max(1u, std::thread::hardware_concurrency())});
  w.Key("points").BeginArray();
  for (const Point& p : points) {
    w.BeginObject()
        .Field("n", uint64_t{p.n})
        .Field("mode", p.mode)
        .Field("sample_k", uint64_t{p.sample_k})
        .Field("queries", uint64_t{p.queries})
        .Field("mean_latency_s", p.mean_latency_s, "%.6f")
        .Field("max_latency_s", p.max_latency_s, "%.6f")
        .Field("mean_messages", p.mean_messages, "%.1f")
        .Field("mean_bytes", p.mean_bytes, "%.1f")
        .Field("mean_records", p.mean_records, "%.1f")
        .Field("complete_fraction", p.complete_fraction, "%.3f")
        .Field("run_bytes", p.run_bytes)
        .Field("prov_bytes", p.prov_bytes)
        .Field("online_records", p.online_records)
        .Field("online_bytes", p.online_bytes)
        .EndObject();
  }
  w.EndArray().EndObject();

  FILE* f = std::fopen(cfg.out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n",
                 cfg.out_path.c_str());
    return;
  }
  std::string body = w.Take() + "\n";
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", cfg.out_path.c_str());
}

// Each mode's expected shape; returns the number of violations (each one
// printed). `by_mode` holds one n's points.
int CheckShapes(size_t n, const std::map<std::string, Point>& by_mode) {
  int failures = 0;
  auto fail = [&](const char* what) {
    std::fprintf(stderr, "FAIL (n=%zu): %s\n", n, what);
    ++failures;
  };
  const Point& online = by_mode.at("online");
  const Point& full = by_mode.at("full");
  if (online.queries == 0 || online.complete_fraction < 1.0) {
    fail("online recording returned incomplete proofs");
  }
  for (const char* mode : {"online", "offline", "reactive", "sampled"}) {
    if (by_mode.at(mode).prov_bytes != 0) {
      fail("a pointer mode shipped provenance bytes");
    }
  }
  if (by_mode.at("reactive").online_records != 0) {
    fail("reactive stored records before the anomaly");
  }
  if (2 * by_mode.at("sampled").online_records > online.online_records) {
    fail("sampled kept more than half of online's records");
  }
  if (full.queries == 0 || full.mean_messages != 0.0 ||
      full.complete_fraction < 1.0) {
    fail("full did not answer every query locally and completely");
  }
  if (full.run_bytes <= online.run_bytes) {
    fail("full cost no more fixpoint bytes than online");
  }
  return failures;
}

// The three trade-offs as measured at one n.
void PrintShapes(size_t n, const std::map<std::string, Point>& by_mode) {
  const Point& online = by_mode.at("online");
  const Point& full = by_mode.at("full");
  const Point& reactive = by_mode.at("reactive");
  const Point& sampled = by_mode.at("sampled");
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  std::printf("n=%zu: full ships %llu provenance bytes (fixpoint %.2fx "
              "online's) and answers with %.1f messages; online pays %.1f "
              "messages per query\n",
              n, static_cast<unsigned long long>(full.prov_bytes),
              ratio(full.run_bytes, online.run_bytes), full.mean_messages,
              online.mean_messages);
  std::printf("      reactive stores %llu records before the anomaly, "
              "completes %.0f%% of proofs; sampled (k=%u) keeps %.0f%% of "
              "online's records, completes %.0f%%\n",
              static_cast<unsigned long long>(reactive.online_records),
              reactive.complete_fraction * 100.0, sampled.sample_k,
              100.0 * ratio(sampled.online_records, online.online_records),
              sampled.complete_fraction * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.node_counts = {10, 20};
      cfg.queries = 10;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      cfg.out_path = argv[++i];
    }
  }
  if (const char* v = std::getenv("PROVNET_PQ_QUERIES")) {
    cfg.queries = static_cast<size_t>(std::atoll(v));
  }
  if (const char* v = std::getenv("PROVNET_PQ_SEED")) {
    cfg.seed = static_cast<uint64_t>(std::atoll(v));
  }

  std::printf("bench_provquery: Best-Path (SeNDlog, HMAC says), %zu queries "
              "per point\n\n", cfg.queries);
  std::printf("%4s %-9s %8s %12s %10s %10s %9s %10s %10s %9s %12s\n", "n",
              "mode", "queries", "mean_lat_ms", "mean_msgs", "mean_bytes",
              "complete", "run_bytes", "prov_bytes", "records",
              "online_bytes");

  std::vector<Point> points;
  std::map<size_t, std::map<std::string, Point>> by_n;
  for (size_t n : cfg.node_counts) {
    for (const char* mode : kModes) {
      Result<Point> point = RunMode(cfg, n, mode);
      if (!point.ok()) {
        std::fprintf(stderr, "FAILED (%zu, %s): %s\n", n, mode,
                     point.status().ToString().c_str());
        return 1;
      }
      const Point& p = point.value();
      std::printf("%4zu %-9s %8zu %12.3f %10.1f %10.1f %8.0f%% %10llu "
                  "%10llu %9llu %12llu\n",
                  p.n, p.mode.c_str(), p.queries, p.mean_latency_s * 1e3,
                  p.mean_messages, p.mean_bytes, p.complete_fraction * 100.0,
                  static_cast<unsigned long long>(p.run_bytes),
                  static_cast<unsigned long long>(p.prov_bytes),
                  static_cast<unsigned long long>(p.online_records),
                  static_cast<unsigned long long>(p.online_bytes));
      points.push_back(p);
      by_n[n].emplace(mode, p);
    }
    std::printf("\n");
  }
  WriteJson(cfg, points);

  std::printf("\nmeasured shape:\n");
  int failures = 0;
  for (const auto& [n, by_mode] : by_n) {
    PrintShapes(n, by_mode);
    failures += CheckShapes(n, by_mode);
  }
  return failures == 0 ? 0 : 1;
}
