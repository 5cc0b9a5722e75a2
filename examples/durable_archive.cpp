// Durable provenance (ISSUE 9): hash-consed derivation arena + paged
// on-disk archive with crash recovery.
//
// Scenario: a 24-node network runs Best-Path with full provenance. Two
// durability mechanisms are on display:
//   * the derivation arena interns every derivation node by content
//     digest, so shared sub-proofs are stored (and shipped) once —
//     store.interned_hits counts dedup events, where one hit can stand
//     for a whole already-owned subtree (the arena stops at the root);
//   * each node appends its provenance records to a paged on-disk archive.
//     After a "crash" (the first engine is destroyed), a fresh engine over
//     the same directory replays the log and answers the same distributed
//     provenance query byte-for-byte — without re-running the protocol.
//
// Build: cmake --build build && ./build/durable_archive
// Exits 1 unless the restarted engine's proof is byte-identical.

#include <cstdio>
#include <filesystem>

#include "apps/programs.h"
#include "core/engine.h"
#include "query/provquery.h"

using namespace provnet;

namespace {

uint64_t CounterValue(const Engine& engine, const char* name) {
  const obs::Counter* c = engine.metrics().FindCounter(name);
  return c != nullptr ? c->value : 0;
}

}  // namespace

int main() {
  const std::string dir = "/tmp/provnet_durable_archive_demo";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // fresh demo directory

  EngineOptions opts;
  opts.prov_mode = ProvMode::kFull;
  opts.record_offline = true;   // keep per-node archives...
  opts.archive_dir = dir;       // ...and put them on disk

  Rng rng(20080407);
  Topology topo = Topology::RingPlusRandom(24, 3, rng);

  Tuple suspect;
  Bytes before;  // canonical proof-DAG bytes recorded pre-"crash"
  {
    auto engine_or = Engine::Create(topo, BestPathNdlogProgram(), opts);
    if (!engine_or.ok()) {
      std::printf("engine creation failed: %s\n",
                  engine_or.status().ToString().c_str());
      return 1;
    }
    std::unique_ptr<Engine> engine = std::move(engine_or).value();
    if (!engine->InsertLinkFacts().ok()) return 1;
    auto stats = engine->Run();
    if (!stats.ok()) {
      std::printf("run failed: %s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::printf("run: %s\n", stats.value().ToString().c_str());

    uint64_t nodes = CounterValue(*engine, "store.interned_nodes");
    uint64_t hits = CounterValue(*engine, "store.interned_hits");
    std::printf("arena: %llu unique derivation nodes, %llu intern hits "
                "(%.1fx sharing)\n",
                static_cast<unsigned long long>(nodes),
                static_cast<unsigned long long>(hits),
                nodes != 0 ? static_cast<double>(nodes + hits) / nodes : 0.0);

    uint64_t disk = 0;
    for (NodeId n = 0; n < engine->num_nodes(); ++n) {
      disk += engine->node(n).offline_store().DiskBytes();
    }
    std::printf("archive: %llu pages written, "
                "%.1f KiB on disk across %zu node logs\n\n",
                static_cast<unsigned long long>(
                    CounterValue(*engine, "store.archive_page_writes")),
                disk / 1024.0, engine->num_nodes());

    // Pick the longest route at node 0 and record its proof DAG.
    size_t longest = 0;
    for (const Tuple& t : engine->TuplesAt(0, "bestPath")) {
      if (t.arg(2).AsList().size() > longest) {
        longest = t.arg(2).AsList().size();
        suspect = t;
      }
    }
    auto q = ProvQueryBuilder(*engine)
                 .At(0)
                 .Of(suspect)
                 .WithScope(QueryScope::kDistributed)
                 .Run();
    if (!q.ok()) {
      std::printf("pre-crash query failed: %s\n",
                  q.status().ToString().c_str());
      return 1;
    }
    before = q.value().dag.CanonicalBytes();
    std::printf("pre-crash proof of %s: %zu DAG nodes, %zu canonical bytes\n",
                suspect.ToString().c_str(), q.value().dag.nodes.size(),
                before.size());
  }  // engine destroyed: the "crash" (archives were flushed by Run)

  // Recovery: a fresh engine over the same directory. No facts are inserted
  // and the protocol never runs — Init replays the page logs, and the
  // distributed query is answered entirely from the offline archives.
  auto engine_or = Engine::Create(topo, BestPathNdlogProgram(), opts);
  if (!engine_or.ok()) return 1;
  std::unique_ptr<Engine> engine = std::move(engine_or).value();
  size_t recovered = 0;
  for (NodeId n = 0; n < engine->num_nodes(); ++n) {
    recovered += engine->node(n).offline_store().size();
  }
  std::printf("\nrestart: replayed %zu records from %s\n", recovered,
              dir.c_str());

  auto q = ProvQueryBuilder(*engine)
               .At(0)
               .Of(suspect)
               .WithScope(QueryScope::kDistributed)
               .Run();
  if (!q.ok()) {
    std::printf("post-crash query failed: %s\n", q.status().ToString().c_str());
    return 1;
  }
  const QueryResult& r = q.value();
  Bytes after = r.dag.CanonicalBytes();
  std::printf("post-crash proof: %zu DAG nodes, %zu canonical bytes, "
              "%zu offline-archive hits\n",
              r.dag.nodes.size(), after.size(), r.stats.offline_hits);
  if (after == before) {
    std::printf("proof DAGs are byte-identical across the restart\n");
  } else {
    std::printf("MISMATCH: recovered proof differs from pre-crash proof\n");
    return 1;
  }
  return 0;
}
