// archive_check: the CI durability tripwire for the on-disk provenance
// archive (ISSUE 9).
//
// Runs a full-provenance Best-Path fixpoint with every node archiving to a
// scratch directory, fingerprints the distributed proof DAG of *every*
// bestPath tuple at every node (ProofDag::CanonicalBytes), then destroys
// the engine — the crash — and restarts a fresh engine over the same
// directory. The restarted engine never inserts facts and never runs the
// protocol: every query is answered from the replayed page logs. Any proof
// whose canonical bytes differ from the pre-crash fingerprint fails the
// check with a nonzero exit.
//
// Usage:
//   archive_check [--nodes N] [--dir PATH] [--tear]
//
//   --nodes N   topology size (default 24)
//   --dir PATH  archive directory (default: fresh dir under /tmp, removed
//               on success)
//   --tear      after the crash, append a partial frame to every node log
//               (simulating a kill mid-append) before recovering

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "core/engine.h"
#include "net/topology.h"
#include "query/provquery.h"
#include "util/logging.h"

using namespace provnet;

namespace {

constexpr uint64_t kSeed = 20080407;

struct Fingerprint {
  NodeId at = 0;
  Tuple tuple;
  Bytes canonical;
};

Result<std::unique_ptr<Engine>> MakeEngine(const Topology& topo,
                                           const std::string& dir) {
  EngineOptions opts;
  opts.seed = kSeed;
  opts.prov_mode = ProvMode::kFull;
  opts.record_offline = true;
  opts.archive_dir = dir;
  return Engine::Create(topo, BestPathNdlogProgram(), opts);
}

Result<Bytes> QueryProof(Engine& engine, NodeId at, const Tuple& tuple) {
  PROVNET_ASSIGN_OR_RETURN(QueryResult r,
                           ProvQueryBuilder(engine)
                               .At(at)
                               .Of(tuple)
                               .WithScope(QueryScope::kDistributed)
                               .Run());
  return r.dag.CanonicalBytes();
}

}  // namespace

int main(int argc, char** argv) {
  size_t nodes = 24;
  std::string dir;
  bool tear = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--tear") == 0) {
      tear = true;
    } else {
      std::fprintf(stderr, "usage: %s [--nodes N] [--dir PATH] [--tear]\n",
                   argv[0]);
      return 2;
    }
  }
  bool scratch = dir.empty();
  if (scratch) {
    dir = (std::filesystem::temp_directory_path() /
           ("provnet_archive_check_" + std::to_string(::getpid())))
              .string();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  Rng rng(kSeed + nodes);
  Topology topo = Topology::RingPlusRandom(nodes, /*outdegree=*/3, rng);

  // Phase 1: run the protocol, archive everything, fingerprint every proof.
  std::vector<Fingerprint> proofs;
  {
    auto engine_or = MakeEngine(topo, dir);
    if (!engine_or.ok() || !engine_or.value()->InsertLinkFacts().ok()) {
      std::fprintf(stderr, "archive_check: engine setup failed\n");
      return 1;
    }
    std::unique_ptr<Engine> engine = std::move(engine_or).value();
    auto stats = engine->Run();
    if (!stats.ok()) {
      std::fprintf(stderr, "archive_check: run failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    for (NodeId at = 0; at < engine->num_nodes(); ++at) {
      for (const Tuple& t : engine->TuplesAt(at, "bestPath")) {
        auto bytes = QueryProof(*engine, at, t);
        if (!bytes.ok()) {
          std::fprintf(stderr, "archive_check: pre-crash query failed: %s\n",
                       bytes.status().ToString().c_str());
          return 1;
        }
        proofs.push_back({at, t, std::move(bytes).value()});
      }
    }
    uint64_t disk = 0;
    for (NodeId n = 0; n < engine->num_nodes(); ++n) {
      disk += engine->node(n).offline_store().DiskBytes();
    }
    std::printf("archive_check: %zu proofs fingerprinted, %.1f KiB archived "
                "across %zu node logs\n",
                proofs.size(), disk / 1024.0, engine->num_nodes());
  }  // crash

  if (tear) {
    size_t torn = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      std::FILE* f = std::fopen(entry.path().c_str(), "ab");
      if (f == nullptr) continue;
      const uint8_t garbage[7] = {0xAB, 0xCD, 0xEF, 0x01, 0x23, 0x45, 0x67};
      std::fwrite(garbage, 1, sizeof(garbage), f);
      std::fclose(f);
      ++torn;
    }
    std::printf("archive_check: tore the tail of %zu logs\n", torn);
  }

  // Phase 2: recover and re-verify every proof from the archives alone.
  auto engine_or = MakeEngine(topo, dir);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "archive_check: recovery failed: %s\n",
                 engine_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Engine> engine = std::move(engine_or).value();
  size_t recovered = 0;
  for (NodeId n = 0; n < engine->num_nodes(); ++n) {
    recovered += engine->node(n).offline_store().size();
  }
  std::printf("archive_check: replayed %zu records\n", recovered);

  size_t mismatches = 0;
  for (const Fingerprint& fp : proofs) {
    auto bytes = QueryProof(*engine, fp.at, fp.tuple);
    if (!bytes.ok()) {
      std::fprintf(stderr, "archive_check: post-crash query of %s@%u: %s\n",
                   fp.tuple.ToString().c_str(), unsigned(fp.at),
                   bytes.status().ToString().c_str());
      ++mismatches;
      continue;
    }
    if (bytes.value() != fp.canonical) {
      std::fprintf(stderr, "archive_check: MISMATCH for %s@%u\n",
                   fp.tuple.ToString().c_str(), unsigned(fp.at));
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "archive_check: FAIL — %zu of %zu proofs changed across the "
                 "restart\n",
                 mismatches, proofs.size());
    return 1;
  }
  std::printf("archive_check: OK — %zu proofs byte-identical across the "
              "restart%s\n",
              proofs.size(), tear ? " (torn tails recovered)" : "");
  if (scratch) std::filesystem::remove_all(dir, ec);
  return 0;
}
