// Fault-tolerant transport (ISSUE 10): deterministic fault injection,
// ack/retransmit recovery, crash-restart, and proof-preserving archives.
//
// Scenario: a 16-node sparse network computes reachability while the
// links misbehave — 3% uniform loss with duplication, a timed partition
// that splits two nodes off mid-run, and one node that fail-stop crashes
// and later restarts from its on-disk archive. The demo shows:
//   * the fixpoint under faults is byte-identical to the fault-free one
//     (loss is masked by the ack/retransmit layer, never absorbed);
//   * the convergence-time cost of the faults, read off the virtual
//     clock: the faulted run reaches quiescence later, and the gap IS
//     the price of retransmission backoff and crash recovery;
//   * a distributed provenance query after recovery returns the same
//     canonical proof bytes as the fault-free engine — recovery is
//     invisible to forensics.
//
// Build: cmake --build build && ./build/sparse_recovery

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

Result<std::unique_ptr<Engine>> RunReachable(const Topology& topo,
                                             EngineOptions opts) {
  PROVNET_ASSIGN_OR_RETURN(std::unique_ptr<Engine> engine,
                           Engine::Create(topo, ReachableSendlogProgram(),
                                          std::move(opts)));
  for (const TopoEdge& e : topo.edges) {
    PROVNET_RETURN_IF_ERROR(engine->InsertFact(
        e.from,
        Tuple("link", {Value::Address(e.from), Value::Address(e.to)})));
  }
  PROVNET_RETURN_IF_ERROR(engine->Run().status());
  return engine;
}

size_t CountTuples(Engine& engine, const char* pred) {
  size_t total = 0;
  for (NodeId n = 0; n < engine.num_nodes(); ++n) {
    total += engine.TuplesAt(n, pred).size();
  }
  return total;
}

}  // namespace

int main() {
  const std::string dir = "/tmp/provnet_sparse_recovery_demo";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);  // fresh demo directory

  Rng rng(20080515);
  Topology topo = Topology::RingPlusRandom(16, 2, rng);

  EngineOptions base;
  base.authenticate = true;
  base.says_level = SaysLevel::kHmac;
  base.prov_mode = ProvMode::kPointers;
  base.record_online = true;
  base.record_offline = true;

  // --- Fault-free baseline --------------------------------------------------
  // The plain lossless FIFO, transport unarmed: provenance records every
  // derivation the same way whether or not the transport is on.
  EngineOptions golden_opts = base;
  golden_opts.archive_dir = dir + "/golden";
  auto golden_or = RunReachable(topo, golden_opts);
  if (!golden_or.ok()) {
    std::printf("baseline failed: %s\n",
                golden_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Engine> golden = std::move(golden_or).value();
  const double golden_time = golden->network().now();
  const size_t golden_tuples = CountTuples(*golden, "reachable");
  std::printf("fault-free: %zu reachable tuples, converged at t=%.3fs\n",
              golden_tuples, golden_time);

  // --- The same run under a hostile link layer ------------------------------
  // 3% loss + 1% duplication everywhere, node 3 partitioned from node 4
  // between t=0.02 and t=0.2, and node 7 crashing at t=0.05 (losing all
  // in-memory state) then restarting at t=0.8 from its archive.
  FaultPlan plan;
  plan.seed = 7;
  LinkFaultSpec noisy;
  noisy.loss = 0.03;
  noisy.duplication = 0.01;
  plan.links.push_back(noisy);
  plan.partitions.push_back(PartitionSpec{0.02, 0.2, 3, 4, true});
  plan.crashes.push_back(CrashSpec{/*crash_at=*/0.05, /*restart_at=*/0.8,
                                   /*node=*/7});

  EngineOptions faulted_opts = base;
  faulted_opts.archive_dir = dir + "/faulted";
  faulted_opts.fault_plan = plan;
  auto faulted_or = RunReachable(topo, faulted_opts);
  if (!faulted_or.ok()) {
    std::printf("faulted run failed: %s\n",
                faulted_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Engine> faulted = std::move(faulted_or).value();
  const double faulted_time = faulted->network().now();
  const size_t faulted_tuples = CountTuples(*faulted, "reachable");

  std::printf("faulted:    %zu reachable tuples, converged at t=%.3fs\n",
              faulted_tuples, faulted_time);
  std::printf("convergence-time cost of the faults: +%.3fs (%.1fx)\n",
              faulted_time - golden_time,
              golden_time > 0 ? faulted_time / golden_time : 0.0);
  std::printf("transport:  %llu retransmits, %llu acks, %llu dups deduped\n",
              static_cast<unsigned long long>(
                  CounterValue(*faulted, "net.retransmits")),
              static_cast<unsigned long long>(
                  CounterValue(*faulted, "net.acks_received")),
              static_cast<unsigned long long>(
                  CounterValue(*faulted, "net.dup_deduped")));
  std::printf("faults:     %llu losses, %llu duplicates, %llu partition "
              "drops, %llu crash / %llu restart\n",
              static_cast<unsigned long long>(
                  CounterValue(*faulted, "faults.losses")),
              static_cast<unsigned long long>(
                  CounterValue(*faulted, "faults.duplicates")),
              static_cast<unsigned long long>(
                  CounterValue(*faulted, "faults.partition_drops")),
              static_cast<unsigned long long>(
                  CounterValue(*faulted, "faults.crashes")),
              static_cast<unsigned long long>(
                  CounterValue(*faulted, "faults.restarts")));

  // Faults were masked, not absorbed: same fixpoint, node by node.
  bool same = faulted_tuples == golden_tuples;
  for (NodeId n = 0; same && n < topo.num_nodes; ++n) {
    same = faulted->TuplesAt(n, "reachable") == golden->TuplesAt(n, "reachable");
  }
  std::printf("fixpoint identical to fault-free run: %s\n",
              same ? "yes" : "NO");
  if (!same) return 1;

  // --- Forensics after recovery ---------------------------------------------
  // Ask the crashed-and-recovered node for a distributed proof of one of
  // its own tuples; the canonical bytes must match the fault-free engine.
  std::vector<Tuple> at7 = faulted->TuplesAt(7, "reachable");
  if (at7.empty()) {
    std::printf("node 7 has no reachable tuples to prove\n");
    return 1;
  }
  const Tuple& probe = at7.front();
  auto got = ProvQueryBuilder(*faulted)
                 .At(7)
                 .Of(probe)
                 .WithScope(QueryScope::kDistributed)
                 .Run();
  auto want = ProvQueryBuilder(*golden)
                  .At(7)
                  .Of(probe)
                  .WithScope(QueryScope::kDistributed)
                  .Run();
  if (!got.ok() || !want.ok()) {
    std::printf("proof query failed: %s / %s\n",
                got.status().ToString().c_str(),
                want.status().ToString().c_str());
    return 1;
  }
  const bool proof_same = got.value().dag.CanonicalBytes() ==
                          want.value().dag.CanonicalBytes();
  std::printf("distributed proof of %s after crash recovery: %s\n",
              probe.ToString().c_str(),
              proof_same ? "byte-identical to fault-free proof" : "DIVERGED");
  std::printf("query stats: %s\n", got.value().stats.ToString().c_str());

  std::filesystem::remove_all(dir, ec);
  return proof_same ? 0 : 1;
}
