// Differential harness for the fault-healing invariance: a run whose faults
// all heal — loss, duplication, a timed partition, a crash and restart —
// ends where the fault-free run ends, record by record.
//
// Each case runs ReachableSendlogProgram with pointer provenance on seeded
// RingPlusRandom topologies, at one and at four threads, and compares it
// with an *unarmed* lossless run of the same topology:
//   * the fixpoint: every node's link, linkD and reachable tables;
//   * provenance: every node's multiset of online records, by content:
//     tuple, rule, location, asserter, and each child's (node, digest) —
//     not the creation time, and not a child ref's asserter, which names
//     whichever copy of the child arrived first;
//   * forensics: the canonical bytes of sampled distributed proofs.
// Reachable has no keyed tables, so no keyed replacement makes the record
// set depend on delivery order. Failures name the seed and thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/programs.h"
#include "core/engine.h"
#include "net/faults.h"
#include "net/topology.h"
#include "query/provquery.h"
#include "util/random.h"

namespace provnet {
namespace {

constexpr size_t kNodes = 30;
constexpr uint64_t kSeeds = 4;
constexpr size_t kSampledProofs = 6;
const char* const kPredicates[] = {"link", "linkD", "reachable"};

enum class Plan { kLoss1, kLoss5, kDupPartition, kCrash };

const char* PlanName(Plan plan) {
  switch (plan) {
    case Plan::kLoss1:
      return "loss1";
    case Plan::kLoss5:
      return "loss5";
    case Plan::kDupPartition:
      return "dup_partition";
    case Plan::kCrash:
      return "crash";
  }
  return "?";
}

FaultPlan MakePlan(Plan plan, uint64_t seed) {
  switch (plan) {
    case Plan::kLoss1:
      return FaultPlan::UniformLoss(0.01, seed);
    case Plan::kLoss5:
      return FaultPlan::UniformLoss(0.05, seed);
    case Plan::kDupPartition: {
      FaultPlan out;
      out.seed = seed;
      LinkFaultSpec noisy;
      noisy.loss = 0.02;
      noisy.duplication = 0.02;
      out.links.push_back(noisy);
      // Nodes 0 and 1 are ring neighbours: the partition cuts a real link.
      out.partitions.push_back(PartitionSpec{0.02, 0.3, 0, 1, true});
      return out;
    }
    case Plan::kCrash: {
      FaultPlan out;
      out.seed = seed;
      out.crashes.push_back(
          CrashSpec{0.05, 0.5, static_cast<NodeId>(seed % kNodes)});
      return out;
    }
  }
  return {};
}

std::unique_ptr<Engine> RunReach(const Topology& topo, EngineOptions opts) {
  opts.authenticate = true;
  opts.says_level = SaysLevel::kHmac;
  opts.prov_mode = ProvMode::kPointers;
  auto created = Engine::Create(topo, ReachableSendlogProgram(), opts);
  EXPECT_TRUE(created.ok()) << created.status();
  if (!created.ok()) return nullptr;
  std::unique_ptr<Engine> engine = std::move(created).value();
  for (const TopoEdge& e : topo.edges) {
    Tuple link("link", {Value::Address(e.from), Value::Address(e.to)});
    EXPECT_TRUE(engine->InsertFact(e.from, link).ok());
  }
  Result<RunStats> run = engine->Run();
  EXPECT_TRUE(run.ok()) << run.status();
  return engine;
}

// A record's content: its serialization with the creation time and the
// child refs' asserters cleared.
std::string ContentOf(ProvRecord rec) {
  rec.created_at = 0.0;
  for (ProvChildRef& child : rec.children) child.asserted_by.clear();
  ByteWriter out;
  rec.Serialize(out);
  Bytes bytes = std::move(out).Take();
  return std::string(bytes.begin(), bytes.end());
}

// Every digest a record can be filed under: records live at the tuple's
// node and, for shipped heads, at the node that derived them.
std::vector<TupleDigest> AllDigests(Engine& engine) {
  std::vector<TupleDigest> out;
  for (NodeId n = 0; n < engine.num_nodes(); ++n) {
    for (const char* pred : kPredicates) {
      for (const Tuple& t : engine.TuplesAt(n, pred)) {
        out.push_back(DigestOf(t));
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// Node -> digest -> sorted record contents.
using RecordSets =
    std::vector<std::map<TupleDigest, std::vector<std::string>>>;

RecordSets RecordsOf(Engine& engine, const std::vector<TupleDigest>& digests) {
  RecordSets out(engine.num_nodes());
  for (NodeId n = 0; n < engine.num_nodes(); ++n) {
    for (TupleDigest d : digests) {
      std::vector<ProvRecord> recs = engine.node(n).online_store().Lookup(d);
      if (recs.empty()) continue;
      std::vector<std::string>& contents = out[n][d];
      for (const ProvRecord& rec : recs) contents.push_back(ContentOf(rec));
      std::sort(contents.begin(), contents.end());
    }
  }
  return out;
}

Result<Bytes> DistributedProof(Engine& engine, NodeId at, const Tuple& t) {
  PROVNET_ASSIGN_OR_RETURN(QueryResult result,
                           ProvQueryBuilder(engine)
                               .At(at)
                               .Of(t)
                               .WithScope(QueryScope::kDistributed)
                               .Run());
  if (result.stats.unreachable != 0) {
    return InternalError("proof has unreachable leaves");
  }
  return result.dag.CanonicalBytes();
}

class FaultDifferentialTest : public ::testing::TestWithParam<Plan> {};

TEST_P(FaultDifferentialTest, HealedRunEqualsTheUnarmedRunRecordByRecord) {
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng topo_rng(7000 + seed);
    Topology topo = Topology::RingPlusRandom(kNodes, 2, topo_rng);
    std::unique_ptr<Engine> golden = RunReach(topo, EngineOptions{});
    ASSERT_NE(golden, nullptr);
    ASSERT_FALSE(golden->network().TransportEnabled());
    const std::vector<TupleDigest> digests = AllDigests(*golden);
    const RecordSets golden_records = RecordsOf(*golden, digests);

    // Sampled proofs: reachable tuples asked at their source node.
    struct Probe {
      NodeId at;
      Tuple tuple;
      Bytes proof;
    };
    std::vector<Probe> probes;
    Rng probe_rng(seed);
    for (size_t i = 0; i < kSampledProofs; ++i) {
      NodeId n = static_cast<NodeId>(probe_rng.NextBelow(kNodes));
      std::vector<Tuple> at = golden->TuplesAt(n, "reachable");
      ASSERT_FALSE(at.empty());
      Tuple t = at[probe_rng.NextBelow(at.size())];
      Result<Bytes> proof = DistributedProof(*golden, n, t);
      ASSERT_TRUE(proof.ok()) << t.ToString() << ": " << proof.status();
      probes.push_back(Probe{n, std::move(t), std::move(proof).value()});
    }

    for (size_t threads : {1, 4}) {
      SCOPED_TRACE("plan=" + std::string(PlanName(GetParam())) +
                   " seed=" + std::to_string(seed) +
                   " threads=" + std::to_string(threads));
      EngineOptions opts;
      opts.threads = threads;
      opts.fault_plan = MakePlan(GetParam(), seed);
      std::unique_ptr<Engine> healed = RunReach(topo, opts);
      ASSERT_NE(healed, nullptr);
      ASSERT_TRUE(healed->network().TransportEnabled());

      for (NodeId n = 0; n < kNodes; ++n) {
        for (const char* pred : kPredicates) {
          ASSERT_EQ(healed->TuplesAt(n, pred), golden->TuplesAt(n, pred))
              << pred << " at node " << n;
        }
        EXPECT_EQ(healed->node(n).online_store().size(),
                  golden->node(n).online_store().size())
            << "online records at node " << n;
      }
      const RecordSets healed_records = RecordsOf(*healed, digests);
      for (NodeId n = 0; n < kNodes; ++n) {
        EXPECT_TRUE(healed_records[n] == golden_records[n])
            << "online record multiset differs at node " << n;
      }

      for (const Probe& p : probes) {
        Result<Bytes> got = DistributedProof(*healed, p.at, p.tuple);
        ASSERT_TRUE(got.ok()) << p.tuple.ToString() << ": " << got.status();
        EXPECT_TRUE(got.value() == p.proof) << "distributed proof of "
                                            << p.tuple.ToString()
                                            << " at node " << p.at;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Plans, FaultDifferentialTest,
                         ::testing::Values(Plan::kLoss1, Plan::kLoss5,
                                           Plan::kDupPartition, Plan::kCrash),
                         [](const ::testing::TestParamInfo<Plan>& info) {
                           return std::string(PlanName(info.param));
                         });

}  // namespace
}  // namespace provnet
