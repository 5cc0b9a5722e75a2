#include <gtest/gtest.h>

#include "core/table.h"
#include "net/network.h"
#include "net/topology.h"
#include "util/random.h"

namespace provnet {
namespace {

// --- Network -------------------------------------------------------------------

TEST(NetworkTest, DeliversInLatencyOrder) {
  Network net(3, /*default_latency_s=*/1.0);
  net.SetLatency(0, 2, 0.1);  // fast path

  std::vector<std::pair<NodeId, NodeId>> deliveries;
  net.SetHandler([&](NodeId to, NodeId from, const Bytes&) {
    deliveries.push_back({from, to});
  });

  ASSERT_TRUE(net.Send(0, 1, {1}).ok());  // arrives t=1.0
  ASSERT_TRUE(net.Send(0, 2, {2}).ok());  // arrives t=0.1
  net.Run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], (std::pair<NodeId, NodeId>{0, 2}));
  EXPECT_EQ(deliveries[1], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_DOUBLE_EQ(net.now(), 1.0);
}

TEST(NetworkTest, FifoForEqualTimes) {
  Network net(2, 0.5);
  std::vector<uint8_t> order;
  net.SetHandler([&](NodeId, NodeId, const Bytes& payload) {
    order.push_back(payload[0]);
  });
  for (uint8_t i = 0; i < 5; ++i) ASSERT_TRUE(net.Send(0, 1, {i}).ok());
  net.Run();
  EXPECT_EQ(order, (std::vector<uint8_t>{0, 1, 2, 3, 4}));
}

TEST(NetworkTest, MetersCountEveryByte) {
  Network net(2, 0.01);
  net.SetHandler([](NodeId, NodeId, const Bytes&) {});
  ASSERT_TRUE(net.Send(0, 1, Bytes(100, 0)).ok());
  ASSERT_TRUE(net.Send(1, 0, Bytes(50, 0)).ok());
  EXPECT_EQ(net.total_bytes(), 150u);
  EXPECT_EQ(net.total_messages(), 2u);
  EXPECT_EQ(net.bytes_sent_by(0), 100u);
  EXPECT_EQ(net.bytes_received_by(0), 50u);
  net.ResetMeters();
  EXPECT_EQ(net.total_bytes(), 0u);
}

TEST(NetworkTest, RejectsOutOfRangeNodes) {
  Network net(2, 0.01);
  EXPECT_FALSE(net.Send(0, 7, {1}).ok());
  EXPECT_FALSE(net.Send(7, 0, {1}).ok());
}

TEST(NetworkTest, CascadedSendsFromHandler) {
  // A handler that forwards models multi-hop protocols.
  Network net(3, 0.1);
  int hops = 0;
  net.SetHandler([&](NodeId to, NodeId, const Bytes& payload) {
    ++hops;
    if (to < 2) {
      ASSERT_TRUE(net.Send(to, to + 1, payload).ok());
    }
  });
  ASSERT_TRUE(net.Send(0, 1, {42}).ok());
  net.Run();
  EXPECT_EQ(hops, 2);
  EXPECT_NEAR(net.now(), 0.2, 1e-9);
}

TEST(NetworkTest, AdvanceTimeWhenIdle) {
  Network net(1, 0.01);
  net.AdvanceTime(5.0);
  EXPECT_DOUBLE_EQ(net.now(), 5.0);
}

// --- Reliable transport: retransmission timers ---------------------------------

// Timers due at one instant fire in (link key, frame seq) order, whatever
// order they were armed in. That order fixes the per-link fault draws and
// the FIFO tie-break of the retransmitted copies.
TEST(NetworkTest, DueRetransmitsFireInLinkThenSeqOrder) {
  Network net(4, 0.01);
  net.EnableTransport();
  FaultPlan plan;
  for (NodeId to = 1; to <= 3; ++to) {
    plan.partitions.push_back(PartitionSpec{/*start=*/0.0, /*end=*/0.04,
                                            /*a=*/0, /*b=*/to});
  }
  net.InstallFaultPlan(plan);
  std::vector<uint8_t> order;
  net.SetHandler([&](NodeId, NodeId, const Bytes& payload) {
    order.push_back(payload[0]);
  });
  // Armed highest link first; the partition drops every first copy.
  ASSERT_TRUE(net.Send(0, 3, {30}).ok());
  ASSERT_TRUE(net.Send(0, 2, {20}).ok());
  ASSERT_TRUE(net.Send(0, 2, {21}).ok());
  ASSERT_TRUE(net.Send(0, 1, {10}).ok());
  EXPECT_DOUBLE_EQ(net.NextEventTime(), Network::kRtoInitialS);
  // Heal the partition: move the clock past it and past all four timers.
  net.AdvanceTime(0.1);
  net.Run();
  EXPECT_EQ(order, (std::vector<uint8_t>{10, 20, 21, 30}));
  EXPECT_EQ(net.retransmits(), 4u);
  EXPECT_TRUE(net.Idle());
}

// A frame that exhausts its retry budget kills its link at that instant and
// drops the link's younger frame with it; frames of the links before and
// after it in key order, due at the same instant, still retransmit.
TEST(NetworkTest, ExhaustedFrameKillsOnlyItsLink) {
  Network net(4, 0.01);
  net.EnableTransport();
  std::vector<uint8_t> got;
  net.SetHandler([&](NodeId, NodeId, const Bytes& payload) {
    got.push_back(payload[0]);
  });
  net.SetCrashed(0, true);  // every copy sent to node 0 is lost
  ASSERT_TRUE(net.Send(2, 0, {20}).ok());
  // Spend all but the budget's last check on link 2->0's frame.
  while (net.retransmits() < Network::kMaxAttempts - 1) {
    ASSERT_TRUE(net.Step());
  }
  const double armed_at = net.now();
  ASSERT_TRUE(net.Send(1, 0, {10}).ok());
  ASSERT_TRUE(net.Send(2, 0, {21}).ok());
  ASSERT_TRUE(net.Send(3, 0, {30}).ok());
  // Drop the first copies at the crashed receiver, then restart it before
  // any timer is due: all four timers re-arm at one instant.
  while (net.NextEventTime() < armed_at + Network::kRtoInitialS) {
    ASSERT_TRUE(net.Step());
  }
  net.SetCrashed(0, false);
  net.Run();
  EXPECT_EQ(got, (std::vector<uint8_t>{10, 30}));
  EXPECT_EQ(net.links_dead(), 1u);
  EXPECT_EQ(net.retransmits(), Network::kMaxAttempts + 1);
  EXPECT_TRUE(net.Idle());
  // The dead link drops new payloads instead of arming timers.
  ASSERT_TRUE(net.Send(2, 0, {22}).ok());
  EXPECT_TRUE(net.Idle());
}

// A restart re-arms a pending frame at restart + kRtoInitialS, and the frame
// retransmits exactly once there, also when the restart lands on the
// instant the frame was sent (the re-armed time equals the old one).
TEST(NetworkTest, RestartRearmsAPendingFrameOnce) {
  Network net(2, 0.01);
  net.EnableTransport();
  std::vector<double> arrivals;
  net.SetHandler(
      [&](NodeId, NodeId, const Bytes&) { arrivals.push_back(net.now()); });

  // The receiver crashes with the first copy in flight; the sender backs
  // off against it (retransmits at 0.05, 0.15 and 0.35, all lost).
  ASSERT_TRUE(net.Send(0, 1, {1}).ok());
  net.SetCrashed(1, true);
  while (net.retransmits() < 3) ASSERT_TRUE(net.Step());
  while (net.NextEventTime() < 0.5) ASSERT_TRUE(net.Step());
  net.AdvanceTo(0.5);
  net.SetCrashed(1, false);
  EXPECT_DOUBLE_EQ(net.NextEventTime(), 0.5 + Network::kRtoInitialS);
  net.Run();
  EXPECT_EQ(net.retransmits(), 4u);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.5 + Network::kRtoInitialS + 0.01);
  EXPECT_TRUE(net.Idle());

  const double restart = net.now();
  ASSERT_TRUE(net.Send(0, 1, {2}).ok());
  net.SetCrashed(1, true);  // purges the copy in flight
  net.SetCrashed(1, false);
  net.Run();
  EXPECT_EQ(net.retransmits(), 5u);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[1], restart + Network::kRtoInitialS + 0.01);
  EXPECT_TRUE(net.Idle());
}

// A frame lost once, whose retransmit arrives after 70 newer frames on its
// link, is still delivered — and every frame exactly once, though each copy
// on the wire is duplicated. A 64-deep receive window would have acked the
// late retransmit and then dropped it as a duplicate.
TEST(NetworkTest, LateRetransmitBehindManyNewerFramesIsDeliveredOnce) {
  Network net(2, 0.01);
  net.EnableTransport();
  FaultPlan plan;
  plan.seed = 1;
  plan.partitions.push_back(PartitionSpec{/*start=*/0.0, /*end=*/0.001,
                                          /*a=*/0, /*b=*/1});
  LinkFaultSpec dup;
  dup.from = 0;
  dup.to = 1;
  dup.duplication = 1.0;
  plan.links.push_back(dup);
  net.InstallFaultPlan(plan);
  std::vector<int> delivered(71, 0);
  net.SetHandler([&](NodeId, NodeId, const Bytes& payload) {
    ++delivered[payload[0]];
  });

  ASSERT_TRUE(net.Send(0, 1, {0}).ok());  // lost to the partition
  net.AdvanceTime(0.002);
  for (uint8_t i = 1; i <= 70; ++i) ASSERT_TRUE(net.Send(0, 1, {i}).ok());
  net.Run();

  EXPECT_EQ(net.retransmits(), 1u);
  EXPECT_EQ(delivered, std::vector<int>(71, 1));
  EXPECT_EQ(net.deliveries(), 71u);
  EXPECT_EQ(net.duplicates_deduped(), 71u);  // one per duplicated copy
  EXPECT_TRUE(net.Idle());
}

// --- Topology -------------------------------------------------------------------

TEST(TopologyTest, FigureAbcShape) {
  Topology t = Topology::FigureAbc();
  EXPECT_EQ(t.num_nodes, 3u);
  EXPECT_EQ(t.edges.size(), 3u);
}

TEST(TopologyTest, RandomOutDegreeExact) {
  Rng rng(5);
  Topology t = Topology::RandomOutDegree(20, 3, rng);
  EXPECT_EQ(t.edges.size(), 60u);
  EXPECT_DOUBLE_EQ(t.AverageOutDegree(), 3.0);
  // No self loops, no duplicate (from, to) pairs per node.
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const TopoEdge& e : t.edges) {
    EXPECT_NE(e.from, e.to);
    EXPECT_TRUE(seen.insert({e.from, e.to}).second);
    EXPECT_GE(e.cost, 1);
    EXPECT_LE(e.cost, 10);
  }
}

TEST(TopologyTest, RingPlusRandomIsConnected) {
  Rng rng(6);
  Topology t = Topology::RingPlusRandom(15, 3, rng);
  EXPECT_EQ(t.edges.size(), 45u);
  // The ring edges guarantee strong connectivity: check i -> i+1 exists.
  for (NodeId i = 0; i < 15; ++i) {
    bool found = false;
    for (const TopoEdge& e : t.edges) {
      if (e.from == i && e.to == (i + 1) % 15) found = true;
    }
    EXPECT_TRUE(found) << "missing ring edge from " << i;
  }
}

TEST(TopologyTest, DeterministicUnderSeed) {
  Rng rng1(7), rng2(7);
  Topology a = Topology::RingPlusRandom(10, 3, rng1);
  Topology b = Topology::RingPlusRandom(10, 3, rng2);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].from, b.edges[i].from);
    EXPECT_EQ(a.edges[i].to, b.edges[i].to);
    EXPECT_EQ(a.edges[i].cost, b.edges[i].cost);
  }
}

TEST(TopologyTest, LineAndMesh) {
  EXPECT_EQ(Topology::Line(5).edges.size(), 4u);
  EXPECT_EQ(Topology::FullMesh(4).edges.size(), 12u);
}

// --- Table ---------------------------------------------------------------------

StoredTuple Entry(Tuple t) {
  StoredTuple e;
  e.tuple = std::move(t);
  return e;
}

TEST(TableTest, SetSemanticsByDefault) {
  Table table("t", TableOptions{});
  Tuple t("x", {Value::Int(1), Value::Int(2)});
  EXPECT_EQ(table.Insert(Entry(t), 0.0).outcome, InsertOutcome::kNew);
  EXPECT_EQ(table.Insert(Entry(t), 1.0).outcome, InsertOutcome::kRefreshed);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_NE(table.Find(t), nullptr);
}

TEST(TableTest, KeyReplaceSemantics) {
  TableOptions opts;
  opts.key_columns = {0};
  Table table("t", opts);
  Tuple t1("route", {Value::Int(7), Value::Str("old")});
  Tuple t2("route", {Value::Int(7), Value::Str("new")});
  EXPECT_EQ(table.Insert(Entry(t1), 0.0).outcome, InsertOutcome::kNew);
  InsertResult r = table.Insert(Entry(t2), 1.0);
  EXPECT_EQ(r.outcome, InsertOutcome::kReplaced);
  EXPECT_EQ(r.stored, t2);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.Find(t1), nullptr);
  EXPECT_NE(table.Find(t2), nullptr);
}

TEST(TableTest, MinAggregateKeepsImprovements) {
  TableOptions opts;
  opts.agg = AggKind::kMin;
  opts.agg_column = 1;
  opts.key_columns = {0};
  Table table("cost", opts);
  Tuple group0_c5("cost", {Value::Int(0), Value::Int(5)});
  Tuple group0_c3("cost", {Value::Int(0), Value::Int(3)});
  Tuple group0_c9("cost", {Value::Int(0), Value::Int(9)});

  EXPECT_EQ(table.Insert(Entry(group0_c5), 0.0).outcome, InsertOutcome::kNew);
  EXPECT_EQ(table.Insert(Entry(group0_c9), 0.0).outcome,
            InsertOutcome::kRejected);
  InsertResult improved = table.Insert(Entry(group0_c3), 0.0);
  EXPECT_EQ(improved.outcome, InsertOutcome::kReplaced);
  EXPECT_EQ(improved.stored.arg(1).AsInt(), 3);
  // Re-deriving the current minimum refreshes.
  EXPECT_EQ(table.Insert(Entry(group0_c3), 0.0).outcome,
            InsertOutcome::kRefreshed);
}

TEST(TableTest, MaxAggregate) {
  TableOptions opts;
  opts.agg = AggKind::kMax;
  opts.agg_column = 1;
  opts.key_columns = {0};
  Table table("m", opts);
  table.Insert(Entry(Tuple("m", {Value::Int(0), Value::Int(5)})), 0.0);
  EXPECT_EQ(
      table.Insert(Entry(Tuple("m", {Value::Int(0), Value::Int(9)})), 0.0)
          .outcome,
      InsertOutcome::kReplaced);
  EXPECT_EQ(
      table.Insert(Entry(Tuple("m", {Value::Int(0), Value::Int(2)})), 0.0)
          .outcome,
      InsertOutcome::kRejected);
}

TEST(TableTest, CountAggregateCountsDistinctWitnesses) {
  TableOptions opts;
  opts.agg = AggKind::kCount;
  opts.agg_column = 1;
  opts.key_columns = {0};
  Table table("c", opts);
  InsertResult r1 =
      table.Insert(Entry(Tuple("c", {Value::Int(0), Value::Int(10)})), 0.0);
  EXPECT_EQ(r1.stored.arg(1).AsInt(), 1);
  InsertResult r2 =
      table.Insert(Entry(Tuple("c", {Value::Int(0), Value::Int(20)})), 0.0);
  EXPECT_EQ(r2.outcome, InsertOutcome::kReplaced);
  EXPECT_EQ(r2.stored.arg(1).AsInt(), 2);
  // The same witness again does not bump the count.
  InsertResult r3 =
      table.Insert(Entry(Tuple("c", {Value::Int(0), Value::Int(20)})), 0.0);
  EXPECT_EQ(r3.outcome, InsertOutcome::kRefreshed);
  EXPECT_EQ(r3.stored.arg(1).AsInt(), 2);
}

TEST(TableTest, TtlExpiry) {
  TableOptions opts;
  opts.default_ttl = 10.0;
  Table table("soft", opts);
  StoredTuple first = Entry(Tuple("soft", {Value::Int(1)}));
  first.prov = ProvExpr::Var(5);
  table.Insert(std::move(first), 0.0);
  table.Insert(Entry(Tuple("soft", {Value::Int(2)})), 8.0);
  std::vector<StoredTuple> dropped = table.ExpireBefore(15.0);
  ASSERT_EQ(dropped.size(), 1u);
  EXPECT_EQ(dropped[0].tuple.arg(0).AsInt(), 1);
  // Expired entries keep their provenance sidecar so expiry can fire
  // deletion deltas.
  EXPECT_EQ(dropped[0].prov.Variables(), (std::vector<ProvVar>{5}));
  EXPECT_EQ(table.size(), 1u);
}

TEST(TableTest, RefreshExtendsTtl) {
  TableOptions opts;
  opts.default_ttl = 10.0;
  Table table("soft", opts);
  Tuple t("soft", {Value::Int(1)});
  table.Insert(Entry(t), 0.0);
  table.Insert(Entry(t), 9.0);  // refresh at t=9 -> expires at 19
  EXPECT_TRUE(table.ExpireBefore(15.0).empty());
  EXPECT_EQ(table.ExpireBefore(25.0).size(), 1u);
}

TEST(TableTest, MaxSizeEvictsFifo) {
  TableOptions opts;
  opts.max_size = 3;
  Table table("bounded", opts);
  for (int i = 0; i < 5; ++i) {
    table.Insert(Entry(Tuple("bounded", {Value::Int(i)})), 0.0);
  }
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Find(Tuple("bounded", {Value::Int(0)})), nullptr);
  EXPECT_NE(table.Find(Tuple("bounded", {Value::Int(4)})), nullptr);
}

TEST(TableTest, ColumnIndexFindsMatches) {
  Table table("t", TableOptions{});
  for (int i = 0; i < 100; ++i) {
    table.Insert(Entry(Tuple("t", {Value::Int(i % 10), Value::Int(i)})), 0.0);
  }
  auto matches = table.LookupByColumn(0, Value::Int(3));
  EXPECT_EQ(matches.size(), 10u);
  for (const StoredTuple* e : matches) {
    EXPECT_EQ(e->tuple.arg(0).AsInt(), 3);
  }
  // Index stays consistent after erase.
  EXPECT_TRUE(table.Erase(Tuple("t", {Value::Int(3), Value::Int(3)})));
  EXPECT_EQ(table.LookupByColumn(0, Value::Int(3)).size(), 9u);
}

TEST(TableTest, RemoveReturnsStoredEntryWithAnnotation) {
  Table table("t", TableOptions{});
  Tuple t("t", {Value::Int(1), Value::Int(2)});
  StoredTuple entry = Entry(t);
  entry.prov = ProvExpr::Times(ProvExpr::Var(3), ProvExpr::Var(4));
  entry.asserted_by = "alice";
  entry.origin = TupleOrigin::kLocalRule;
  entry.rule = "r7";
  table.Insert(std::move(entry), 2.5);

  std::optional<StoredTuple> removed = table.Remove(t);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->tuple, t);
  // The annotation rides along: deletion deltas carry provenance.
  EXPECT_EQ(removed->prov.Variables(), (std::vector<ProvVar>{3, 4}));
  EXPECT_EQ(removed->asserted_by, "alice");
  EXPECT_EQ(removed->origin, TupleOrigin::kLocalRule);
  EXPECT_EQ(removed->rule, "r7");
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(t), nullptr);

  // Removing again (or removing something never stored) yields nothing.
  EXPECT_FALSE(table.Remove(t).has_value());
  EXPECT_FALSE(table.Remove(Tuple("t", {Value::Int(9)})).has_value());
}

TEST(TableTest, RemoveRequiresExactTupleOnKeyedTables) {
  TableOptions opts;
  opts.key_columns = {0};
  Table table("keyed", opts);
  Tuple stored("keyed", {Value::Int(1), Value::Int(10)});
  table.Insert(Entry(stored), 0.0);
  // Same key, different value: Remove must not fire (that is FindGroup's
  // job), so a stale retraction cannot delete a newer replacement.
  EXPECT_FALSE(
      table.Remove(Tuple("keyed", {Value::Int(1), Value::Int(99)})).has_value());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.Remove(stored).has_value());
}

TEST(TableTest, FindGroupMatchesByPrimaryKey) {
  TableOptions opts;
  opts.agg = AggKind::kMin;
  opts.agg_column = 1;
  opts.key_columns = {0};
  Table table("best", opts);
  table.Insert(Entry(Tuple("best", {Value::Int(0), Value::Int(7)})), 0.0);
  table.Insert(Entry(Tuple("best", {Value::Int(0), Value::Int(3)})), 0.0);

  // Any candidate of the group finds the current extremum.
  const StoredTuple* group =
      table.FindGroup(Tuple("best", {Value::Int(0), Value::Int(42)}));
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->tuple.arg(1).AsInt(), 3);
  EXPECT_EQ(table.FindGroup(Tuple("best", {Value::Int(5), Value::Int(1)})),
            nullptr);
}

TEST(TableTest, ProvenanceMergesOnRefresh) {
  Table table("t", TableOptions{});
  Tuple t("t", {Value::Int(1)});
  StoredTuple e1 = Entry(t);
  e1.prov = ProvExpr::Var(0);
  table.Insert(std::move(e1), 0.0);
  StoredTuple e2 = Entry(t);
  e2.prov = ProvExpr::Var(1);
  table.Insert(std::move(e2), 0.0);
  const StoredTuple* merged = table.Find(t);
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->prov.Variables(), (std::vector<ProvVar>{0, 1}));
  EXPECT_EQ(merged->prov.kind(), ProvExprKind::kPlus);
}

}  // namespace
}  // namespace provnet
