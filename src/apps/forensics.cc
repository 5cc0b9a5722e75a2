#include "apps/forensics.h"

#include <functional>

#include "query/provquery.h"

namespace provnet {

Result<TracebackReport> Traceback(Engine& engine, NodeId node,
                                  const Tuple& tuple) {
  // One distributed ProvQuery: the reconstruction, its origins, and the
  // traffic it cost all come out of the typed result.
  PROVNET_ASSIGN_OR_RETURN(QueryResult result,
                           ProvQueryBuilder(engine)
                               .At(node)
                               .Of(tuple)
                               .WithScope(QueryScope::kDistributed)
                               .Run());
  TracebackReport report;
  report.query_bytes = result.stats.bytes;
  report.query_messages = result.stats.messages;
  report.origin_tuples = result.dag.Leaves();
  report.origin_nodes = result.dag.OriginNodes();
  return report;
}

double TracebackRecall(const TracebackReport& report,
                       const std::set<NodeId>& truth) {
  if (truth.empty()) return 1.0;
  size_t hit = 0;
  for (NodeId n : truth) {
    if (report.origin_nodes.count(n)) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

Result<std::map<NodeId, size_t>> RandomMoonwalk(Engine& engine, NodeId node,
                                                const Tuple& tuple,
                                                size_t walks, Rng& rng) {
  std::map<NodeId, size_t> histogram;
  TupleDigest root = DigestOf(tuple);

  auto records_of = [&engine](NodeId n, TupleDigest digest)
      -> std::vector<ProvRecord> {
    std::vector<ProvRecord> online =
        engine.node(n).online_store().Lookup(digest);
    if (!online.empty()) return online;
    return engine.node(n).offline_store().FindByDigest(digest);
  };

  if (records_of(node, root).empty()) {
    return NotFoundError("no provenance recorded for " + tuple.ToString());
  }

  for (size_t w = 0; w < walks; ++w) {
    NodeId at = node;
    TupleDigest digest = root;
    // Bounded walk (cycles in pointer graphs are cut by the step limit).
    for (int step = 0; step < 256; ++step) {
      std::vector<ProvRecord> records = records_of(at, digest);
      if (records.empty()) break;
      const ProvRecord& rec = records[rng.NextBelow(records.size())];
      if (rec.children.empty()) break;  // base record: an origin
      const ProvChildRef& ref =
          rec.children[rng.NextBelow(rec.children.size())];
      if (ref.is_base) {
        at = ref.node;
        break;
      }
      at = ref.node;
      digest = ref.digest;
    }
    ++histogram[at];
  }
  return histogram;
}

DigestTraceback::DigestTraceback(Engine& engine, double window_seconds,
                                 size_t bits, int hashes) {
  stores_.reserve(engine.num_nodes());
  for (NodeId n = 0; n < engine.num_nodes(); ++n) {
    stores_.emplace_back(window_seconds, bits, hashes, /*max_windows=*/0);
    // Ingest everything the node archived, in creation order.
    const store::ProvArchive& offline = engine.node(n).offline_store();
    for (const ProvRecord& rec : offline.FindInWindow(0.0, 1e18)) {
      stores_.back().Record(DigestOf(rec.tuple), rec.created_at);
    }
  }
}

std::vector<NodeId> DigestTraceback::NodesThatMaySawTuple(const Tuple& tuple,
                                                          double from,
                                                          double to) const {
  std::vector<NodeId> out;
  TupleDigest digest = DigestOf(tuple);
  for (NodeId n = 0; n < stores_.size(); ++n) {
    if (stores_[n].MayContain(digest, from, to)) out.push_back(n);
  }
  return out;
}

size_t DigestTraceback::TotalBytes() const {
  size_t total = 0;
  for (const ProvDigestStore& store : stores_) total += store.TotalBytes();
  return total;
}

}  // namespace provnet
