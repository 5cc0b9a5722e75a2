#include "apps/accountability.h"

#include <algorithm>

#include "util/strings.h"

namespace provnet {

FlowAuditor::FlowAuditor(Engine& engine, double from, double to) {
  for (NodeId n = 0; n < engine.num_nodes(); ++n) {
    const store::ProvArchive& offline = engine.node(n).offline_store();
    for (const ProvRecord& rec : offline.FindInWindow(from, to)) {
      if (rec.asserted_by.empty()) continue;
      UsageRecord& usage = ledger_[rec.asserted_by];
      if (usage.assertions == 0) {
        usage.principal = rec.asserted_by;
        usage.first_seen = rec.created_at;
        usage.last_seen = rec.created_at;
      }
      ++usage.assertions;
      ByteWriter w;
      rec.Serialize(w);
      usage.bytes += w.size();
      usage.first_seen = std::min(usage.first_seen, rec.created_at);
      usage.last_seen = std::max(usage.last_seen, rec.created_at);
    }
  }
}

std::vector<Principal> FlowAuditor::OverQuota(uint64_t quota) const {
  std::vector<Principal> out;
  for (const auto& [principal, usage] : ledger_) {
    if (usage.assertions > quota) out.push_back(principal);
  }
  return out;
}

uint64_t FlowAuditor::TotalAssertions() const {
  uint64_t total = 0;
  for (const auto& [principal, usage] : ledger_) total += usage.assertions;
  return total;
}

std::string FlowAuditor::ToString() const {
  std::string out = "audit ledger:\n";
  for (const auto& [principal, usage] : ledger_) {
    out += StrFormat("  %-8s assertions=%llu bytes=%llu window=[%.2f, %.2f]\n",
                     principal.c_str(),
                     static_cast<unsigned long long>(usage.assertions),
                     static_cast<unsigned long long>(usage.bytes),
                     usage.first_seen, usage.last_seen);
  }
  return out;
}

}  // namespace provnet
