#include "obs/mem.h"

namespace provnet::obs {

const char* MemSubsystemName(MemSubsystem s) {
  switch (s) {
    case MemSubsystem::kProvAnnotations:
      return "prov_annotations";
    case MemSubsystem::kBddNodes:
      return "bdd_nodes";
    case MemSubsystem::kTableRows:
      return "table_rows";
    case MemSubsystem::kTableIndexes:
      return "table_indexes";
    case MemSubsystem::kNetworkQueues:
      return "network_queues";
    case MemSubsystem::kTraceRing:
      return "trace_ring";
    case MemSubsystem::kQuerySessions:
      return "query_sessions";
    case MemSubsystem::kProvArena:
      return "prov_arena";
    case MemSubsystem::kArchivePages:
      return "archive_pages";
    case MemSubsystem::kOnlineRecords:
      return "online_records";
    case MemSubsystem::kArchiveIndex:
      return "archive_index";
    case MemSubsystem::kNumSubsystems:
      break;
  }
  return "unknown";
}

MemAccounting& MemAccounting::Global() {
  static MemAccounting* instance = new MemAccounting();
  return *instance;
}

void MemAccounting::Reset() {
  for (Cell& cell : cells_) {
    cell.current.store(0, std::memory_order_relaxed);
    cell.peak.store(0, std::memory_order_relaxed);
  }
}

uint64_t MemAccounting::TotalPeakBytes() const {
  uint64_t total = 0;
  for (size_t i = 0; i < kNumMemSubsystems; ++i) {
    total += PeakBytes(static_cast<MemSubsystem>(i));
  }
  return total;
}

std::string MemAccounting::PeakSummary() const {
  std::string out;
  for (size_t i = 0; i < kNumMemSubsystems; ++i) {
    uint64_t peak = PeakBytes(static_cast<MemSubsystem>(i));
    if (peak == 0) continue;
    if (!out.empty()) out += " ";
    out += MemSubsystemName(static_cast<MemSubsystem>(i));
    out += "=";
    out += std::to_string(peak);
  }
  return out;
}

}  // namespace provnet::obs
