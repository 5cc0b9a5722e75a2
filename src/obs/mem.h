// Per-subsystem memory accounting (ISSUE 8, ROADMAP item 2's yardstick).
//
// Cheap byte gauges incremented at the existing allocation choke points —
// Table row/index mutations, ProvExpr DAG nodes, BDD arena nodes, network
// queue push/pop, the trace ring, ProvQuery session state, the online
// provenance store, the offline archive's pages and index — so the
// full-provenance memory curve is a first-class exported number instead of
// an external RSS reading nobody can attribute.
//
// The accounting is process-global (ProvExpr and Table have no engine
// back-pointer) and approximate by design: each hook charges a fixed
// per-object estimate (payload + container overhead), and Add/Sub pairs
// use the same estimate so the current gauge cannot drift. Peaks depend on
// allocation interleaving and are therefore *not* deterministic across
// thread counts — like the profiler's wall-clock numbers they are exported
// only through ProfileJson / RunStats::ToString, never through the golden
// registry snapshot.
//
// Disabled (the default) every hook is one relaxed atomic bool load.
// Enable() before constructing the engine and leave it on for the whole
// run; toggling mid-lifetime of accounted objects skews the current gauge
// (harmlessly — it is clamped at zero for display).
#ifndef PROVNET_OBS_MEM_H_
#define PROVNET_OBS_MEM_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace provnet::obs {

enum class MemSubsystem : uint8_t {
  kProvAnnotations = 0,  // ProvExpr DAG nodes (semiring annotations)
  kBddNodes,             // BddManager arena nodes + unique-table entries
  kTableRows,            // stored tuples (excluding their annotations)
  kTableIndexes,         // column-index buckets + insertion-order entries
  kNetworkQueues,        // queued wire messages
  kTraceRing,            // Tracer ring-buffer capacity
  kQuerySessions,        // in-flight ProvQuery session state
  kProvArena,            // hash-consed derivation arena (src/store/arena.*)
  kArchivePages,         // offline-archive resident pages
  kOnlineRecords,        // online provenance records (encoded, per digest)
  kArchiveIndex,         // offline-archive slot index and digest chains
  kNumSubsystems,
};

inline constexpr size_t kNumMemSubsystems =
    static_cast<size_t>(MemSubsystem::kNumSubsystems);

const char* MemSubsystemName(MemSubsystem s);

class MemAccounting {
 public:
  static MemAccounting& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Reset();

  void Add(MemSubsystem s, uint64_t bytes) {
    if (!enabled()) return;
    Cell& cell = cells_[static_cast<size_t>(s)];
    int64_t cur = cell.current.fetch_add(static_cast<int64_t>(bytes),
                                         std::memory_order_relaxed) +
                  static_cast<int64_t>(bytes);
    int64_t peak = cell.peak.load(std::memory_order_relaxed);
    while (cur > peak &&
           !cell.peak.compare_exchange_weak(peak, cur,
                                            std::memory_order_relaxed)) {
    }
  }
  void Sub(MemSubsystem s, uint64_t bytes) {
    if (!enabled()) return;
    cells_[static_cast<size_t>(s)].current.fetch_sub(
        static_cast<int64_t>(bytes), std::memory_order_relaxed);
  }

  // Clamped at zero (Enable() mid-lifetime of accounted objects can leave
  // a small negative residue).
  uint64_t CurrentBytes(MemSubsystem s) const {
    int64_t v = cells_[static_cast<size_t>(s)].current.load(
        std::memory_order_relaxed);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  }
  uint64_t PeakBytes(MemSubsystem s) const {
    int64_t v =
        cells_[static_cast<size_t>(s)].peak.load(std::memory_order_relaxed);
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  }
  // Sum of per-subsystem peaks — the number the CI memory-regression guard
  // compares against its checked-in baseline.
  uint64_t TotalPeakBytes() const;

  // "table_rows=123456 prov_annotations=789 ..." — peak bytes per
  // subsystem, fixed order, only non-zero entries. Empty string when the
  // accounting never recorded anything.
  std::string PeakSummary() const;

 private:
  struct Cell {
    std::atomic<int64_t> current{0};
    std::atomic<int64_t> peak{0};
  };

  std::atomic<bool> enabled_{false};
  std::array<Cell, kNumMemSubsystems> cells_{};
};

}  // namespace provnet::obs

#endif  // PROVNET_OBS_MEM_H_
