// Wall-clock execution profiler — the second story of src/obs/ (ISSUE 8).
//
// Every metric in obs/metrics.h is virtual-time by design: the registry
// snapshot is a determinism oracle (byte-identical across seeded runs and
// thread counts), so nothing in it may read a real clock. This profiler is
// the complement: wall-clock phase timers and per-lane busy accumulators
// that answer "where does the wall time actually go" — how much the serial
// commit barrier of the parallel executor eats, how long crypto
// verification takes, what fraction of a fixpoint is query serving.
//
// Because the values are wall-clock they are *never* exported through
// SnapshotJson; obs::ProfileJson (export.h) is their only serialization,
// feeding the PROF_fixpoint.json CI artifact and `obs_dump --prof`.
//
// Cost discipline matches the Tracer: disabled (the default), every hook is
// one relaxed atomic bool load and a branch; enabled, a scope costs two
// steady_clock reads and a relaxed fetch_add. Phase accumulators are
// atomics because receive-side hooks (verification, delivery) run on worker
// lanes during parallel delivery waves.
#ifndef PROVNET_OBS_PROFILER_H_
#define PROVNET_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace provnet::obs {

// Engine execution phases. Phases overlap by design (verification happens
// inside delivery; kFixpoint spans the whole Run() loop), so the entries
// are independent meters, not a partition.
enum class Phase : uint8_t {
  kFixpoint = 0,     // the whole Run() fixpoint loop
  kEvents,           // event-cascade processing (sequential path)
  kRetractions,      // deletion-delta cascades (DRed over-deletion)
  kRederive,         // DRed re-derivation phase
  kDelivery,         // network delivery (sequential Step path)
  kParallelCompute,  // worker-pool compute, including barrier stall
  kCommitReplay,     // serial canonical-order effect replay
  kVerify,           // receive-side verification (signatures, headers)
  kSign,             // sender-side says-tag construction
  kQueryServe,       // ProvQuery request/response serving
  kNumPhases,
};

inline constexpr size_t kNumProfilerPhases =
    static_cast<size_t>(Phase::kNumPhases);

const char* PhaseName(Phase p);

class Profiler {
 public:
  // Worker lanes tracked individually; lanes beyond this fold into the
  // last slot (the pool caps at min(16, cores-2) lanes anyway).
  static constexpr size_t kMaxLanes = 64;

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Reset();

  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  // Thread-safe (relaxed) accumulation; call only when enabled().
  void AddPhase(Phase p, uint64_t ns) {
    PhaseCell& cell = phases_[static_cast<size_t>(p)];
    cell.ns.fetch_add(ns, std::memory_order_relaxed);
    cell.count.fetch_add(1, std::memory_order_relaxed);
  }
  // Per-lane busy time. During a pool phase each lane touches only its own
  // cell, so the relaxed add never contends.
  void AddLane(size_t lane, uint64_t ns) {
    if (lane >= kMaxLanes) lane = kMaxLanes - 1;
    lanes_[lane].ns.fetch_add(ns, std::memory_order_relaxed);
    if (lane + 1 > num_lanes_.load(std::memory_order_relaxed)) {
      num_lanes_.store(lane + 1, std::memory_order_relaxed);
    }
  }

  uint64_t PhaseNs(Phase p) const {
    return phases_[static_cast<size_t>(p)].ns.load(std::memory_order_relaxed);
  }
  uint64_t PhaseCount(Phase p) const {
    return phases_[static_cast<size_t>(p)].count.load(
        std::memory_order_relaxed);
  }
  // Highest lane index seen + 1 (0 when no parallel phase ran).
  size_t num_lanes() const {
    return num_lanes_.load(std::memory_order_relaxed);
  }
  uint64_t LaneNs(size_t lane) const {
    return lane < kMaxLanes ? lanes_[lane].ns.load(std::memory_order_relaxed)
                            : 0;
  }

  // Serial effect-replay wall time over the total parallel-executor wall
  // time (compute + barrier + replay) — the Amdahl ceiling of the sharded
  // executor. 0 when the run never entered a parallel phase.
  double CommitSerialFraction() const {
    double par = static_cast<double>(PhaseNs(Phase::kParallelCompute));
    double commit = static_cast<double>(PhaseNs(Phase::kCommitReplay));
    double total = par + commit;
    return total > 0.0 ? commit / total : 0.0;
  }
  // Lane busy time / parallel-compute wall time (1.0 = the lane never
  // stalled at a barrier).
  double LaneUtilization(size_t lane) const {
    double par = static_cast<double>(PhaseNs(Phase::kParallelCompute));
    if (par <= 0.0) return 0.0;
    return static_cast<double>(LaneNs(lane)) / par;
  }

  // RAII phase scope. When the profiler is disabled the constructor is one
  // relaxed load; nothing else happens.
  class Scope {
   public:
    Scope(Profiler& p, Phase phase)
        : p_(p.enabled() ? &p : nullptr),
          phase_(phase),
          t0_(p_ != nullptr ? NowNs() : 0) {}
    ~Scope() {
      if (p_ != nullptr) p_->AddPhase(phase_, NowNs() - t0_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler* p_;
    Phase phase_;
    uint64_t t0_;
  };

 private:
  struct PhaseCell {
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> count{0};
  };
  // Cache-line padded: each lane hammers its own cell during pool phases.
  struct alignas(64) LaneCell {
    std::atomic<uint64_t> ns{0};
  };

  std::atomic<bool> enabled_{false};
  std::array<PhaseCell, kNumProfilerPhases> phases_{};
  std::array<LaneCell, kMaxLanes> lanes_{};
  std::atomic<size_t> num_lanes_{0};
};

}  // namespace provnet::obs

#endif  // PROVNET_OBS_PROFILER_H_
