// Sharded parallel execution of the network fixpoint.
//
// The sequential engine is a single loop over three queues: retraction
// deltas, local delta events, and the virtual-time network. One phase of it
// is embarrassingly shardable *by node*: a delivery wave (all messages due
// at the earliest instant) fans out across destinations, and each
// delivery's local event cascade never leaves its node (a rule firing
// either delivers locally or sends a message, and messages sit in the
// network queue until their delivery instant). What is NOT shardable is
// the observable order: network sequence numbers, trace streams, the
// security log, the observer callback, and MIN/MAX aggregate races between
// same-instant deliveries all depend on the sequential interleaving.
//
// The executor therefore splits each wave into two halves:
//
//   compute (parallel)  - worker lanes run the slot-compiled joins against
//     node-local tables, buffering every externally visible side effect
//     (sends, traces, security events, observer calls) into per-node effect
//     streams, and counting into per-lane counter mirrors;
//   commit (sequential) - the main thread replays the effect streams in the
//     exact order the sequential engine would have produced them — wave seq
//     order — and merges the counter mirrors (sums, so merge order is free).
//
// Because table mutations are node-local and every cross-node interaction
// is a buffered effect committed canonically, the fixpoint, every counter,
// the trace stream, and the security log are byte-identical at every
// thread count. Everything else (local events queued outside a wave,
// retractions, query traffic, single-destination waves) runs on the
// sequential path untouched.

#include <cstdlib>
#include <thread>

#include "core/engine.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace provnet {

void Engine::ChargeLink(NodeId from, NodeId to, uint8_t msg_kind,
                        uint64_t bytes) {
  ExecSlot& ex = exec();
  if (ex.buffered) {
    // Interning a new link cell mutates the registry; defer to the barrier.
    ex.link_charges.push_back(ExecSlot::LinkCharge{from, to, msg_kind, bytes});
    return;
  }
  LinkBytesCell(from, to, msg_kind)->value += bytes;
}

void Engine::TraceSampled(obs::TraceEvent ev) {
  ExecSlot& ex = exec();
  if (ex.buffered) {
    ExecSlot::Effect fx;
    fx.kind = ExecSlot::Effect::Kind::kTrace;
    fx.trace = std::move(ev);
    fx.sampled = true;
    ex.effects->push_back(std::move(fx));
    return;
  }
  tracer_.EmitSampled(std::move(ev));
}

void Engine::NotePredSite(const std::string& pred, NodeId node) {
  ExecSlot& ex = exec();
  if (ex.buffered) {
    ex.pred_sites.emplace_back(pred, node);
    return;
  }
  pred_sites_[pred].insert(node);
}

size_t Engine::ResolvedThreads() {
  if (resolved_threads_ != 0) return resolved_threads_;
  size_t threads = options_.threads;
  if (threads == 1) {
    // Only the untouched default is overridable: an explicit option wins.
    if (const char* env = std::getenv("PROVNET_THREADS")) {
      char* end = nullptr;
      unsigned long parsed = std::strtoul(env, &end, 10);
      if (end != env && *end == '\0') threads = static_cast<size_t>(parsed);
    }
  }
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  resolved_threads_ = threads;
  return resolved_threads_;
}

void Engine::EnsureParallelRuntime() {
  if (pool_ != nullptr) return;
  size_t threads = ResolvedThreads();
  PROVNET_CHECK(threads > 1);
  pool_ = std::make_unique<ThreadPool>(threads);
  worker_slots_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    auto slot = std::make_unique<ExecSlot>();
    slot->buffered = true;
    // Counter mirror: same shape as cells_, storage private to the lane.
    // Histograms stay null — no worker path records one.
    slot->cell_storage.resize(cells_.counters.size());
    for (obs::Counter& mirror : slot->cell_storage) {
      slot->cells.counters.push_back(&mirror);
    }
    worker_slots_.push_back(std::move(slot));
  }
}

void Engine::MergeWorkerSlots() {
  for (auto& slot : worker_slots_) {
    // Counter mirrors: positional sum into the registry-backed cells.
    for (size_t i = 0; i < cells_.counters.size(); ++i) {
      obs::Counter& mirror = slot->cell_storage[i];
      // Conditionally registered cells (durable-store instruments) are null
      // when their subsystem is off; their mirrors are never incremented.
      if (cells_.counters[i] != nullptr) {
        cells_.counters[i]->value += mirror.value;
      }
      mirror.value = 0;
    }
    for (const ExecSlot::LinkCharge& charge : slot->link_charges) {
      LinkBytesCell(charge.from, charge.to, charge.msg_kind)->value +=
          charge.bytes;
    }
    slot->link_charges.clear();
    for (const auto& [pred, node] : slot->pred_sites) {
      pred_sites_[pred].insert(node);
    }
    slot->pred_sites.clear();
  }
}

Status Engine::CommitEffects(std::vector<ExecSlot::Effect>& effects,
                             size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    ExecSlot::Effect& fx = effects[i];
    switch (fx.kind) {
      case ExecSlot::Effect::Kind::kSend:
        // The global wire order (sequence numbers, fault-injection taps,
        // byte meters) is established here, in canonical order.
        PROVNET_RETURN_IF_ERROR(
            net_.Send(fx.node, fx.peer, std::move(fx.payload)));
        break;
      case ExecSlot::Effect::Kind::kTrace:
        if (fx.sampled) {
          tracer_.EmitSampled(std::move(fx.trace));
        } else {
          tracer_.Emit(std::move(fx.trace));
        }
        break;
      case ExecSlot::Effect::Kind::kSecurity:
        // Re-enters the real (unbuffered) path: counter, trace, log.
        RecordSecurityEvent(fx.sec_kind, fx.node, fx.peer, fx.claimed,
                            std::move(fx.detail));
        break;
      case ExecSlot::Effect::Kind::kObserver:
        if (observer_) {
          observer_(fx.node, fx.observed, fx.outcome, net_.now());
        }
        break;
    }
  }
  return OkStatus();
}

Result<bool> Engine::TryParallelWave(uint64_t* steps) {
  // With the reliable transport on, frames must flow through Step(): it
  // sequences ack handling and retransmit timers against deliveries, and
  // that single sequential order is what keeps lossy runs byte-identical
  // at every thread count. (Framed payloads would also fail the kMsgTuple
  // eligibility check below; this just skips the wasted PopWave/Requeue.)
  if (net_.TransportEnabled()) return false;
  std::vector<NetMessage> wave = net_.PopWave();
  if (wave.empty()) return false;

  // Eligibility: several kMsgTuple messages fanning out to at least two
  // destinations. Anything else — retractions (they drive the shared
  // deletion-delta machinery), query traffic (shared session state), or a
  // single-destination wave — goes back untouched for the sequential
  // Step() path.
  bool eligible = wave.size() > 1;
  for (const NetMessage& msg : wave) {
    if (Envelope::TypeOf(msg.payload) != kMsgTuple) {
      eligible = false;
      break;
    }
  }
  if (eligible) {
    NodeId first = wave[0].to;
    bool multi_dest = false;
    for (const NetMessage& msg : wave) {
      if (msg.to != first) {
        multi_dest = true;
        break;
      }
    }
    eligible = multi_dest;
  }
  if (!eligible) {
    net_.Requeue(std::move(wave));
    return false;
  }

  // One unit per message: the delivery plus its full local cascade — the
  // sequential loop drains all spawned events before the next delivery
  // (the event branch outranks the network branch), and those cascades are
  // node-local, so per-destination serial processing reproduces it.
  struct Unit {
    size_t effect_end = 0;
    uint32_t events_processed = 0;
    Status status;
  };
  struct NodeRun {
    std::vector<const NetMessage*> msgs;  // in wave (seq) order
    std::deque<PendingEvent> queue;
    std::vector<ExecSlot::Effect> effects;
    std::vector<Unit> units;
  };

  std::vector<NodeRun> runs;
  std::vector<size_t> run_of_node(contexts_.size(), SIZE_MAX);
  std::vector<size_t> run_of_msg(wave.size(), 0);
  for (size_t i = 0; i < wave.size(); ++i) {
    size_t r = run_of_node[wave[i].to];
    if (r == SIZE_MAX) {
      r = runs.size();
      run_of_node[wave[i].to] = r;
      runs.push_back(NodeRun{});
    }
    run_of_msg[i] = r;
    runs[r].msgs.push_back(&wave[i]);
  }

  const bool prof = profiler_.enabled();
  const uint64_t compute_t0 = prof ? obs::Profiler::NowNs() : 0;
  pool_->Run(runs.size(), [this, &runs, prof](size_t index, size_t lane) {
    uint64_t lane_t0 = prof ? obs::Profiler::NowNs() : 0;
    NodeRun& run = runs[index];
    ExecSlot* slot = worker_slots_[lane].get();
    ExecSlot* saved = tls_slot_;
    tls_slot_ = slot;
    slot->events = &run.queue;
    slot->effects = &run.effects;
    for (const NetMessage* msg : run.msgs) {
      Unit unit;
      unit.status = HandleMessage(msg->to, msg->from, msg->payload);
      while (unit.status.ok() && !run.queue.empty()) {
        PendingEvent event = std::move(run.queue.front());
        run.queue.pop_front();
        ++unit.events_processed;
        unit.status = ProcessEvent(event);
      }
      unit.effect_end = run.effects.size();
      bool failed = !unit.status.ok();
      run.units.push_back(std::move(unit));
      if (failed) break;  // remaining messages stay unprocessed
    }
    slot->events = nullptr;
    slot->effects = nullptr;
    tls_slot_ = saved;
    if (prof) profiler_.AddLane(lane, obs::Profiler::NowNs() - lane_t0);
  });
  if (prof) {
    profiler_.AddPhase(obs::Phase::kParallelCompute,
                       obs::Profiler::NowNs() - compute_t0);
  }

  // Commit in wave (seq) order: per message, the delivery counter, its
  // effect segment, and the event counters of its cascade.
  const uint64_t commit_t0 = prof ? obs::Profiler::NowNs() : 0;
  std::vector<size_t> committed(runs.size(), 0);
  std::vector<size_t> effect_at(runs.size(), 0);
  Status result = OkStatus();
  for (size_t i = 0; i < wave.size() && result.ok(); ++i) {
    NodeRun& run = runs[run_of_msg[i]];
    size_t k = committed[run_of_msg[i]]++;
    if (k >= run.units.size()) {
      // An earlier message of this destination failed; its error already
      // terminated the commit loop, so this is unreachable — guard anyway.
      result = InternalError("wave unit missing after upstream failure");
      break;
    }
    Unit& unit = run.units[k];
    ++cells_[Ctr::kDeliveries]->value;
    cells_[Ctr::kEvents]->value += unit.events_processed;
    Status commit =
        CommitEffects(run.effects, effect_at[run_of_msg[i]], unit.effect_end);
    effect_at[run_of_msg[i]] = unit.effect_end;
    if (!commit.ok()) {
      result = commit;
      break;
    }
    if (!unit.status.ok()) {
      // The sequential engine surfaces handler errors through async_error_
      // on the next loop iteration; direct return is the same first error.
      result = unit.status;
      break;
    }
    *steps += 1 + unit.events_processed;
    if (*steps > kMaxSteps) {
      result = ResourceExhaustedError(
          "engine exceeded max_steps; divergent program?");
      break;
    }
  }
  MergeWorkerSlots();
  if (prof) {
    profiler_.AddPhase(obs::Phase::kCommitReplay,
                       obs::Profiler::NowNs() - commit_t0);
  }
  if (!result.ok()) return result;
  return true;
}

}  // namespace provnet
