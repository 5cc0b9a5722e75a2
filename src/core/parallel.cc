// Sharded parallel execution of the network fixpoint (ISSUE 7 tentpole).
//
// The sequential engine is a single loop over three queues: retraction
// deltas, local delta events, and the virtual-time network. Two of its
// phases are embarrassingly shardable *by node* — local event cascades
// never leave their node (a rule firing either delivers locally or sends a
// message, and messages sit in the network queue until their delivery
// instant), and a delivery wave (all messages due at the earliest instant)
// fans out across destinations. What is NOT shardable is the observable
// order: network sequence numbers, trace streams, the security log, the
// observer callback, and MIN/MAX aggregate races between same-instant
// deliveries all depend on the sequential interleaving.
//
// The executor therefore splits every parallel phase into two halves:
//
//   compute (parallel)  - worker lanes run the slot-compiled joins against
//     node-local tables, buffering every externally visible side effect
//     (sends, traces, security events, observer calls) into per-node effect
//     streams, and counting into per-lane counter mirrors;
//   commit (sequential) - the main thread replays the effect streams in the
//     exact order the sequential engine would have produced them — FIFO
//     token order for event epochs, wave seq order for deliveries — and
//     merges the counter mirrors (sums, so merge order is free).
//
// Because table mutations are node-local and every cross-node interaction
// is a buffered effect committed canonically, the fixpoint, every counter,
// the trace stream, and the security log are byte-identical at every
// thread count. Ineligible work (retractions, query traffic, single-node
// waves) falls back to the sequential path untouched.

#include <cstdlib>
#include <thread>

#include "core/engine.h"
#include "dynamics/delta.h"
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

Status Engine::ParallelDrainEvents(uint64_t* steps) {
  // Per-node shard of the epoch: the node's FIFO of delta events (seeded
  // from the global queue, extended by its own cascades), its effect
  // stream, and one bookkeeping unit per processed event.
  struct Unit {
    size_t effect_end = 0;  // effects[..effect_end) committed through here
    uint32_t spawned = 0;   // events this event pushed onto the node queue
    Status status;
  };
  struct NodeRun {
    NodeId node = 0;
    std::deque<PendingEvent> queue;
    std::vector<ExecSlot::Effect> effects;
    std::vector<Unit> units;
  };

  // Partition the queue by node, remembering the global FIFO order as a
  // token stream of node ids. Replaying tokens — appending `spawned` tokens
  // at commit — reproduces the exact pop order of the sequential loop.
  std::vector<NodeRun> runs;
  std::vector<size_t> run_of_node(contexts_.size(), SIZE_MAX);
  std::deque<size_t> tokens;  // indexes into `runs`
  for (PendingEvent& event : events_) {
    size_t r = run_of_node[event.node];
    if (r == SIZE_MAX) {
      r = runs.size();
      run_of_node[event.node] = r;
      runs.push_back(NodeRun{});
      runs.back().node = event.node;
    }
    tokens.push_back(r);
    runs[r].queue.push_back(std::move(event));
  }
  events_.clear();

  if (runs.size() < 2) {
    // Single-node epoch: nothing to shard. Drain sequentially (identical to
    // the caller's event branch repeated to quiescence).
    NodeRun& run = runs[0];
    while (!run.queue.empty()) {
      PendingEvent event = std::move(run.queue.front());
      run.queue.pop_front();
      ++cells_[Ctr::kEvents]->value;
      PROVNET_RETURN_IF_ERROR(ProcessEvent(event));
      while (!events_.empty()) {
        PendingEvent next = std::move(events_.front());
        events_.pop_front();
        ++cells_[Ctr::kEvents]->value;
        PROVNET_RETURN_IF_ERROR(ProcessEvent(next));
        if (++*steps > kMaxSteps) {
          return ResourceExhaustedError(
              "engine exceeded max_steps; divergent program?");
        }
      }
      if (++*steps > kMaxSteps) {
        return ResourceExhaustedError(
            "engine exceeded max_steps; divergent program?");
      }
    }
    return OkStatus();
  }

  // Compute phase: each lane runs one node's queue to quiescence. Cascades
  // are strictly node-local (a rule firing either delivers at its own node
  // or buffers a kSend effect), so shards share no mutable state.
  // kParallelCompute meters the whole pool dispatch (compute + barrier
  // stall); AddLane meters each lane's busy slice — the gap between the two
  // is the stall the lane-utilization gauges expose.
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
    size_t processed = 0;
    while (processed < run.queue.size()) {
      // Process in place (no pop): queue indexes stay aligned with the
      // token replay's per-node consumption order.
      const PendingEvent& event = run.queue[processed];
      size_t queued_before = run.queue.size();
      Unit unit;
      unit.status = ProcessEvent(event);
      unit.effect_end = run.effects.size();
      unit.spawned = static_cast<uint32_t>(run.queue.size() - queued_before);
      ++processed;
      bool failed = !unit.status.ok();
      run.units.push_back(std::move(unit));
      if (failed) break;  // canonical replay surfaces it in order
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

  // Commit phase: replay the global FIFO by token, committing each event's
  // effect segment and appending the tokens its cascade spawned — the same
  // order the sequential loop would have popped.
  const uint64_t commit_t0 = prof ? obs::Profiler::NowNs() : 0;
  std::vector<size_t> committed(runs.size(), 0);   // units consumed
  std::vector<size_t> effect_at(runs.size(), 0);   // effects committed
  Status result = OkStatus();
  while (!tokens.empty() && result.ok()) {
    size_t r = tokens.front();
    tokens.pop_front();
    NodeRun& run = runs[r];
    size_t k = committed[r]++;
    PROVNET_CHECK(k < run.units.size());
    Unit& unit = run.units[k];
    ++cells_[Ctr::kEvents]->value;
    Status commit = CommitEffects(run.effects, effect_at[r], unit.effect_end);
    effect_at[r] = unit.effect_end;
    if (!commit.ok()) {
      result = commit;
      break;
    }
    if (!unit.status.ok()) {
      result = unit.status;
      break;
    }
    for (uint32_t s = 0; s < unit.spawned; ++s) tokens.push_back(r);
    if (++*steps > kMaxSteps) {
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
  return result;
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
