#include "net/network.h"

#include <algorithm>
#include <limits>

#include "obs/mem.h"
#include "obs/metrics.h"
#include "util/hash.h"
#include "util/logging.h"

namespace provnet {
namespace {

uint64_t PairKey(NodeId from, NodeId to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

// Queued-message charge against obs::MemSubsystem::kNetworkQueues: payload
// plus the NetMessage envelope. Push/pop use the same number (the payload
// size is immutable while queued) so the gauge cannot drift.
uint64_t QueuedAccountedBytes(const NetMessage& msg) {
  return sizeof(NetMessage) + msg.payload.size();
}

// Transport frame markers. Engine wire kinds are small (1..4), so a framed
// payload is unambiguous from its first byte.
constexpr uint8_t kFrameData = 0xF1;
constexpr uint8_t kFrameAck = 0xF2;

bool IsFrame(const Bytes& payload) {
  return !payload.empty() &&
         (payload[0] == kFrameData || payload[0] == kFrameAck);
}

Bytes BuildDataFrame(uint64_t generation, uint64_t frame_seq,
                     const Bytes& payload) {
  ByteWriter w;
  w.PutU8(kFrameData);
  w.PutVarint(generation);
  w.PutVarint(frame_seq);
  w.PutU64(Fnv1a64(payload));
  w.PutRaw(payload.data(), payload.size());
  return std::move(w).Take();
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

bool Network::LinkRx::Accept(uint64_t seq) {
  if (seq < floor) return false;
  if (seq > floor) return above.insert(seq).second;
  ++floor;
  while (!above.empty() && *above.begin() == floor) {
    above.erase(above.begin());
    ++floor;
  }
  return true;
}

Network::Network(size_t num_nodes, double default_latency_s)
    : num_nodes_(num_nodes),
      default_latency_(default_latency_s),
      tx_bytes_(num_nodes, 0),
      rx_bytes_(num_nodes, 0),
      crashed_(num_nodes, 0) {}

Network::~Network() = default;

void Network::SetLatency(NodeId from, NodeId to, double latency_s) {
  link_latency_[PairKey(from, to)] = latency_s;
}

double Network::LatencyOf(NodeId from, NodeId to) const {
  auto it = link_latency_.find(PairKey(from, to));
  return it == link_latency_.end() ? default_latency_ : it->second;
}

void Network::EnableTransport() {
  transport_enabled_ = true;
  // Touch the transport counters so a telemetry snapshot shows them (at
  // zero) as soon as the subsystem is armed, not only after the first loss.
  TransportCounter("net.retransmits");
  TransportCounter("net.acks_received");
  TransportCounter("net.links_dead");
  TransportCounter("net.dup_deduped");
  TransportCounter("net.corrupt_dropped");
}

void Network::InstallFaultPlan(FaultPlan plan) {
  injector_ = std::make_unique<FaultInjector>(std::move(plan));
  FaultCounter("faults.losses");
  FaultCounter("faults.duplicates");
  FaultCounter("faults.corruptions");
  FaultCounter("faults.reorders");
  FaultCounter("faults.partition_drops");
}

obs::Counter* Network::TransportCounter(const char* name) {
  if (obs_ == nullptr) return nullptr;
  auto it = counters_.find(name);
  if (it != counters_.end()) return it->second;
  obs::Counter* c = obs_->GetCounter(name);
  counters_.emplace(name, c);
  return c;
}

obs::Counter* Network::FaultCounter(const char* name) {
  return TransportCounter(name);
}

obs::Counter* Network::DropCounter(DropCause cause) {
  if (obs_ == nullptr) return nullptr;
  const char* label = nullptr;
  switch (cause) {
    case DropCause::kTap:
      label = "tap";
      break;
    case DropCause::kFault:
      label = "fault";
      break;
    case DropCause::kPartition:
      label = "partition";
      break;
    case DropCause::kCrash:
      label = "crash";
      break;
    case DropCause::kDeadLink:
      label = "dead_link";
      break;
  }
  std::string key = std::string("net.dropped/") + label;
  auto it = counters_.find(key);
  if (it != counters_.end()) return it->second;
  obs::Counter* c = obs_->GetCounter("net.dropped", {{"cause", label}});
  counters_.emplace(std::move(key), c);
  return c;
}

void Network::CountDrop(DropCause cause) {
  ++dropped_messages_;
  if (obs::Counter* c = DropCounter(cause)) ++c->value;
}

Status Network::Send(NodeId from, NodeId to, Bytes payload) {
  if (from >= num_nodes_ || to >= num_nodes_) {
    return InvalidArgumentError("Send: node id out of range");
  }
  NetMessage msg;
  msg.from = from;
  msg.to = to;
  msg.send_time = now_;
  msg.deliver_time = now_ + LatencyOf(from, to);
  msg.payload = std::move(payload);
  double extra_delay = 0.0;
  if (tap_) {
    TapVerdict verdict = tap_(msg);
    if (verdict.drop) {
      CountDrop(DropCause::kTap);
      return OkStatus();  // suppressed before it touched the wire
    }
    if (verdict.extra_delay_s > 0.0) {
      extra_delay = verdict.extra_delay_s;
      ++delayed_messages_;
    }
  }
  if (!transport_enabled_) {
    msg.deliver_time += extra_delay;
    msg.seq = seq_++;
    total_bytes_ += msg.payload.size();
    total_messages_ += 1;
    tx_bytes_[from] += msg.payload.size();
    rx_bytes_[to] += msg.payload.size();
    obs::MemAccounting::Global().Add(obs::MemSubsystem::kNetworkQueues,
                                     QueuedAccountedBytes(msg));
    queue_.push(std::move(msg));
    return OkStatus();
  }

  // Transport path. The bandwidth meters charge each engine payload exactly
  // once, here — retransmissions and acks are overhead tallied separately,
  // so loss rates never skew the Figure 4 bandwidth reproduction.
  total_bytes_ += msg.payload.size();
  total_messages_ += 1;
  tx_bytes_[from] += msg.payload.size();
  rx_bytes_[to] += msg.payload.size();
  if (crashed_[from]) {
    CountDrop(DropCause::kCrash);
    return OkStatus();
  }
  LinkTx& tx = tx_links_[PairKey(from, to)];
  if (tx.dead) {
    CountDrop(DropCause::kDeadLink);
    return OkStatus();
  }
  uint64_t frame_seq = tx.next_seq++;
  LinkTx::Pending pending;
  pending.payload = std::move(msg.payload);
  pending.attempts = 1;
  pending.rto = kRtoInitialS;
  pending.next_retry = now_ + pending.rto;
  ArmTimer(PairKey(from, to), frame_seq, pending.next_retry);
  const Bytes& wire_payload =
      tx.unacked.emplace(frame_seq, std::move(pending)).first->second.payload;
  TransmitFrame(from, to, tx.generation, frame_seq, wire_payload, extra_delay,
                /*is_retransmit=*/false);
  return OkStatus();
}

void Network::TransmitFrame(NodeId from, NodeId to, uint64_t generation,
                            uint64_t frame_seq, const Bytes& payload,
                            double extra_delay_s, bool is_retransmit) {
  if (crashed_[from]) return;
  if (injector_ != nullptr) {
    if (injector_->Partitioned(from, to, now_)) {
      if (obs::Counter* c = FaultCounter("faults.partition_drops")) {
        ++c->value;
      }
      CountDrop(DropCause::kPartition);
      return;  // the pending entry stays; retransmission will retry
    }
    FaultInjector::Verdict v = injector_->OnTransmit(from, to);
    if (v.drop) {
      if (obs::Counter* c = FaultCounter("faults.losses")) ++c->value;
      CountDrop(DropCause::kFault);
      return;
    }
    Bytes framed = BuildDataFrame(generation, frame_seq, payload);
    if (v.corrupt) {
      framed.back() ^= 0x5A;  // checksum catches it at the receiver
      if (obs::Counter* c = FaultCounter("faults.corruptions")) ++c->value;
    }
    if (v.extra_delay_s > 0.0) {
      if (obs::Counter* c = FaultCounter("faults.reorders")) ++c->value;
    }
    double delay = extra_delay_s + v.extra_delay_s;
    if (v.duplicate) {
      if (obs::Counter* c = FaultCounter("faults.duplicates")) ++c->value;
      Enqueue(from, to, BuildDataFrame(generation, frame_seq, payload), delay);
    }
    Enqueue(from, to, std::move(framed), delay);
  } else {
    Enqueue(from, to, BuildDataFrame(generation, frame_seq, payload),
            extra_delay_s);
  }
  if (is_retransmit) {
    ++retransmits_;
    if (obs::Counter* c = TransportCounter("net.retransmits")) ++c->value;
  }
}

void Network::SendAck(NodeId from, NodeId to, uint64_t generation,
                      uint64_t frame_seq) {
  if (crashed_[from]) return;
  if (injector_ != nullptr) {
    if (injector_->Partitioned(from, to, now_)) {
      return;  // lost ack: the sender retransmits, the receiver re-acks
    }
    FaultInjector::Verdict v = injector_->OnTransmit(from, to);
    if (v.drop) return;
  }
  ByteWriter w;
  w.PutU8(kFrameAck);
  w.PutVarint(generation);
  w.PutVarint(frame_seq);
  Enqueue(from, to, std::move(w).Take(), 0.0);
}

void Network::Enqueue(NodeId from, NodeId to, Bytes framed,
                      double extra_delay_s) {
  NetMessage msg;
  msg.from = from;
  msg.to = to;
  msg.send_time = now_;
  msg.deliver_time = now_ + LatencyOf(from, to) + extra_delay_s;
  msg.payload = std::move(framed);
  msg.seq = seq_++;
  obs::MemAccounting::Global().Add(obs::MemSubsystem::kNetworkQueues,
                                   QueuedAccountedBytes(msg));
  queue_.push(std::move(msg));
}

void Network::ArmTimer(uint64_t link, uint64_t seq, double at) {
  timers_.insert(Timer{at, link, seq});
  ++timer_ops_;
}

void Network::DisarmTimer(uint64_t link, uint64_t seq, double at) {
  timer_ops_ += timers_.erase(Timer{at, link, seq});
}

void Network::ClearUnacked(uint64_t link, LinkTx& tx) {
  for (const auto& [seq, pending] : tx.unacked) {
    DisarmTimer(link, seq, pending.next_retry);
  }
  tx.unacked.clear();
}

double Network::NextRetransmitTime() const {
  return timers_.empty() ? kInf : timers_.begin()->at;
}

double Network::NextEventTime() const {
  double next = queue_.empty() ? kInf : queue_.top().deliver_time;
  return std::min(next, NextRetransmitTime());
}

void Network::FireRetransmits() {
  // Step() sets now_ to the earliest timer, so every due entry shares that
  // due time and the index yields them in (link key, frame seq) order. That
  // order fixes the per-link fault-RNG draws and the queue's FIFO
  // tie-break. A retransmitted frame re-arms strictly later, past the loop.
  while (!timers_.empty() && timers_.begin()->at <= now_) {
    Timer due = *timers_.begin();
    timers_.erase(timers_.begin());
    ++timer_ops_;
    LinkTx& tx = tx_links_.at(due.link);
    LinkTx::Pending& p = tx.unacked.at(due.seq);
    if (p.attempts >= kMaxAttempts) {
      // Retry budget exhausted: the link is dead. Surface it and stop
      // retrying everything queued behind the lost frame.
      tx.dead = true;
      ++links_dead_;
      if (obs::Counter* c = TransportCounter("net.links_dead")) ++c->value;
      ClearUnacked(due.link, tx);
      continue;
    }
    ++p.attempts;
    p.rto = std::min(p.rto * kRtoBackoff, kRtoMaxS);
    p.next_retry = now_ + p.rto;
    ArmTimer(due.link, due.seq, p.next_retry);
    TransmitFrame(static_cast<NodeId>(due.link >> 32),
                  static_cast<NodeId>(due.link & 0xFFFFFFFFu), tx.generation,
                  due.seq, p.payload, 0.0, /*is_retransmit=*/true);
  }
}

void Network::HandleFrame(const NetMessage& msg) {
  ByteReader reader(msg.payload);
  Result<uint8_t> kind = reader.GetU8();
  Result<uint64_t> generation = reader.GetVarint();
  Result<uint64_t> frame_seq = reader.GetVarint();
  if (!kind.ok() || !generation.ok() || !frame_seq.ok()) {
    ++corrupt_dropped_;
    if (obs::Counter* c = TransportCounter("net.corrupt_dropped")) ++c->value;
    return;
  }
  if (kind.value() == kFrameAck) {
    if (crashed_[msg.to]) return;
    auto it = tx_links_.find(PairKey(msg.to, msg.from));
    if (it == tx_links_.end()) return;
    LinkTx& tx = it->second;
    if (generation.value() != tx.generation) return;  // pre-restart ack
    auto pending = tx.unacked.find(frame_seq.value());
    if (pending != tx.unacked.end()) {
      DisarmTimer(it->first, pending->first, pending->second.next_retry);
      tx.unacked.erase(pending);
      ++acks_received_;
      if (obs::Counter* c = TransportCounter("net.acks_received")) {
        ++c->value;
      }
    }
    return;
  }
  // Data frame.
  if (crashed_[msg.to]) {
    CountDrop(DropCause::kCrash);
    return;
  }
  Result<uint64_t> checksum = reader.GetU64();
  if (!checksum.ok()) {
    ++corrupt_dropped_;
    if (obs::Counter* c = TransportCounter("net.corrupt_dropped")) ++c->value;
    return;
  }
  Bytes payload(msg.payload.begin() + reader.position(), msg.payload.end());
  if (Fnv1a64(payload) != checksum.value()) {
    // Bit rot on the wire: drop silently; the sender's retransmission
    // carries a clean copy.
    ++corrupt_dropped_;
    if (obs::Counter* c = TransportCounter("net.corrupt_dropped")) ++c->value;
    return;
  }
  // Ack every structurally-valid data frame, duplicates included — the
  // duplicate may mean our previous ack was lost.
  SendAck(msg.to, msg.from, generation.value(), frame_seq.value());
  LinkRx& rx = rx_links_[PairKey(msg.from, msg.to)];
  if (generation.value() < rx.generation) {
    ++dup_deduped_;
    if (obs::Counter* c = TransportCounter("net.dup_deduped")) ++c->value;
    return;
  }
  if (generation.value() > rx.generation) {
    rx = LinkRx{};  // the sender restarted: fresh record
    rx.generation = generation.value();
  }
  if (!rx.Accept(frame_seq.value())) {
    // Duplicate (fault-plan duplication or a retransmission racing its
    // ack): swallowed below the engine, so verification never sees it and
    // no kReplay security event can fire for an honest duplicate.
    ++dup_deduped_;
    if (obs::Counter* c = TransportCounter("net.dup_deduped")) ++c->value;
    return;
  }
  ++deliveries_;
  if (handler_) handler_(msg.to, msg.from, payload);
}

bool Network::Step() {
  double retry_at = NextRetransmitTime();
  if (queue_.empty()) {
    if (retry_at == kInf) return false;
    now_ = retry_at;
    FireRetransmits();
    return true;
  }
  if (retry_at < queue_.top().deliver_time) {
    now_ = retry_at;
    FireRetransmits();
    return true;
  }
  NetMessage msg = queue_.top();
  queue_.pop();
  obs::MemAccounting::Global().Sub(obs::MemSubsystem::kNetworkQueues,
                                   QueuedAccountedBytes(msg));
  now_ = msg.deliver_time;
  if (transport_enabled_ && IsFrame(msg.payload)) {
    HandleFrame(msg);
    return true;
  }
  if (crashed_[msg.to]) {
    CountDrop(DropCause::kCrash);
    return true;
  }
  ++deliveries_;
  if (handler_) handler_(msg.to, msg.from, msg.payload);
  return true;
}

size_t Network::Run(size_t max_messages) {
  size_t delivered = 0;
  while (delivered < max_messages && Step()) ++delivered;
  return delivered;
}

std::vector<NetMessage> Network::PopWave() {
  std::vector<NetMessage> wave;
  if (queue_.empty()) return wave;
  const double t = queue_.top().deliver_time;
  now_ = t;
  // Exact double comparison is intentional: wave membership means "computed
  // the same delivery instant", not "close in time".
  while (!queue_.empty() && queue_.top().deliver_time == t) {
    wave.push_back(queue_.top());
    queue_.pop();
    obs::MemAccounting::Global().Sub(obs::MemSubsystem::kNetworkQueues,
                                     QueuedAccountedBytes(wave.back()));
  }
  return wave;
}

void Network::Requeue(std::vector<NetMessage> messages) {
  for (NetMessage& msg : messages) {
    obs::MemAccounting::Global().Add(obs::MemSubsystem::kNetworkQueues,
                                     QueuedAccountedBytes(msg));
    queue_.push(std::move(msg));
  }
}

void Network::AdvanceTime(double seconds) {
  PROVNET_CHECK(seconds >= 0);
  now_ += seconds;
}

void Network::AdvanceTo(double t) {
  PROVNET_CHECK(t >= now_);
  now_ = t;
}

void Network::PurgeQueueFor(NodeId node) {
  std::vector<NetMessage> keep;
  while (!queue_.empty()) {
    NetMessage msg = queue_.top();
    queue_.pop();
    obs::MemAccounting::Global().Sub(obs::MemSubsystem::kNetworkQueues,
                                     QueuedAccountedBytes(msg));
    if (msg.from == node || msg.to == node) {
      CountDrop(DropCause::kCrash);
      continue;
    }
    keep.push_back(std::move(msg));
  }
  Requeue(std::move(keep));
}

void Network::SetCrashed(NodeId node, bool crashed) {
  PROVNET_CHECK(node < num_nodes_);
  if (crashed) {
    crashed_[node] = 1;
    // In-flight messages touching the node vanish with it.
    PurgeQueueFor(node);
    for (auto& [key, tx] : tx_links_) {
      if (static_cast<NodeId>(key >> 32) == node) ClearUnacked(key, tx);
    }
    // The node's receive records were in memory.
    for (auto it = rx_links_.begin(); it != rx_links_.end();) {
      if (static_cast<NodeId>(it->first & 0xFFFFFFFFu) == node) {
        it = rx_links_.erase(it);
      } else {
        ++it;
      }
    }
  } else {
    crashed_[node] = 0;
    for (auto& [key, tx] : tx_links_) {
      NodeId from = static_cast<NodeId>(key >> 32);
      NodeId to = static_cast<NodeId>(key & 0xFFFFFFFFu);
      if (from == node) {
        // Fresh outbound sessions: peers reset their receive records on
        // the higher generation.
        ++tx.generation;
        tx.next_seq = 1;
        tx.dead = false;
      } else if (to == node) {
        // Links peers gave up on while the node was down come back.
        tx.dead = false;
        // Restart every surviving pending's backoff clock so recovery
        // retransmissions happen promptly after the restart.
        for (auto& [seq, pending] : tx.unacked) {
          DisarmTimer(key, seq, pending.next_retry);
          pending.rto = kRtoInitialS;
          pending.next_retry = now_ + pending.rto;
          ArmTimer(key, seq, pending.next_retry);
        }
      }
    }
  }
}

uint64_t Network::bytes_sent_by(NodeId node) const {
  PROVNET_CHECK(node < num_nodes_);
  return tx_bytes_[node];
}

uint64_t Network::bytes_received_by(NodeId node) const {
  PROVNET_CHECK(node < num_nodes_);
  return rx_bytes_[node];
}

void Network::ResetMeters() {
  total_bytes_ = 0;
  total_messages_ = 0;
  tx_bytes_.assign(num_nodes_, 0);
  rx_bytes_.assign(num_nodes_, 0);
}

}  // namespace provnet
