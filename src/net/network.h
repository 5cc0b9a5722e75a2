// Discrete-event network simulator.
//
// Replaces the paper's deployment of up to 100 P2 OS processes on one host.
// All node contexts run in-process; messages are serialized byte buffers
// delivered through a virtual-time priority queue. Two meters drive the
// evaluation:
//   * bandwidth  - every payload byte enqueued via Send() is charged to the
//     sender, the receiver, and the global counter (Figure 4's metric);
//   * time       - virtual time advances by per-link latency, and the
//     caller separately measures real wall-clock work (Figure 3's metric,
//     since the paper's numbers are CPU-bound on one host too).
//
// Reliable transport (opt-in, EnableTransport): engine payloads are wrapped
// in checksummed data frames carrying a per-link (generation, seq) pair;
// receivers ack every frame and dedup duplicates against an exact record
// of the sequences each link delivered, and senders retransmit unacked
// frames with exponential backoff in virtual time until a bounded retry
// budget declares the link dead. Every unacked
// frame owns exactly one entry in an ordered timer index keyed by
// (next_retry, link, frame seq), kept in step on send, ack, retransmit,
// link death, crash and restart: the next timer is the index's first
// entry and firing pops the due prefix, so a step costs O(log pending)
// instead of a walk over every unacked frame. Dedup happens
// *below* the engine handler, so a retransmitted honest message never
// reaches the adversary layer's ReplayGuard — only genuinely replayed
// signed bytes (which arrive under a fresh frame seq) do. Acks and
// retransmissions are transport overhead: they are excluded from the
// bandwidth meters (which keep counting each engine payload exactly once)
// and tallied separately. With transport off, the wire format and every
// meter are byte-identical to the lossless FIFO this class has always been.
//
// Fault injection (InstallFaultPlan, src/net/faults.h) perturbs *framed*
// transmissions: loss, duplication, corruption, reorder delay, and timed
// partitions, all drawn from a counter-based RNG so runs are reproducible.
// The adversary send tap keeps observing unframed engine payloads before
// any of this — an adversarial drop is final (never retransmitted), while a
// benign fault-plan loss is masked by retransmission.
#ifndef PROVNET_NET_NETWORK_H_
#define PROVNET_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "datalog/value.h"
#include "net/faults.h"
#include "util/bytes.h"
#include "util/status.h"

namespace provnet {

namespace obs {
class Registry;
struct Counter;
}  // namespace obs

struct NetMessage {
  NodeId from = 0;
  NodeId to = 0;
  Bytes payload;
  double send_time = 0.0;
  double deliver_time = 0.0;
  uint64_t seq = 0;  // FIFO tie-break for equal delivery times
};

class Network {
 public:
  // The ack/retransmit machinery's timing, in virtual seconds: the first
  // retransmission timeout, doubled per retry up to the ceiling, and the
  // transmissions after which the link is declared dead.
  static constexpr double kRtoInitialS = 0.05;
  static constexpr double kRtoBackoff = 2.0;
  static constexpr double kRtoMaxS = 2.0;
  static constexpr size_t kMaxAttempts = 10;

  // `default_latency_s` applies to pairs without an explicit link latency.
  explicit Network(size_t num_nodes, double default_latency_s = 0.01);
  ~Network();

  size_t num_nodes() const { return num_nodes_; }

  // Overrides the latency of the (from, to) pair.
  void SetLatency(NodeId from, NodeId to, double latency_s);

  // Enqueues a message for delivery at now + latency. Bytes are charged to
  // the meters immediately (unless a send tap drops the message first).
  Status Send(NodeId from, NodeId to, Bytes payload);

  // --- Reliable transport & fault injection ---------------------------------
  void EnableTransport();
  bool TransportEnabled() const { return transport_enabled_; }
  // Installs benign faults (implies nothing about transport: callers who
  // want loss masked must also EnableTransport).
  void InstallFaultPlan(FaultPlan plan);
  const FaultInjector* fault_injector() const { return injector_.get(); }

  // Registry for the transport/fault/drop counters (net.*, faults.*).
  // Counters are registered lazily — only when transport or a fault plan
  // activates, or on the first tap drop — so telemetry snapshots of
  // fault-free runs keep exactly their historical key set.
  void SetObsRegistry(obs::Registry* registry) { obs_ = registry; }

  // Fail-stop crash state. While crashed, every delivery to (and queued
  // message from) the node is discarded. Crashing purges the node's
  // outbound retransmit state and its receive records (in-memory loss);
  // un-crashing (restart) bumps the node's outbound link generations so
  // peers reset their receive records, and revives links peers had
  // declared dead while the node was down.
  void SetCrashed(NodeId node, bool crashed);
  bool IsCrashed(NodeId node) const { return crashed_[node] != 0; }

  // --- Fault injection (src/adversary/) -------------------------------------
  // A send tap observes every message before it is queued and may drop it or
  // add delivery delay — the hook the Byzantine fault-injection layer uses
  // for selective suppression, delaying, and wire capture. Dropped messages
  // are never metered (they never reach the wire); they are counted
  // separately. Honest deployments install no tap and behave exactly as
  // before. The tap sees the *unframed* engine payload: transport framing
  // happens after it, so an adversarial drop is never retransmitted.
  struct TapVerdict {
    bool drop = false;
    double extra_delay_s = 0.0;  // added on top of the link latency
  };
  using SendTap = std::function<TapVerdict(const NetMessage&)>;
  void SetSendTap(SendTap tap) { tap_ = std::move(tap); }
  void ClearSendTap() { tap_ = nullptr; }
  uint64_t dropped_messages() const { return dropped_messages_; }
  uint64_t delayed_messages() const { return delayed_messages_; }

  // Delivery callback: (to, from, payload).
  using Handler = std::function<void(NodeId, NodeId, const Bytes&)>;
  void SetHandler(Handler handler) { handler_ = std::move(handler); }

  // Delivers the next event (advancing virtual time): an engine payload, a
  // transport frame, or a retransmission timer. False when idle.
  bool Step();

  // Runs until no messages remain or `max_messages` deliveries happened.
  // Returns the number of deliveries.
  size_t Run(size_t max_messages = SIZE_MAX);

  // Pops every message due at the earliest delivery time — one delivery
  // "wave" — advancing virtual time to it. Returned in ascending seq order,
  // exactly the order repeated Step() calls would have delivered them.
  // Empty when idle. The handler is NOT invoked. The parallel executor
  // shards a wave across worker lanes; Requeue() hands back a wave it
  // decided not to process. Callers must not use waves while transport is
  // enabled (frames and retransmission timers need Step()'s sequencing);
  // the parallel executor checks TransportEnabled() first.
  std::vector<NetMessage> PopWave();
  // Re-enqueues messages previously popped by PopWave(). Sequence numbers,
  // meters, and send taps are not re-applied — the messages were already
  // charged and tapped when first sent.
  void Requeue(std::vector<NetMessage> messages);

  bool Idle() const { return queue_.empty() && timers_.empty(); }
  double now() const { return now_; }
  // Advances virtual time when the network is idle (for TTL experiments).
  void AdvanceTime(double seconds);
  // Jumps virtual time forward to `t` (>= now). The caller guarantees no
  // queued event is due before `t` — used by deadline-driven loops (query
  // timeouts, scripted crash/restart events).
  void AdvanceTo(double t);
  // Virtual time of the next queued delivery or retransmission timer;
  // +infinity when idle.
  double NextEventTime() const;

  // --- Meters ---------------------------------------------------------------
  // Point-in-time meter snapshot; subtract two to charge a window (the
  // churn driver's per-event bandwidth accounting).
  struct Meters {
    uint64_t bytes = 0;
    uint64_t messages = 0;
  };
  Meters MeterSnapshot() const { return {total_bytes_, total_messages_}; }
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t total_messages() const { return total_messages_; }
  uint64_t bytes_sent_by(NodeId node) const;
  uint64_t bytes_received_by(NodeId node) const;
  void ResetMeters();

  // Engine-payload deliveries (handler invocations) so far. Transport
  // frames, acks, and timer firings are not deliveries.
  uint64_t deliveries() const { return deliveries_; }
  // Transport tallies (all zero while transport is off).
  uint64_t retransmits() const { return retransmits_; }
  uint64_t acks_received() const { return acks_received_; }
  uint64_t links_dead() const { return links_dead_; }
  uint64_t duplicates_deduped() const { return dup_deduped_; }
  uint64_t corrupt_dropped() const { return corrupt_dropped_; }
  // Retransmission-timer work: inserts, erases and due-pops on the timer
  // index. Deterministic, and kept out of the metrics registry (like the
  // profiler) so telemetry goldens do not see it.
  uint64_t timer_ops() const { return timer_ops_; }

 private:
  struct Later {
    bool operator()(const NetMessage& a, const NetMessage& b) const {
      if (a.deliver_time != b.deliver_time) {
        return a.deliver_time > b.deliver_time;
      }
      return a.seq > b.seq;
    }
  };

  // Why a message never reached (or left) the wire.
  enum class DropCause { kTap, kFault, kPartition, kCrash, kDeadLink };

  // Sender-side state of one directed link.
  struct LinkTx {
    uint64_t generation = 1;
    uint64_t next_seq = 1;
    bool dead = false;
    struct Pending {
      Bytes payload;  // unframed engine payload
      size_t attempts = 1;
      double rto = 0.0;
      double next_retry = 0.0;
    };
    std::map<uint64_t, Pending> unacked;  // frame seq -> pending (ordered)
  };

  // A retransmission timer: one per unacked frame. Ordered by due time,
  // then link key, then frame seq.
  struct Timer {
    double at = 0.0;
    uint64_t link = 0;
    uint64_t seq = 0;
    friend auto operator<=>(const Timer&, const Timer&) = default;
  };

  // Receiver-side record of one directed link: every sequence below
  // `floor` was delivered, and `above` holds exactly the delivered
  // sequences past it. In-order frames only advance the floor, so the set
  // holds just the frames that overtook a lost one, and a frame is
  // rejected only if it really was delivered before. (A receiver reborn
  // from a crash starts at floor 1; frames acked before the crash are never
  // resent, so on such a link the set keeps every later frame.)
  struct LinkRx {
    uint64_t generation = 0;
    uint64_t floor = 1;  // LinkTx numbers frames from 1
    std::set<uint64_t> above;
    // True, recording `seq`, when the frame was not delivered before.
    bool Accept(uint64_t seq);
  };

  double LatencyOf(NodeId from, NodeId to) const;
  void CountDrop(DropCause cause);
  // Frames `payload` and puts it on the wire (fault plan applied). One
  // transmission attempt; retransmissions call it again.
  void TransmitFrame(NodeId from, NodeId to, uint64_t generation,
                     uint64_t frame_seq, const Bytes& payload,
                     double extra_delay_s, bool is_retransmit);
  void SendAck(NodeId from, NodeId to, uint64_t generation,
               uint64_t frame_seq);
  void Enqueue(NodeId from, NodeId to, Bytes framed, double extra_delay_s);
  void HandleFrame(const NetMessage& msg);
  void ArmTimer(uint64_t link, uint64_t seq, double at);
  void DisarmTimer(uint64_t link, uint64_t seq, double at);
  // Disarms and drops every unacked frame of the link.
  void ClearUnacked(uint64_t link, LinkTx& tx);
  double NextRetransmitTime() const;
  void FireRetransmits();
  void PurgeQueueFor(NodeId node);
  obs::Counter* TransportCounter(const char* name);
  obs::Counter* DropCounter(DropCause cause);
  obs::Counter* FaultCounter(const char* name);

  size_t num_nodes_;
  double default_latency_;
  std::unordered_map<uint64_t, double> link_latency_;  // key = from<<32|to
  Handler handler_;
  SendTap tap_;
  uint64_t dropped_messages_ = 0;
  uint64_t delayed_messages_ = 0;
  std::priority_queue<NetMessage, std::vector<NetMessage>, Later> queue_;
  double now_ = 0.0;
  uint64_t seq_ = 0;
  uint64_t total_bytes_ = 0;
  uint64_t total_messages_ = 0;
  std::vector<uint64_t> tx_bytes_;
  std::vector<uint64_t> rx_bytes_;
  uint64_t deliveries_ = 0;

  // Transport + faults (inert until EnableTransport / InstallFaultPlan).
  bool transport_enabled_ = false;
  std::unique_ptr<FaultInjector> injector_;
  std::map<uint64_t, LinkTx> tx_links_;  // key = from<<32|to
  std::map<uint64_t, LinkRx> rx_links_;  // key = from<<32|to
  std::set<Timer> timers_;  // exactly one entry per unacked frame
  uint64_t timer_ops_ = 0;
  std::vector<char> crashed_;
  uint64_t retransmits_ = 0;
  uint64_t acks_received_ = 0;
  uint64_t links_dead_ = 0;
  uint64_t dup_deduped_ = 0;
  uint64_t corrupt_dropped_ = 0;

  obs::Registry* obs_ = nullptr;
  std::unordered_map<std::string, obs::Counter*> counters_;  // lazy cache
};

}  // namespace provnet

#endif  // PROVNET_NET_NETWORK_H_
