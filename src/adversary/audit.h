// Security audit events and anti-replay state — the bookkeeping half of the
// receive-side verification pipeline.
//
// The paper's security argument (Sections 2.2, 4.3) is that authenticated
// provenance lets honest nodes *attribute* misbehavior: every rejected
// message is evidence against a principal, and every accepted tuple carries
// a signed assertion chain. This module records the evidence: each
// verification rejection becomes a SecurityEvent in an engine-wide
// SecurityLog (timestamped in virtual time, so detection latency is
// measurable), and each (receiver, sender-principal) pair maintains a
// ReplayGuard — the set of sequence numbers it accepted — that rejects
// re-sent authenticated messages.
#ifndef PROVNET_ADVERSARY_AUDIT_H_
#define PROVNET_ADVERSARY_AUDIT_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "crypto/keystore.h"
#include "datalog/value.h"

namespace provnet {

enum class SecurityEventKind : uint8_t {
  kBadSignature = 0,        // says tag failed cryptographic verification
  kMissingSignature = 1,    // authenticated network, no says tag attached
  kUnknownPrincipal = 2,    // principal outside the deployment's PKI
  kReplay = 3,              // sequence number already accepted
  kMisdirected = 4,         // signed destination != receiving node
  kUnauthorizedRetract = 5, // retraction from a principal that never
                            // asserted the tuple (and holds no capability)
  kMalformed = 6,           // verified sender shipped unparseable content
  kBogusResponse = 7,       // kMsgProvResponse answering no outstanding
                            // query (wrong id/responder/digest, or none)
  kForeignProvenance = 8,   // piggybacked annotation cube omitting the
                            // sender's own variable (framing attempt)
  kSilentResponder = 9,     // claims-exchange responder that never answered
                            // the auditor (suppression is itself evidence)
};

// Number of SecurityEventKind values; the engine pre-registers one
// rejection counter per kind so every snapshot has the full schema even
// when a run sees no attacks.
inline constexpr size_t kNumSecurityEventKinds = 10;

const char* SecurityEventKindName(SecurityEventKind kind);

// One verification rejection, with enough context to attribute it.
struct SecurityEvent {
  double at = 0.0;        // virtual time of the rejection
  SecurityEventKind kind = SecurityEventKind::kBadSignature;
  NodeId node = 0;        // the rejecting (honest) node
  NodeId from = 0;        // transport-level sender
  Principal claimed;      // principal the message claimed to speak for
  std::string detail;     // free-form evidence (tuple, seq, ...)

  std::string ToString() const;
};

// Engine-wide audit sink. Append-only within a run; the attack-campaign
// scorer reads it incrementally (EventsSince) to match rejections to
// injected attacks and measure detection latency.
class SecurityLog {
 public:
  void Record(SecurityEvent event) { events_.push_back(std::move(event)); }

  const std::vector<SecurityEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  size_t CountOf(SecurityEventKind kind) const;
  // Events with index >= `mark` (a cursor previously read from size()).
  std::vector<const SecurityEvent*> EventsSince(size_t mark) const;
  void Clear() { events_.clear(); }

 private:
  std::vector<SecurityEvent> events_;
};

// Anti-replay record for one (receiver, sender-principal) pair. Sequence
// numbers are issued monotonically per sender principal; a receiver sees an
// increasing (but gappy — one counter feeds many receivers) subsequence.
// Accept() keeps the exact set of sequences it accepted, so any reordering
// passes while any duplicate — the replayed message — is rejected: a frame
// whose original was lost and retransmitted arrives arbitrarily late but
// *fresh*, and must not be booked as a replay (the loss-vs-malice
// distinction the fault-tolerant transport depends on), while a captured
// message re-sent by an attacker was genuinely accepted once and is
// rejected however old it is. Memory grows with accepted traffic per
// principal pair — the price of zero false positives on loss-delayed
// honest frames.
class ReplayGuard {
 public:
  // True if `seq` is fresh (records it); false on replay.
  bool Accept(uint64_t seq) { return accepted_.insert(seq).second; }

 private:
  std::unordered_set<uint64_t> accepted_;
};

}  // namespace provnet

#endif  // PROVNET_ADVERSARY_AUDIT_H_
