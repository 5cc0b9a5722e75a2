// The wire envelope: one codec for all four message kinds (SeNDlog's
// `says`, Sections 2.2 and 4.3).
//
// Every message on the simulated wire is
//
//   [type][blob: content][has_says][says tag, when has_says != 0]
//
// and its content — the bytes the says tag signs — opens with a signed
// prefix before the kind-specific body:
//
//   [(seq, dest) varints, authenticated deployments only]
//   [(trace_id, span_id) varints]
//   [body]
//
// The (seq, dest) header is what the receiver's anti-replay record and
// destination check read; the causal pair is the message's span
// (core/causal.h). Honest senders (Engine::SealAndShip), the receive-side
// dispatcher (Engine::HandleMessage) and the fault-injection layer
// (src/adversary/) all write and read the layout through this file only.
#ifndef PROVNET_CORE_ENVELOPE_H_
#define PROVNET_CORE_ENVELOPE_H_

#include <cstdint>
#include <optional>

#include "core/causal.h"
#include "crypto/authenticator.h"
#include "util/bytes.h"
#include "util/status.h"

namespace provnet {

// Wire message tags.
inline constexpr uint8_t kMsgTuple = 1;
inline constexpr uint8_t kMsgProvRequest = 2;
inline constexpr uint8_t kMsgProvResponse = 3;
inline constexpr uint8_t kMsgRetract = 4;

// Human label of a wire message tag ("tuple", "prov_request",
// "prov_response", "retract"), for per-link byte counters, trace events and
// audit details.
const char* MsgKindName(uint8_t type);

struct Envelope {
  uint8_t type = 0;
  Bytes content;               // signed prefix + body: what the tag signs
  std::optional<SaysTag> tag;  // absent = has_says 0

  // `tag_bytes`, when given, receives the encoded tag's length (the says
  // share of the message's bytes).
  Bytes Encode(size_t* tag_bytes = nullptr) const;
  // Refuses an unknown type before reading anything else; truncation
  // surfaces as kOutOfRange.
  static Result<Envelope> Decode(const Bytes& wire);
  // The type byte of an encoded message without decoding it (0 when empty).
  static uint8_t TypeOf(const Bytes& wire);
};

// The signed prefix of every message's content.
struct SignedPrefix {
  uint64_t seq = 0;   // per-sender sequence number (authenticated only)
  uint64_t dest = 0;  // intended receiver (authenticated only)
  CausalIds causal;
};

// Upper bound of an encoded signed prefix: four 64-bit varints.
inline constexpr size_t kMaxSignedPrefixBytes = 40;

// Writes `prefix`, the (seq, dest) header only when `authenticated`.
// Returns the header's length (authentication overhead, not payload).
size_t PutSignedPrefix(ByteWriter& content, const SignedPrefix& prefix,
                       bool authenticated);
Result<SignedPrefix> GetSignedPrefix(ByteReader& content, bool authenticated);

}  // namespace provnet

#endif  // PROVNET_CORE_ENVELOPE_H_
