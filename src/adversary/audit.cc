#include "adversary/audit.h"

#include "util/strings.h"

namespace provnet {

const char* SecurityEventKindName(SecurityEventKind kind) {
  switch (kind) {
    case SecurityEventKind::kBadSignature:
      return "bad_signature";
    case SecurityEventKind::kMissingSignature:
      return "missing_signature";
    case SecurityEventKind::kUnknownPrincipal:
      return "unknown_principal";
    case SecurityEventKind::kReplay:
      return "replay";
    case SecurityEventKind::kMisdirected:
      return "misdirected";
    case SecurityEventKind::kUnauthorizedRetract:
      return "unauthorized_retract";
    case SecurityEventKind::kMalformed:
      return "malformed";
    case SecurityEventKind::kBogusResponse:
      return "bogus_response";
    case SecurityEventKind::kForeignProvenance:
      return "foreign_provenance";
    case SecurityEventKind::kSilentResponder:
      return "silent_responder";
  }
  return "?";
}

std::string SecurityEvent::ToString() const {
  return StrFormat("t=%.3f node=%u from=%u %s claimed=%s %s", at, node, from,
                   SecurityEventKindName(kind), claimed.c_str(),
                   detail.c_str());
}

size_t SecurityLog::CountOf(SecurityEventKind kind) const {
  size_t n = 0;
  for (const SecurityEvent& e : events_) {
    if (e.kind == kind) ++n;
  }
  return n;
}

std::vector<const SecurityEvent*> SecurityLog::EventsSince(size_t mark) const {
  std::vector<const SecurityEvent*> out;
  for (size_t i = mark; i < events_.size(); ++i) out.push_back(&events_[i]);
  return out;
}

bool ReplayGuard::Accept(uint64_t seq) {
  if (!any_) {
    any_ = true;
    high_ = seq;
    mask_ = 1;
    return true;
  }
  if (seq > high_) {
    uint64_t shift = seq - high_;
    // Archive the accepted bits about to slide out of the bitmap, so a
    // below-window arrival can be judged exactly. The conservative
    // reject-all-stale rule this replaces booked loss-delayed honest
    // retransmits as replays: one lost frame, retransmitted after the
    // sender's shared per-principal counter advanced past the window, was
    // indistinguishable from an attack.
    uint64_t falling = shift >= kWindow ? kWindow : shift;
    for (uint64_t age = kWindow - falling; age < kWindow; ++age) {
      if (high_ >= age && (mask_ & (1ull << age))) old_.insert(high_ - age);
    }
    mask_ = shift >= 64 ? 0 : mask_ << shift;
    mask_ |= 1;
    high_ = seq;
    return true;
  }
  uint64_t age = high_ - seq;
  if (age >= kWindow) {
    // Older than the bitmap: consult the exact archive. Seen before =>
    // replay; never seen => a late original (lost-then-retransmitted).
    return old_.insert(seq).second;
  }
  uint64_t bit = 1ull << age;
  if (mask_ & bit) return false;  // duplicate: the replay case
  mask_ |= bit;
  return true;
}

}  // namespace provnet
