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

}  // namespace provnet
