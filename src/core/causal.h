// Cross-node causal trace context (ISSUE 8).
//
// Every wire message carries a compact (trace_id, span_id) pair in the
// signed prefix of its content (core/envelope.h): the message *is* a span,
// minted by the sender from a per-node counter (no wall clock, no
// randomness — seeded runs stay byte-identical), and the receiver adopts
// the pair as its causal context, so the cascades, retractions, and query
// hops a message triggers — and the messages *they* send — share one trace
// id across nodes. Trace streams from different nodes then stitch into a
// single span tree (obs::TraceEvent::{trace_id, span_id, parent_span}).
//
// trace_id 0 = no causal context: sends from such a context root a new
// trace (trace_id := the new span id). The ids ride the wire
// unconditionally — tracing merely records them — so enabling observability
// never changes message bytes.
#ifndef PROVNET_CORE_CAUSAL_H_
#define PROVNET_CORE_CAUSAL_H_

#include <cstdint>

namespace provnet {

struct CausalIds {
  uint64_t trace_id = 0;  // the tree this context belongs to (0 = none)
  uint64_t span_id = 0;   // the span that established the context
};

// Span ids pack (node+1) in the high bits over a per-node sequence, so ids
// are globally unique, deterministic, and attribute their minting node.
inline uint64_t PackSpanId(uint32_t node, uint64_t seq) {
  return ((static_cast<uint64_t>(node) + 1) << 32) | (seq & 0xffffffffull);
}

}  // namespace provnet

#endif  // PROVNET_CORE_CAUSAL_H_
