#include "core/envelope.h"

namespace provnet {

const char* MsgKindName(uint8_t type) {
  switch (type) {
    case kMsgTuple:
      return "tuple";
    case kMsgProvRequest:
      return "prov_request";
    case kMsgProvResponse:
      return "prov_response";
    case kMsgRetract:
      return "retract";
  }
  return "?";
}

Bytes Envelope::Encode(size_t* tag_bytes) const {
  ByteWriter wire;
  // The framing — type, blob length, has_says and the tag's level and two
  // lengths — adds at most 33 bytes to the content, principal and proof.
  wire.Reserve(33 + content.size() +
               (tag.has_value() ? tag->principal.size() + tag->proof.size()
                                : 0));
  wire.PutU8(type);
  wire.PutBlob(content);
  wire.PutU8(tag.has_value() ? 1 : 0);
  const size_t tag_at = wire.size();
  if (tag.has_value()) tag->Serialize(wire);
  if (tag_bytes != nullptr) *tag_bytes = wire.size() - tag_at;
  return std::move(wire).Take();
}

Result<Envelope> Envelope::Decode(const Bytes& wire) {
  ByteReader reader(wire);
  Envelope env;
  PROVNET_ASSIGN_OR_RETURN(env.type, reader.GetU8());
  if (env.type < kMsgTuple || env.type > kMsgRetract) {
    return InvalidArgumentError("unknown message type");
  }
  PROVNET_ASSIGN_OR_RETURN(env.content, reader.GetBlob());
  PROVNET_ASSIGN_OR_RETURN(uint8_t has_says, reader.GetU8());
  if (has_says != 0) {
    PROVNET_ASSIGN_OR_RETURN(SaysTag tag, SaysTag::Deserialize(reader));
    env.tag = std::move(tag);
  }
  return env;
}

uint8_t Envelope::TypeOf(const Bytes& wire) {
  return wire.empty() ? 0 : wire[0];
}

size_t PutSignedPrefix(ByteWriter& content, const SignedPrefix& prefix,
                       bool authenticated) {
  const size_t start = content.size();
  if (authenticated) {
    content.PutVarint(prefix.seq);
    content.PutVarint(prefix.dest);
  }
  const size_t header_len = content.size() - start;
  content.PutVarint(prefix.causal.trace_id);
  content.PutVarint(prefix.causal.span_id);
  return header_len;
}

Result<SignedPrefix> GetSignedPrefix(ByteReader& content, bool authenticated) {
  SignedPrefix prefix;
  if (authenticated) {
    PROVNET_ASSIGN_OR_RETURN(prefix.seq, content.GetVarint());
    PROVNET_ASSIGN_OR_RETURN(prefix.dest, content.GetVarint());
  }
  PROVNET_ASSIGN_OR_RETURN(prefix.causal.trace_id, content.GetVarint());
  PROVNET_ASSIGN_OR_RETURN(prefix.causal.span_id, content.GetVarint());
  return prefix;
}

}  // namespace provnet
