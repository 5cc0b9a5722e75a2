#include "crypto/authenticator.h"

#include "crypto/hmac.h"

namespace provnet {

const char* SaysLevelName(SaysLevel level) {
  switch (level) {
    case SaysLevel::kCleartext:
      return "cleartext";
    case SaysLevel::kHmac:
      return "hmac";
    case SaysLevel::kRsa:
      return "rsa";
  }
  return "?";
}

void SaysTag::Serialize(ByteWriter& out) const {
  out.PutU8(static_cast<uint8_t>(level));
  out.PutString(principal);
  out.PutBlob(proof);
}

Result<SaysTag> SaysTag::Deserialize(ByteReader& in) {
  SaysTag tag;
  PROVNET_ASSIGN_OR_RETURN(uint8_t level, in.GetU8());
  if (level > static_cast<uint8_t>(SaysLevel::kRsa)) {
    return InvalidArgumentError("bad says level");
  }
  tag.level = static_cast<SaysLevel>(level);
  PROVNET_ASSIGN_OR_RETURN(tag.principal, in.GetString());
  PROVNET_ASSIGN_OR_RETURN(tag.proof, in.GetBlob());
  return tag;
}

size_t SaysTag::WireSize() const {
  ByteWriter w;
  Serialize(w);
  return w.size();
}

Result<SaysTag> Authenticator::Say(const Principal& principal,
                                   const Bytes& payload, SaysLevel level) {
  SaysTag tag;
  tag.level = level;
  tag.principal = principal;
  switch (level) {
    case SaysLevel::kCleartext:
      break;
    case SaysLevel::kHmac: {
      sign_count_.fetch_add(1, std::memory_order_relaxed);
      Sha256Digest mac =
          HmacSha256(keystore_->HmacPadsFor(principal), payload);
      tag.proof.assign(mac.begin(), mac.end());
      break;
    }
    case SaysLevel::kRsa: {
      sign_count_.fetch_add(1, std::memory_order_relaxed);
      PROVNET_ASSIGN_OR_RETURN(const RsaKeyPair* kp,
                               keystore_->KeyPairFor(principal));
      PROVNET_ASSIGN_OR_RETURN(tag.proof, RsaSign(kp->priv, payload));
      break;
    }
  }
  return tag;
}

Status Authenticator::Verify(const SaysTag& tag, const Bytes& payload) {
  switch (tag.level) {
    case SaysLevel::kCleartext:
      return OkStatus();
    case SaysLevel::kHmac: {
      verify_count_.fetch_add(1, std::memory_order_relaxed);
      Sha256Digest expected =
          HmacSha256(keystore_->HmacPadsFor(tag.principal), payload);
      if (tag.proof.size() != expected.size()) {
        return UnauthenticatedError("MAC length mismatch");
      }
      Sha256Digest got;
      std::copy(tag.proof.begin(), tag.proof.end(), got.begin());
      if (!DigestEqual(expected, got)) {
        return UnauthenticatedError("MAC mismatch for principal " +
                                    tag.principal);
      }
      return OkStatus();
    }
    case SaysLevel::kRsa: {
      verify_count_.fetch_add(1, std::memory_order_relaxed);
      PROVNET_ASSIGN_OR_RETURN(const RsaPublicKey* pub,
                               keystore_->PublicKeyFor(tag.principal));
      return RsaVerify(*pub, payload, tag.proof);
    }
  }
  return InternalError("unreachable says level");
}

}  // namespace provnet
