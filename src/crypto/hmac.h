// HMAC-SHA256 (RFC 2104). Backs the intermediate "says" security level
// (Section 2.2 of the paper suggests multiple says operators with different
// security levels; HMAC models a shared-key world cheaper than RSA).
#ifndef PROVNET_CRYPTO_HMAC_H_
#define PROVNET_CRYPTO_HMAC_H_

#include "crypto/sha256.h"
#include "util/bytes.h"

namespace provnet {

// A key's precomputed pads: the two SHA-256 states after absorbing the
// key's ipad and opad blocks. Built once per key, so a MAC copies two states
// instead of re-deriving the pads, and allocates nothing.
struct HmacKey {
  explicit HmacKey(const Bytes& key);

  Sha256 inner;  // has absorbed key ^ ipad
  Sha256 outer;  // has absorbed key ^ opad
};

// Computes HMAC-SHA256(key, data).
Sha256Digest HmacSha256(const HmacKey& key, const Bytes& data);
Sha256Digest HmacSha256(const Bytes& key, const Bytes& data);

// Constant-time comparison of two digests.
bool DigestEqual(const Sha256Digest& a, const Sha256Digest& b);

}  // namespace provnet

#endif  // PROVNET_CRYPTO_HMAC_H_
