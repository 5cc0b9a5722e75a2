#include "crypto/hmac.h"

#include <cstring>

namespace provnet {

HmacKey::HmacKey(const Bytes& key) {
  constexpr size_t kBlockSize = 64;
  uint8_t k[kBlockSize] = {};
  if (key.size() > kBlockSize) {
    Sha256Digest kd = Sha256::Hash(key);
    std::memcpy(k, kd.data(), kd.size());
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }

  uint8_t pad[kBlockSize];
  for (size_t i = 0; i < kBlockSize; ++i) pad[i] = k[i] ^ 0x36;
  inner.Update(pad, kBlockSize);
  for (size_t i = 0; i < kBlockSize; ++i) pad[i] = k[i] ^ 0x5c;
  outer.Update(pad, kBlockSize);
}

Sha256Digest HmacSha256(const HmacKey& key, const Bytes& data) {
  Sha256 inner = key.inner;
  inner.Update(data);
  Sha256Digest inner_digest = inner.Finish();

  Sha256 outer = key.outer;
  outer.Update(inner_digest.data(), inner_digest.size());
  return outer.Finish();
}

Sha256Digest HmacSha256(const Bytes& key, const Bytes& data) {
  return HmacSha256(HmacKey(key), data);
}

bool DigestEqual(const Sha256Digest& a, const Sha256Digest& b) {
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

}  // namespace provnet
