#include "crypto/keystore.h"

#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"

namespace provnet {

KeyStore::KeyStore(uint64_t seed, size_t rsa_bits)
    : seed_(seed), rsa_bits_(rsa_bits) {}

size_t KeyStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return keys_.size();
}

Result<const KeyStore::Entry*> KeyStore::EntryFor(const Principal& principal) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = keys_.find(principal);
  if (it != keys_.end()) return &it->second;

  // Deterministic per-principal stream.
  Rng rng(HashCombine(seed_, Fnv1a64(principal)));
  PROVNET_ASSIGN_OR_RETURN(RsaKeyPair kp, RsaGenerateKeyPair(rsa_bits_, rng));
  Bytes hmac_key(32);
  for (auto& b : hmac_key) b = static_cast<uint8_t>(rng.Next());
  HmacKey hmac_pads(hmac_key);
  auto [pos, inserted] = keys_.emplace(
      principal, Entry{std::move(kp), std::move(hmac_key), hmac_pads});
  PROVNET_CHECK(inserted);
  return &pos->second;
}

Result<const RsaKeyPair*> KeyStore::KeyPairFor(const Principal& principal) {
  PROVNET_ASSIGN_OR_RETURN(const Entry* entry, EntryFor(principal));
  return &entry->rsa;
}

Result<const RsaPublicKey*> KeyStore::PublicKeyFor(const Principal& principal) {
  PROVNET_ASSIGN_OR_RETURN(const Entry* entry, EntryFor(principal));
  return &entry->rsa.pub;
}

const Bytes& KeyStore::HmacKeyFor(const Principal& principal) {
  Result<const Entry*> entry = EntryFor(principal);
  PROVNET_CHECK(entry.ok()) << entry.status();
  return entry.value()->hmac_key;
}

const HmacKey& KeyStore::HmacPadsFor(const Principal& principal) {
  Result<const Entry*> entry = EntryFor(principal);
  PROVNET_CHECK(entry.ok()) << entry.status();
  return entry.value()->hmac_pads;
}

}  // namespace provnet
