// Principal identities and key material.
//
// A Principal is a named security context (SeNDlog's "At S:"). The KeyStore
// plays the role of the deployment's PKI: it deterministically derives each
// principal's RSA key pair and HMAC secret from (global seed, principal
// name), so all simulated nodes agree on public keys without modelling key
// exchange.
#ifndef PROVNET_CRYPTO_KEYSTORE_H_
#define PROVNET_CRYPTO_KEYSTORE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "crypto/hmac.h"
#include "crypto/rsa.h"
#include "util/bytes.h"
#include "util/status.h"

namespace provnet {

using Principal = std::string;

class KeyStore {
 public:
  // `rsa_bits` controls the modulus size of derived keys (even, 146 to
  // 2048; see RsaGenerateKeyPair).
  explicit KeyStore(uint64_t seed, size_t rsa_bits = 512);

  size_t rsa_bits() const { return rsa_bits_; }

  // Derives (and caches) key material for `principal` on first use.
  Result<const RsaKeyPair*> KeyPairFor(const Principal& principal);
  Result<const RsaPublicKey*> PublicKeyFor(const Principal& principal);

  // Per-principal symmetric secret for the HMAC says level. In the simulated
  // deployment every node can verify every principal's MAC (a shared-key
  // world, the paper's "more benign" setting).
  const Bytes& HmacKeyFor(const Principal& principal);
  // The same secret's precomputed pads, which the says level MACs with.
  const HmacKey& HmacPadsFor(const Principal& principal);

  // Number of principals with derived material (for tests/inspection).
  size_t size() const;

 private:
  struct Entry {
    RsaKeyPair rsa;
    Bytes hmac_key;
    HmacKey hmac_pads;
  };

  Result<const Entry*> EntryFor(const Principal& principal);

  uint64_t seed_;
  size_t rsa_bits_;
  // Guards keys_: worker shards sign/verify concurrently and may race a
  // first-use derivation. Derived material depends only on (seed_,
  // principal), and std::map node stability keeps returned pointers valid
  // across later inserts, so derivation order never affects results.
  mutable std::mutex mu_;
  std::map<Principal, Entry> keys_;
};

}  // namespace provnet

#endif  // PROVNET_CRYPTO_KEYSTORE_H_
