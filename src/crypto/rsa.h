// RSA signatures built on bignum/, replacing the paper's OpenSSL v0.9.8b
// dependency.
//
// Signing uses SHA-256 digests under PKCS#1 v1.5-style padding
// (0x00 0x01 0xFF.. 0x00 || digest) and CRT exponentiation. Key sizes are a
// parameter: the simulation defaults to small keys (fast enough to sign per
// tuple at N=100 nodes) while tests exercise 512/1024-bit keys. Small keys
// truncate the embedded digest to fit the modulus; this preserves the cost
// structure (one modular exponentiation per tuple) that the paper measures.
//
// Performance: RsaGenerateKeyPair builds each key's Montgomery state once,
// sized to the key (bignum/montgomery.h): -m^-1 mod 2^64 and R^2 mod m for n,
// p and q, dp and dq as limbs, and q^-1 in Montgomery form. RsaSign and
// RsaVerify then run bytes -> limbs -> bytes through the fixed-width kernel
// with no BigInt temporaries: signing reduces the padded block mod p and
// mod q by REDC and recombines the CRT halves in limbs; verifying
// range-checks the signature against n, then runs e = 65537 as 16 squarings
// and one multiply.
#ifndef PROVNET_CRYPTO_RSA_H_
#define PROVNET_CRYPTO_RSA_H_

#include <cstdint>

#include "bignum/bigint.h"
#include "bignum/montgomery.h"
#include "util/bytes.h"
#include "util/random.h"
#include "util/status.h"

namespace provnet {

struct RsaPublicKey {
  BigInt n;  // modulus
  BigInt e;  // public exponent
  // Kernel state, built by RsaGenerateKeyPair.
  MontModulus n_mont;
  uint64_t e_limb = 0;
  size_t ByteLength() const { return (n.BitLength() + 7) / 8; }
};

struct RsaPrivateKey {
  BigInt n;
  BigInt e;
  BigInt d;
  BigInt p;  // p > q
  BigInt q;
  // Kernel state for CRT signing (d mod (p-1), d mod (q-1), q^{-1} mod p),
  // built by RsaGenerateKeyPair.
  MontCrtKey crt;
  size_t ByteLength() const { return (n.BitLength() + 7) / 8; }
};

struct RsaKeyPair {
  RsaPublicKey pub;
  RsaPrivateKey priv;
};

// Generates an RSA key pair with a modulus of `bits` bits (e = 65537).
// bits must be even, at least 146 (the smallest modulus whose block holds
// the padding and an 8-byte digest, so every key can sign) and at most 2048
// (the kernel's widest modulus). Deterministic given the Rng state.
Result<RsaKeyPair> RsaGenerateKeyPair(size_t bits, Rng& rng);

// Signs `message` (hashed internally with SHA-256). The signature is exactly
// priv.ByteLength() bytes.
Result<Bytes> RsaSign(const RsaPrivateKey& priv, const Bytes& message);

// Verifies a signature produced by RsaSign. OK on success;
// kUnauthenticated when the signature does not match.
Status RsaVerify(const RsaPublicKey& pub, const Bytes& message,
                 const Bytes& signature);

// Raw RSA primitives (exposed for tests).
Result<BigInt> RsaPrivateOp(const RsaPrivateKey& priv, const BigInt& m);
Result<BigInt> RsaPublicOp(const RsaPublicKey& pub, const BigInt& m);

}  // namespace provnet

#endif  // PROVNET_CRYPTO_RSA_H_
