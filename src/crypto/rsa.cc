#include "crypto/rsa.h"

#include <algorithm>
#include <string>
#include <vector>

#include "crypto/sha256.h"

namespace provnet {
namespace {

// PKCS#1 v1.5 framing around the digest (0x00 0x01, at least eight 0xFF,
// 0x00), and the fewest digest bytes a block may embed.
constexpr size_t kPaddingBytes = 11;
constexpr size_t kMinDigestBytes = 8;
// The smallest modulus whose ceil(bits / 8)-byte block holds both, and the
// widest the kernel serves.
constexpr size_t kMinBits = 8 * (kPaddingBytes + kMinDigestBytes - 1) + 1;
constexpr size_t kMaxBits = 64 * kMontMaxLimbs;
constexpr size_t kMaxBlockBytes = kMaxBits / 8;

// Writes the padded message representative for a key of `k` bytes into
// em[0..k): 0x00 || 0x01 || 0xFF.. || 0x00 || digest(-prefix). For
// k < digest+11 the digest is truncated (simulation-scale keys); at least 8
// bytes of digest are always embedded.
Status BuildPaddedDigest(const Bytes& message, size_t k, uint8_t* em) {
  size_t digest_len = kSha256DigestSize;
  if (k < digest_len + kPaddingBytes) {
    if (k < kMinDigestBytes + kPaddingBytes) {
      return InvalidArgumentError("RSA modulus too small for signing");
    }
    digest_len = k - kPaddingBytes;
  }
  Sha256Digest digest = Sha256::Hash(message);
  std::fill(em, em + k, 0xFF);
  em[0] = 0x00;
  em[1] = 0x01;
  em[k - digest_len - 1] = 0x00;
  std::copy(digest.begin(), digest.begin() + digest_len,
            em + k - digest_len);
  return OkStatus();
}

// Big-endian bytes be[0..k) as `width` little-endian limbs; k <= 8 * width.
void BytesToLimbs(const uint8_t* be, size_t k, uint64_t* out, size_t width) {
  std::fill(out, out + width, 0);
  for (size_t i = 0; i < k; ++i) {
    out[i / 8] |= static_cast<uint64_t>(be[k - 1 - i]) << (8 * (i % 8));
  }
}

// The low k bytes of `width` limbs, big-endian; the value must fit.
void LimbsToBytes(const uint64_t* limbs, size_t width, uint8_t* be,
                  size_t k) {
  for (size_t i = 0; i < k; ++i) {
    be[k - 1 - i] =
        i / 8 < width ? static_cast<uint8_t>(limbs[i / 8] >> (8 * (i % 8)))
                      : 0;
  }
}

// `v` (below 2^(64 * width)) as `width` limbs.
std::vector<uint64_t> ToLimbs(const BigInt& v, size_t width) {
  Bytes be = v.ToBytesPadded(8 * width).value();
  std::vector<uint64_t> out(width);
  BytesToLimbs(be.data(), be.size(), out.data(), width);
  return out;
}

MontModulus ToMont(const BigInt& m) {
  std::vector<uint64_t> limbs = ToLimbs(m, (m.BitLength() + 63) / 64);
  return MontModulus(limbs.data(), limbs.size());
}

bool LimbsBelow(const uint64_t* a, const uint64_t* b, size_t width) {
  for (size_t i = width; i > 0; --i) {
    if (a[i - 1] != b[i - 1]) return a[i - 1] < b[i - 1];
  }
  return false;
}

}  // namespace

Result<RsaKeyPair> RsaGenerateKeyPair(size_t bits, Rng& rng) {
  if (bits % 2 != 0 || bits < kMinBits || bits > kMaxBits) {
    return InvalidArgumentError(
        "RSA key size must be even and between " + std::to_string(kMinBits) +
        " and " + std::to_string(kMaxBits) + " bits");
  }
  BigInt e(65537);
  while (true) {
    BigInt p = BigInt::GeneratePrime(bits / 2, rng);
    BigInt q = BigInt::GeneratePrime(bits / 2, rng);
    if (p == q) continue;
    if (p < q) std::swap(p, q);  // CRT below wants p > q for qinv mod p
    BigInt n = p * q;
    if (n.BitLength() != bits) continue;
    BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    if (!(BigInt::Gcd(e, phi) == BigInt(1))) continue;

    Result<BigInt> d = e.ModInverse(phi);
    if (!d.ok()) continue;

    RsaKeyPair kp;
    kp.pub.n = n;
    kp.pub.e = e;
    kp.pub.n_mont = ToMont(n);
    kp.pub.e_limb = 65537;
    kp.priv.n = n;
    kp.priv.e = e;
    kp.priv.d = d.value();
    kp.priv.p = p;
    kp.priv.q = q;

    // p and q have bits / 2 bits each, so they share one width.
    MontCrtKey& crt = kp.priv.crt;
    crt.p = ToMont(p);
    crt.q = ToMont(q);
    const size_t width = crt.p.limbs();
    PROVNET_ASSIGN_OR_RETURN(BigInt dp, d.value().Mod(p - BigInt(1)));
    PROVNET_ASSIGN_OR_RETURN(BigInt dq, d.value().Mod(q - BigInt(1)));
    PROVNET_ASSIGN_OR_RETURN(BigInt qinv, q.ModInverse(p));
    PROVNET_ASSIGN_OR_RETURN(BigInt qinv_mont,
                             qinv.ShiftLeft(64 * width).Mod(p));
    crt.dp = ToLimbs(dp, width);
    crt.dq = ToLimbs(dq, width);
    crt.qinv_mont = ToLimbs(qinv_mont, width);
    return kp;
  }
}

Result<BigInt> RsaPrivateOp(const RsaPrivateKey& priv, const BigInt& m) {
  if (m >= priv.n) return InvalidArgumentError("message >= modulus");
  const size_t width = 2 * priv.crt.p.limbs();
  std::vector<uint64_t> x = ToLimbs(m, width);
  std::vector<uint64_t> s(width);
  MontCrtExp(priv.crt, x.data(), s.data());
  Bytes be(8 * width);
  LimbsToBytes(s.data(), width, be.data(), be.size());
  return BigInt::FromBytes(be);
}

Result<BigInt> RsaPublicOp(const RsaPublicKey& pub, const BigInt& m) {
  if (m >= pub.n) return InvalidArgumentError("value >= modulus");
  return m.ModExp(pub.e, pub.n);
}

Result<Bytes> RsaSign(const RsaPrivateKey& priv, const Bytes& message) {
  const size_t k = priv.ByteLength();
  uint8_t em[kMaxBlockBytes];
  PROVNET_RETURN_IF_ERROR(BuildPaddedDigest(message, k, em));
  // The block starts 0x00 0x01, so it is below n.
  const size_t width = 2 * priv.crt.p.limbs();
  uint64_t x[kMontMaxLimbs];
  uint64_t s[kMontMaxLimbs];
  BytesToLimbs(em, k, x, width);
  MontCrtExp(priv.crt, x, s);
  Bytes sig(k);
  LimbsToBytes(s, width, sig.data(), k);
  return sig;
}

Status RsaVerify(const RsaPublicKey& pub, const Bytes& message,
                 const Bytes& signature) {
  const size_t k = pub.ByteLength();
  if (signature.size() != k) {
    return UnauthenticatedError("signature length mismatch");
  }
  uint8_t expected[kMaxBlockBytes];
  PROVNET_RETURN_IF_ERROR(BuildPaddedDigest(message, k, expected));
  const size_t width = pub.n_mont.limbs();
  uint64_t s[kMontMaxLimbs];
  BytesToLimbs(signature.data(), k, s, width);
  if (!LimbsBelow(s, pub.n_mont.m(), width)) {
    return UnauthenticatedError("signature out of range");
  }
  pub.n_mont.Exp(s, &pub.e_limb, 1, s);
  uint8_t recovered[kMaxBlockBytes];
  LimbsToBytes(s, width, recovered, k);
  if (!std::equal(recovered, recovered + k, expected)) {
    return UnauthenticatedError("signature mismatch");
  }
  return OkStatus();
}

}  // namespace provnet
