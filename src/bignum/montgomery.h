// Fixed-width Montgomery arithmetic: the one modular-exponentiation kernel
// behind BigInt::ModExp (odd moduli), RSA signing and verification, and the
// Miller-Rabin rounds of prime generation.
//
// Limbs are 64-bit and little-endian, products are unsigned __int128, and
// R = 2^(64 * limbs). The limb count is a template parameter: every
// operation picks its width once from a table of widths 1..kMontMaxLimbs,
// so the inner loops have compile-time bounds and every operand lives on the
// stack. Products are CIOS with one conditional subtraction, so every value
// the kernel hands back is fully reduced.
//
// Exponents of at most 32 bits (RSA's e = 65537) use left-to-right
// square-and-multiply; longer ones a 4-bit fixed window.
#ifndef PROVNET_BIGNUM_MONTGOMERY_H_
#define PROVNET_BIGNUM_MONTGOMERY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace provnet {

// Widest modulus the kernel serves: 32 limbs, 2048 bits.
inline constexpr size_t kMontMaxLimbs = 32;

// An odd modulus m > 1 with its Montgomery constants, sized to m.
class MontModulus {
 public:
  MontModulus() = default;
  // `m` holds `limbs` little-endian limbs, the top one nonzero, with
  // 1 <= limbs <= kMontMaxLimbs; m must be odd and greater than 1.
  MontModulus(const uint64_t* m, size_t limbs);

  size_t limbs() const { return limbs_; }
  const uint64_t* m() const { return words_.data(); }
  const uint64_t* one() const { return words_.data() + limbs_; }  // R mod m
  const uint64_t* r2() const { return words_.data() + 2 * limbs_; }
  uint64_t minv() const { return minv_; }  // -m^-1 mod 2^64

  // out = base^exp mod m. `base` has limbs() limbs and is below m; `exp` has
  // `exp_limbs` limbs. `out` (limbs() limbs) may alias `base`.
  void Exp(const uint64_t* base, const uint64_t* exp, size_t exp_limbs,
           uint64_t* out) const;

  // One Miller-Rabin round: true when `a` (limbs() limbs, 1 < a < m - 1)
  // witnesses that m is composite.
  bool IsWitness(const uint64_t* a) const;

 private:
  size_t limbs_ = 0;
  uint64_t minv_ = 0;
  std::vector<uint64_t> words_;  // m | R mod m | R^2 mod m
};

// Private-key state for exponentiation modulo n = p * q by the Chinese
// remainder theorem: p > q, both p.limbs() wide; the exponents are limbs
// as well, and q^-1 is kept in Montgomery form mod p.
struct MontCrtKey {
  MontModulus p;
  MontModulus q;
  std::vector<uint64_t> dp;         // d mod (p - 1)
  std::vector<uint64_t> dq;         // d mod (q - 1)
  std::vector<uint64_t> qinv_mont;  // q^-1 * R mod p
};

// out = x^d mod p*q. `x` and `out` have 2 * key.p.limbs() limbs, x < p * q.
// Each half reduces x by REDC, exponentiates, and leaves Montgomery form;
// the halves recombine in limbs (Garner).
void MontCrtExp(const MontCrtKey& key, const uint64_t* x, uint64_t* out);

// Process-wide kernel work: exponentiations and Montgomery products
// (conversions into and out of Montgomery form and REDC steps included).
// Each call adds its counts once, at its end, so the totals are sums that
// do not depend on which thread ran what. Like Network::timer_ops(), these
// stay outside the metrics registry.
struct MontWork {
  uint64_t exps = 0;
  uint64_t products = 0;
};
MontWork MontWorkTotals();

}  // namespace provnet

#endif  // PROVNET_BIGNUM_MONTGOMERY_H_
