// Arbitrary-precision integers.
//
// This is the arithmetic substrate for crypto/rsa.*, replacing the paper's
// use of OpenSSL. Magnitudes are vectors of 32-bit limbs (little-endian);
// the sign is stored separately. Zero is canonically (empty limbs, positive).
//
// Performance notes: multiplication is schoolbook (sufficient for <=2048-bit
// RSA) and division is Knuth algorithm D. ModExp with an odd modulus of at
// most 2048 bits runs on the fixed-width Montgomery kernel
// (bignum/montgomery.h: 64-bit limbs, the limb count a template parameter,
// operands on the stack, square-and-multiply for exponents up to 32 bits and
// a 4-bit window above); it derives the modulus's constants per call, while
// crypto/rsa.* keeps them per key. Even and wider moduli take division-based
// square-and-multiply, the reference the kernel is tested against.
// IsProbablePrime trial-divides by single-limb remainders, then runs every
// Miller-Rabin round in one Montgomery context per candidate.
#ifndef PROVNET_BIGNUM_BIGINT_H_
#define PROVNET_BIGNUM_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/random.h"
#include "util/status.h"

namespace provnet {

struct BigIntDivMod;

class BigInt {
 public:
  // Zero.
  BigInt() = default;

  // From a machine integer.
  explicit BigInt(int64_t v);
  static BigInt FromU64(uint64_t v);

  // Parsing. Decimal accepts an optional leading '-'. Hex accepts lowercase
  // or uppercase digits, no prefix.
  static Result<BigInt> FromDecimal(const std::string& text);
  static Result<BigInt> FromHex(const std::string& text);

  // Big-endian magnitude (no sign); an empty input is zero.
  static BigInt FromBytes(const Bytes& bytes);
  // Minimal-length big-endian magnitude; zero encodes as empty.
  Bytes ToBytes() const;
  // Like ToBytes but left-padded with zeros to exactly `width` bytes.
  // Returns an error when the magnitude does not fit.
  Result<Bytes> ToBytesPadded(size_t width) const;

  std::string ToDecimal() const;
  std::string ToHex() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsNegative() const { return negative_; }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsEven() const { return !IsOdd(); }

  // Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;
  // Bit `i` of the magnitude (false beyond BitLength).
  bool GetBit(size_t i) const;

  // Returns -1, 0, +1 comparing signed values.
  int Compare(const BigInt& other) const;
  // Magnitude-only comparison.
  int CompareMagnitude(const BigInt& other) const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& rhs) const;
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;

  // Truncated division (C semantics: quotient rounds toward zero, remainder
  // has the dividend's sign). Division by zero returns an error.
  Result<BigIntDivMod> DivMod(const BigInt& divisor) const;

  // Euclidean remainder in [0, |modulus|). Modulus must be nonzero.
  Result<BigInt> Mod(const BigInt& modulus) const;

  // Left/right shifts by an arbitrary bit count (magnitude shift; sign kept).
  BigInt ShiftLeft(size_t bits) const;
  BigInt ShiftRight(size_t bits) const;

  // (this ^ exponent) mod modulus. Requires exponent >= 0 and modulus > 0.
  // Uses the Montgomery kernel when the modulus is odd and at most 2048 bits.
  Result<BigInt> ModExp(const BigInt& exponent, const BigInt& modulus) const;

  // Greatest common divisor of magnitudes.
  static BigInt Gcd(const BigInt& a, const BigInt& b);

  // Inverse of this mod modulus, in [0, modulus). Errors when gcd != 1.
  Result<BigInt> ModInverse(const BigInt& modulus) const;

  // Uniform value in [0, bound). bound must be positive.
  static BigInt RandomBelow(const BigInt& bound, Rng& rng);
  // Random value with exactly `bits` bits (top bit set). bits must be >= 1.
  static BigInt RandomWithBits(size_t bits, Rng& rng);

  // Miller-Rabin probabilistic primality test (plus small-prime trial
  // division). Error probability <= 4^-rounds for composites. n must be at
  // most 2048 bits (the Montgomery kernel's widest modulus).
  static bool IsProbablePrime(const BigInt& n, int rounds, Rng& rng);
  // Deterministic search: next probable prime with exactly `bits` bits.
  static BigInt GeneratePrime(size_t bits, Rng& rng);

  bool operator==(const BigInt& rhs) const { return Compare(rhs) == 0; }
  bool operator!=(const BigInt& rhs) const { return Compare(rhs) != 0; }
  bool operator<(const BigInt& rhs) const { return Compare(rhs) < 0; }
  bool operator<=(const BigInt& rhs) const { return Compare(rhs) <= 0; }
  bool operator>(const BigInt& rhs) const { return Compare(rhs) > 0; }
  bool operator>=(const BigInt& rhs) const { return Compare(rhs) >= 0; }

 private:
  static BigInt FromLimbs(std::vector<uint32_t> limbs, bool negative);
  // From the Montgomery kernel's 64-bit little-endian limbs.
  static BigInt FromLimbs64(const uint64_t* limbs, size_t width);
  void Normalize();

  // Magnitude helpers; ignore signs.
  static std::vector<uint32_t> AddMag(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b);
  // Requires |a| >= |b|.
  static std::vector<uint32_t> SubMag(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b);
  static std::vector<uint32_t> MulMag(const std::vector<uint32_t>& a,
                                      const std::vector<uint32_t>& b);
  static int CompareMag(const std::vector<uint32_t>& a,
                        const std::vector<uint32_t>& b);

  std::vector<uint32_t> limbs_;  // little-endian, normalized
  bool negative_ = false;        // never true when limbs_ is empty
};

// Quotient/remainder pair returned by BigInt::DivMod.
struct BigIntDivMod {
  BigInt quotient;
  BigInt remainder;
};

std::ostream& operator<<(std::ostream& os, const BigInt& v);

}  // namespace provnet

#endif  // PROVNET_BIGNUM_BIGINT_H_
