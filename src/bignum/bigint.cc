#include "bignum/bigint.h"

#include <algorithm>
#include <ostream>

#include "bignum/montgomery.h"
#include "util/logging.h"

namespace provnet {
namespace {

constexpr uint64_t kBase = 1ULL << 32;

// Small primes for trial division during prime generation.
constexpr uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};

// The Montgomery kernel's 64-bit limbs from 32-bit ones, zero-extended to
// `width`; the value must fit in `width` 64-bit limbs.
void ToLimbs64(const std::vector<uint32_t>& limbs, uint64_t* out,
               size_t width) {
  for (size_t i = 0; i < width; ++i) {
    uint64_t lo = 2 * i < limbs.size() ? limbs[2 * i] : 0;
    uint64_t hi = 2 * i + 1 < limbs.size() ? limbs[2 * i + 1] : 0;
    out[i] = lo | (hi << 32);
  }
}

}  // namespace

BigInt::BigInt(int64_t v) {
  uint64_t mag;
  if (v < 0) {
    negative_ = true;
    mag = static_cast<uint64_t>(-(v + 1)) + 1;  // avoids INT64_MIN overflow
  } else {
    mag = static_cast<uint64_t>(v);
  }
  if (mag != 0) {
    limbs_.push_back(static_cast<uint32_t>(mag));
    if (mag >> 32) limbs_.push_back(static_cast<uint32_t>(mag >> 32));
  }
  if (limbs_.empty()) negative_ = false;
}

BigInt BigInt::FromU64(uint64_t v) {
  BigInt out;
  if (v != 0) {
    out.limbs_.push_back(static_cast<uint32_t>(v));
    if (v >> 32) out.limbs_.push_back(static_cast<uint32_t>(v >> 32));
  }
  return out;
}

BigInt BigInt::FromLimbs(std::vector<uint32_t> limbs, bool negative) {
  BigInt out;
  out.limbs_ = std::move(limbs);
  out.negative_ = negative;
  out.Normalize();
  return out;
}

BigInt BigInt::FromLimbs64(const uint64_t* limbs, size_t width) {
  std::vector<uint32_t> out(2 * width);
  for (size_t i = 0; i < width; ++i) {
    out[2 * i] = static_cast<uint32_t>(limbs[i]);
    out[2 * i + 1] = static_cast<uint32_t>(limbs[i] >> 32);
  }
  return FromLimbs(std::move(out), false);
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

Result<BigInt> BigInt::FromDecimal(const std::string& text) {
  if (text.empty()) return InvalidArgumentError("empty decimal literal");
  size_t i = 0;
  bool negative = false;
  if (text[0] == '-') {
    negative = true;
    i = 1;
    if (text.size() == 1) return InvalidArgumentError("bare minus sign");
  }
  BigInt out;
  BigInt ten(10);
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (c < '0' || c > '9') {
      return InvalidArgumentError("bad decimal digit in: " + text);
    }
    out = out * ten + BigInt(c - '0');
  }
  out.negative_ = negative && !out.IsZero();
  return out;
}

Result<BigInt> BigInt::FromHex(const std::string& text) {
  if (text.empty()) return InvalidArgumentError("empty hex literal");
  BigInt out;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return InvalidArgumentError("bad hex digit in: " + text);
    }
    out = out.ShiftLeft(4) + BigInt(digit);
  }
  return out;
}

BigInt BigInt::FromBytes(const Bytes& bytes) {
  BigInt out;
  for (uint8_t b : bytes) {
    out = out.ShiftLeft(8) + BigInt(b);
  }
  return out;
}

Bytes BigInt::ToBytes() const {
  Bytes out;
  size_t bits = BitLength();
  size_t nbytes = (bits + 7) / 8;
  out.resize(nbytes);
  for (size_t i = 0; i < nbytes; ++i) {
    size_t limb = i / 4;
    size_t shift = (i % 4) * 8;
    out[nbytes - 1 - i] = static_cast<uint8_t>(limbs_[limb] >> shift);
  }
  return out;
}

Result<Bytes> BigInt::ToBytesPadded(size_t width) const {
  Bytes raw = ToBytes();
  if (raw.size() > width) {
    return OutOfRangeError("value does not fit in " + std::to_string(width) +
                           " bytes");
  }
  Bytes out(width - raw.size(), 0);
  out.insert(out.end(), raw.begin(), raw.end());
  return out;
}

std::string BigInt::ToDecimal() const {
  if (IsZero()) return "0";
  // Repeated division by 10^9 to peel decimal chunks.
  std::vector<uint32_t> work = limbs_;
  std::string digits;
  while (!work.empty()) {
    uint64_t rem = 0;
    for (size_t i = work.size(); i > 0; --i) {
      uint64_t cur = (rem << 32) | work[i - 1];
      work[i - 1] = static_cast<uint32_t>(cur / 1000000000U);
      rem = cur % 1000000000U;
    }
    while (!work.empty() && work.back() == 0) work.pop_back();
    for (int i = 0; i < 9; ++i) {
      digits.push_back(static_cast<char>('0' + rem % 10));
      rem /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::string BigInt::ToHex() const {
  if (IsZero()) return "0";
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = limbs_.size(); i > 0; --i) {
    for (int nib = 7; nib >= 0; --nib) {
      out.push_back(kHex[(limbs_[i - 1] >> (nib * 4)) & 0xF]);
    }
  }
  size_t first = out.find_first_not_of('0');
  out = out.substr(first);
  if (negative_) out.insert(out.begin(), '-');
  return out;
}

size_t BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  uint32_t top = limbs_.back();
  size_t bits = (limbs_.size() - 1) * 32;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::GetBit(size_t i) const {
  size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigInt::CompareMag(const std::vector<uint32_t>& a,
                       const std::vector<uint32_t>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (size_t i = a.size(); i > 0; --i) {
    if (a[i - 1] != b[i - 1]) return a[i - 1] < b[i - 1] ? -1 : 1;
  }
  return 0;
}

int BigInt::Compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = CompareMag(limbs_, other.limbs_);
  return negative_ ? -mag : mag;
}

int BigInt::CompareMagnitude(const BigInt& other) const {
  return CompareMag(limbs_, other.limbs_);
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.IsZero()) out.negative_ = !out.negative_;
  return out;
}

BigInt BigInt::Abs() const {
  BigInt out = *this;
  out.negative_ = false;
  return out;
}

std::vector<uint32_t> BigInt::AddMag(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  const auto& big = a.size() >= b.size() ? a : b;
  const auto& small = a.size() >= b.size() ? b : a;
  std::vector<uint32_t> out(big.size() + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < big.size(); ++i) {
    uint64_t sum = carry + big[i] + (i < small.size() ? small[i] : 0);
    out[i] = static_cast<uint32_t>(sum);
    carry = sum >> 32;
  }
  out[big.size()] = static_cast<uint32_t>(carry);
  return out;
}

std::vector<uint32_t> BigInt::SubMag(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  std::vector<uint32_t> out(a.size(), 0);
  int64_t borrow = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    int64_t diff = static_cast<int64_t>(a[i]) - borrow -
                   (i < b.size() ? static_cast<int64_t>(b[i]) : 0);
    if (diff < 0) {
      diff += static_cast<int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out[i] = static_cast<uint32_t>(diff);
  }
  return out;
}

std::vector<uint32_t> BigInt::MulMag(const std::vector<uint32_t>& a,
                                     const std::vector<uint32_t>& b) {
  if (a.empty() || b.empty()) return {};
  std::vector<uint32_t> out(a.size() + b.size(), 0);
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a[i];
    for (size_t j = 0; j < b.size(); ++j) {
      uint64_t cur = out[i + j] + ai * b[j] + carry;
      out[i + j] = static_cast<uint32_t>(cur);
      carry = cur >> 32;
    }
    out[i + b.size()] = static_cast<uint32_t>(carry);
  }
  return out;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  if (negative_ == rhs.negative_) {
    return FromLimbs(AddMag(limbs_, rhs.limbs_), negative_);
  }
  int cmp = CompareMag(limbs_, rhs.limbs_);
  if (cmp == 0) return BigInt();
  if (cmp > 0) return FromLimbs(SubMag(limbs_, rhs.limbs_), negative_);
  return FromLimbs(SubMag(rhs.limbs_, limbs_), rhs.negative_);
}

BigInt BigInt::operator-(const BigInt& rhs) const { return *this + (-rhs); }

BigInt BigInt::operator*(const BigInt& rhs) const {
  return FromLimbs(MulMag(limbs_, rhs.limbs_), negative_ != rhs.negative_);
}

BigInt BigInt::ShiftLeft(size_t bits) const {
  if (IsZero() || bits == 0) return *this;
  size_t limb_shift = bits / 32;
  size_t bit_shift = bits % 32;
  std::vector<uint32_t> out(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    uint64_t v = static_cast<uint64_t>(limbs_[i]) << bit_shift;
    out[i + limb_shift] |= static_cast<uint32_t>(v);
    out[i + limb_shift + 1] |= static_cast<uint32_t>(v >> 32);
  }
  return FromLimbs(std::move(out), negative_);
}

BigInt BigInt::ShiftRight(size_t bits) const {
  size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  size_t bit_shift = bits % 32;
  std::vector<uint32_t> out(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out[i] = static_cast<uint32_t>(v);
  }
  return FromLimbs(std::move(out), negative_);
}

Result<BigIntDivMod> BigInt::DivMod(const BigInt& divisor) const {
  if (divisor.IsZero()) return InvalidArgumentError("division by zero");

  // Magnitude comparison shortcuts.
  int cmp = CompareMag(limbs_, divisor.limbs_);
  if (cmp < 0) {
    return BigIntDivMod{BigInt(), *this};
  }

  std::vector<uint32_t> q;
  std::vector<uint32_t> r;

  if (divisor.limbs_.size() == 1) {
    // Fast path: single-limb divisor.
    uint32_t d = divisor.limbs_[0];
    q.assign(limbs_.size(), 0);
    uint64_t rem = 0;
    for (size_t i = limbs_.size(); i > 0; --i) {
      uint64_t cur = (rem << 32) | limbs_[i - 1];
      q[i - 1] = static_cast<uint32_t>(cur / d);
      rem = cur % d;
    }
    if (rem != 0) r.push_back(static_cast<uint32_t>(rem));
  } else {
    // Knuth algorithm D. Normalize so the divisor's top limb has its high
    // bit set.
    size_t n = divisor.limbs_.size();
    int shift = 0;
    uint32_t top = divisor.limbs_.back();
    while ((top & 0x80000000U) == 0) {
      top <<= 1;
      ++shift;
    }
    BigInt u = Abs().ShiftLeft(shift);
    BigInt v = divisor.Abs().ShiftLeft(shift);
    std::vector<uint32_t> un = u.limbs_;
    un.push_back(0);  // extra limb for the algorithm
    const std::vector<uint32_t>& vn = v.limbs_;
    size_t m = un.size() - 1 - n;
    q.assign(m + 1, 0);

    for (size_t j = m + 1; j > 0; --j) {
      size_t jj = j - 1;
      uint64_t numerator =
          (static_cast<uint64_t>(un[jj + n]) << 32) | un[jj + n - 1];
      uint64_t qhat = numerator / vn[n - 1];
      uint64_t rhat = numerator % vn[n - 1];
      while (qhat >= kBase ||
             qhat * vn[n - 2] > ((rhat << 32) | un[jj + n - 2])) {
        --qhat;
        rhat += vn[n - 1];
        if (rhat >= kBase) break;
      }
      // Multiply-subtract qhat * vn from un[jj .. jj+n].
      int64_t borrow = 0;
      uint64_t carry = 0;
      for (size_t i = 0; i < n; ++i) {
        uint64_t p = qhat * vn[i] + carry;
        carry = p >> 32;
        int64_t t = static_cast<int64_t>(un[i + jj]) -
                    static_cast<int64_t>(p & 0xFFFFFFFFU) - borrow;
        if (t < 0) {
          t += static_cast<int64_t>(kBase);
          borrow = 1;
        } else {
          borrow = 0;
        }
        un[i + jj] = static_cast<uint32_t>(t);
      }
      int64_t t = static_cast<int64_t>(un[jj + n]) -
                  static_cast<int64_t>(carry) - borrow;
      if (t < 0) {
        // qhat was one too large; add the divisor back.
        t += static_cast<int64_t>(kBase);
        --qhat;
        uint64_t carry2 = 0;
        for (size_t i = 0; i < n; ++i) {
          uint64_t sum = static_cast<uint64_t>(un[i + jj]) + vn[i] + carry2;
          un[i + jj] = static_cast<uint32_t>(sum);
          carry2 = sum >> 32;
        }
        t += static_cast<int64_t>(carry2);
      }
      un[jj + n] = static_cast<uint32_t>(t);
      q[jj] = static_cast<uint32_t>(qhat);
    }
    un.resize(n);
    BigInt rem = FromLimbs(std::move(un), false).ShiftRight(shift);
    r = rem.limbs_;
  }

  BigIntDivMod out;
  out.quotient = FromLimbs(std::move(q), negative_ != divisor.negative_);
  out.remainder = FromLimbs(std::move(r), negative_);
  return out;
}

Result<BigInt> BigInt::Mod(const BigInt& modulus) const {
  if (modulus.IsZero()) return InvalidArgumentError("mod by zero");
  PROVNET_ASSIGN_OR_RETURN(BigIntDivMod dm, DivMod(modulus));
  BigInt r = dm.remainder;
  if (r.IsNegative()) r = r + modulus.Abs();
  return r;
}

Result<BigInt> BigInt::ModExp(const BigInt& exponent,
                              const BigInt& modulus) const {
  if (exponent.IsNegative()) {
    return InvalidArgumentError("negative exponent in ModExp");
  }
  if (modulus.IsZero() || modulus.IsNegative()) {
    return InvalidArgumentError("ModExp requires a positive modulus");
  }
  if (modulus.limbs_.size() == 1 && modulus.limbs_[0] == 1) return BigInt();
  PROVNET_ASSIGN_OR_RETURN(BigInt base, Mod(modulus));
  if (exponent.IsZero()) return BigInt(1);

  const size_t width = (modulus.limbs_.size() + 1) / 2;
  if (modulus.IsOdd() && width <= kMontMaxLimbs) {
    uint64_t m[kMontMaxLimbs];
    uint64_t x[kMontMaxLimbs];
    std::vector<uint64_t> e((exponent.limbs_.size() + 1) / 2);
    ToLimbs64(modulus.limbs_, m, width);
    ToLimbs64(base.limbs_, x, width);
    ToLimbs64(exponent.limbs_, e.data(), e.size());
    MontModulus(m, width).Exp(x, e.data(), e.size(), x);
    return FromLimbs64(x, width);
  }

  // Generic square-and-multiply with division-based reduction: even moduli
  // and moduli wider than the kernel; the tests' reference.
  BigInt acc(1);
  size_t bits = exponent.BitLength();
  for (size_t i = bits; i > 0; --i) {
    PROVNET_ASSIGN_OR_RETURN(acc, (acc * acc).Mod(modulus));
    if (exponent.GetBit(i - 1)) {
      PROVNET_ASSIGN_OR_RETURN(acc, (acc * base).Mod(modulus));
    }
  }
  return acc;
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.Abs();
  BigInt y = b.Abs();
  while (!y.IsZero()) {
    Result<BigInt> r = x.Mod(y);
    PROVNET_CHECK(r.ok());
    x = y;
    y = std::move(r).value();
  }
  return x;
}

Result<BigInt> BigInt::ModInverse(const BigInt& modulus) const {
  if (modulus.IsZero() || modulus.IsNegative()) {
    return InvalidArgumentError("ModInverse requires a positive modulus");
  }
  // Extended Euclid on (a, m).
  PROVNET_ASSIGN_OR_RETURN(BigInt a, Mod(modulus));
  BigInt m = modulus;
  BigInt x0(0), x1(1);
  BigInt r0 = m, r1 = a;
  while (!r1.IsZero()) {
    PROVNET_ASSIGN_OR_RETURN(BigIntDivMod dm, r0.DivMod(r1));
    BigInt q = dm.quotient;
    BigInt r2 = dm.remainder;
    r0 = r1;
    r1 = r2;
    BigInt x2 = x0 - q * x1;
    x0 = x1;
    x1 = x2;
  }
  if (!(r0 == BigInt(1))) {
    return FailedPreconditionError("values are not coprime; no inverse");
  }
  return x0.Mod(modulus);
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng& rng) {
  PROVNET_CHECK(!bound.IsZero() && !bound.IsNegative())
      << "RandomBelow requires a positive bound";
  size_t bits = bound.BitLength();
  size_t limbs = (bits + 31) / 32;
  while (true) {
    std::vector<uint32_t> v(limbs);
    for (auto& limb : v) limb = static_cast<uint32_t>(rng.Next());
    // Mask the top limb to the bound's bit length to make rejection cheap.
    size_t top_bits = bits - (limbs - 1) * 32;
    if (top_bits < 32) v.back() &= (1U << top_bits) - 1;
    BigInt candidate = FromLimbs(std::move(v), false);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::RandomWithBits(size_t bits, Rng& rng) {
  PROVNET_CHECK(bits >= 1);
  size_t limbs = (bits + 31) / 32;
  std::vector<uint32_t> v(limbs);
  for (auto& limb : v) limb = static_cast<uint32_t>(rng.Next());
  size_t top_bits = bits - (limbs - 1) * 32;
  if (top_bits < 32) v.back() &= (1U << top_bits) - 1;
  v.back() |= 1U << (top_bits - 1);  // force exact bit length
  return FromLimbs(std::move(v), false);
}

bool BigInt::IsProbablePrime(const BigInt& n, int rounds, Rng& rng) {
  if (n.IsNegative() || n.IsZero()) return false;
  if (n == BigInt(1)) return false;
  for (uint32_t p : kSmallPrimes) {
    uint64_t rem = 0;
    for (size_t i = n.limbs_.size(); i > 0; --i) {
      rem = ((rem << 32) | n.limbs_[i - 1]) % p;
    }
    if (rem == 0) return n.limbs_.size() == 1 && n.limbs_[0] == p;
  }
  // One Montgomery context serves every round and squaring.
  const size_t width = (n.limbs_.size() + 1) / 2;
  PROVNET_CHECK(width <= kMontMaxLimbs)
      << "IsProbablePrime takes at most 2048-bit candidates";
  uint64_t limbs[kMontMaxLimbs];
  ToLimbs64(n.limbs_, limbs, width);
  MontModulus ctx(limbs, width);
  BigInt bound = n - BigInt(3);
  for (int round = 0; round < rounds; ++round) {
    BigInt a = RandomBelow(bound, rng) + BigInt(2);  // [2, n-2]
    ToLimbs64(a.limbs_, limbs, width);
    if (ctx.IsWitness(limbs)) return false;
  }
  return true;
}

BigInt BigInt::GeneratePrime(size_t bits, Rng& rng) {
  PROVNET_CHECK(bits >= 8) << "prime size too small";
  while (true) {
    BigInt candidate = RandomWithBits(bits, rng);
    if (candidate.IsEven()) candidate = candidate + BigInt(1);
    // Walk odd numbers from the candidate; cap the walk to keep the bit
    // length stable.
    for (int step = 0; step < 512; ++step) {
      if (candidate.BitLength() != bits) break;
      if (IsProbablePrime(candidate, 20, rng)) return candidate;
      candidate = candidate + BigInt(2);
    }
  }
}

std::ostream& operator<<(std::ostream& os, const BigInt& v) {
  return os << v.ToDecimal();
}

}  // namespace provnet
