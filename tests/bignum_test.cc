#include <gtest/gtest.h>

#include "bignum/bigint.h"
#include "util/random.h"

namespace provnet {
namespace {

BigInt Dec(const std::string& s) {
  Result<BigInt> r = BigInt::FromDecimal(s);
  EXPECT_TRUE(r.ok()) << r.status();
  return std::move(r).value();
}

TEST(BigIntTest, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsNegative());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_EQ(z.ToDecimal(), "0");
  EXPECT_EQ(z.ToHex(), "0");
}

TEST(BigIntTest, Int64Construction) {
  EXPECT_EQ(BigInt(0).ToDecimal(), "0");
  EXPECT_EQ(BigInt(1).ToDecimal(), "1");
  EXPECT_EQ(BigInt(-1).ToDecimal(), "-1");
  EXPECT_EQ(BigInt(INT64_MAX).ToDecimal(), "9223372036854775807");
  EXPECT_EQ(BigInt(INT64_MIN).ToDecimal(), "-9223372036854775808");
}

TEST(BigIntTest, DecimalRoundTrip) {
  const char* cases[] = {"0", "1", "-1", "4294967296", "18446744073709551616",
                         "123456789012345678901234567890"};
  for (const char* c : cases) {
    EXPECT_EQ(Dec(c).ToDecimal(), c);
  }
}

TEST(BigIntTest, DecimalParseErrors) {
  EXPECT_FALSE(BigInt::FromDecimal("").ok());
  EXPECT_FALSE(BigInt::FromDecimal("-").ok());
  EXPECT_FALSE(BigInt::FromDecimal("12x").ok());
}

TEST(BigIntTest, HexRoundTrip) {
  EXPECT_EQ(BigInt::FromHex("ff").value().ToDecimal(), "255");
  EXPECT_EQ(BigInt::FromHex("DEADBEEF").value().ToHex(), "deadbeef");
  EXPECT_EQ(Dec("255").ToHex(), "ff");
  EXPECT_FALSE(BigInt::FromHex("xyz").ok());
}

TEST(BigIntTest, BytesRoundTrip) {
  Bytes raw = {0x01, 0x02, 0x03, 0x04, 0x05};
  BigInt v = BigInt::FromBytes(raw);
  EXPECT_EQ(v.ToBytes(), raw);
  EXPECT_EQ(v.ToHex(), "102030405");
  EXPECT_TRUE(BigInt::FromBytes({}).IsZero());
  EXPECT_EQ(BigInt().ToBytes(), Bytes{});
}

TEST(BigIntTest, PaddedBytes) {
  BigInt v(0xABCD);
  Bytes padded = v.ToBytesPadded(4).value();
  EXPECT_EQ(padded, Bytes({0x00, 0x00, 0xAB, 0xCD}));
  EXPECT_FALSE(v.ToBytesPadded(1).ok());
}

TEST(BigIntTest, AdditionCarries) {
  BigInt a = Dec("4294967295");  // 2^32 - 1
  EXPECT_EQ((a + BigInt(1)).ToDecimal(), "4294967296");
  EXPECT_EQ((a + a).ToDecimal(), "8589934590");
}

TEST(BigIntTest, SignedAddSub) {
  EXPECT_EQ((BigInt(5) + BigInt(-7)).ToDecimal(), "-2");
  EXPECT_EQ((BigInt(-5) + BigInt(7)).ToDecimal(), "2");
  EXPECT_EQ((BigInt(-5) - BigInt(7)).ToDecimal(), "-12");
  EXPECT_EQ((BigInt(5) - BigInt(5)).ToDecimal(), "0");
}

TEST(BigIntTest, MultiplicationLarge) {
  BigInt a = Dec("123456789012345678901234567890");
  BigInt b = Dec("987654321098765432109876543210");
  EXPECT_EQ((a * b).ToDecimal(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigIntTest, MultiplicationSigns) {
  EXPECT_EQ((BigInt(-3) * BigInt(4)).ToDecimal(), "-12");
  EXPECT_EQ((BigInt(-3) * BigInt(-4)).ToDecimal(), "12");
  EXPECT_EQ((BigInt(0) * BigInt(-4)).ToDecimal(), "0");
}

TEST(BigIntTest, DivModSmall) {
  auto dm = BigInt(17).DivMod(BigInt(5)).value();
  EXPECT_EQ(dm.quotient.ToDecimal(), "3");
  EXPECT_EQ(dm.remainder.ToDecimal(), "2");
}

TEST(BigIntTest, DivModTruncatesTowardZero) {
  auto dm = BigInt(-17).DivMod(BigInt(5)).value();
  EXPECT_EQ(dm.quotient.ToDecimal(), "-3");
  EXPECT_EQ(dm.remainder.ToDecimal(), "-2");
  dm = BigInt(17).DivMod(BigInt(-5)).value();
  EXPECT_EQ(dm.quotient.ToDecimal(), "-3");
  EXPECT_EQ(dm.remainder.ToDecimal(), "2");
}

TEST(BigIntTest, DivByZeroFails) {
  EXPECT_FALSE(BigInt(1).DivMod(BigInt()).ok());
  EXPECT_FALSE(BigInt(1).Mod(BigInt()).ok());
}

TEST(BigIntTest, DivModLargeKnuth) {
  BigInt a = Dec("121932631137021795226185032733622923332237463801111263526900");
  BigInt b = Dec("987654321098765432109876543210");
  auto dm = a.DivMod(b).value();
  EXPECT_EQ(dm.quotient.ToDecimal(), "123456789012345678901234567890");
  EXPECT_TRUE(dm.remainder.IsZero());

  BigInt c = a + BigInt(12345);
  dm = c.DivMod(b).value();
  EXPECT_EQ(dm.quotient.ToDecimal(), "123456789012345678901234567890");
  EXPECT_EQ(dm.remainder.ToDecimal(), "12345");
}

TEST(BigIntTest, DivModRandomizedInvariant) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    BigInt a = BigInt::RandomWithBits(1 + rng.NextBelow(256), rng);
    BigInt b = BigInt::RandomWithBits(1 + rng.NextBelow(128), rng);
    auto dm = a.DivMod(b).value();
    EXPECT_EQ((dm.quotient * b + dm.remainder).ToDecimal(), a.ToDecimal());
    EXPECT_LT(dm.remainder.CompareMagnitude(b), 0);
  }
}

TEST(BigIntTest, ModIsEuclidean) {
  EXPECT_EQ(BigInt(-17).Mod(BigInt(5)).value().ToDecimal(), "3");
  EXPECT_EQ(BigInt(17).Mod(BigInt(5)).value().ToDecimal(), "2");
}

TEST(BigIntTest, Shifts) {
  EXPECT_EQ(BigInt(1).ShiftLeft(100).ToHex(),
            "10000000000000000000000000");
  BigInt v = Dec("123456789012345678901234567890");
  EXPECT_EQ(v.ShiftLeft(37).ShiftRight(37).ToDecimal(), v.ToDecimal());
  EXPECT_EQ(BigInt(255).ShiftRight(8).ToDecimal(), "0");
  EXPECT_EQ(BigInt(256).ShiftRight(8).ToDecimal(), "1");
}

TEST(BigIntTest, BitAccess) {
  BigInt v(0b1011);
  EXPECT_TRUE(v.GetBit(0));
  EXPECT_TRUE(v.GetBit(1));
  EXPECT_FALSE(v.GetBit(2));
  EXPECT_TRUE(v.GetBit(3));
  EXPECT_FALSE(v.GetBit(64));
  EXPECT_EQ(v.BitLength(), 4u);
}

TEST(BigIntTest, Comparisons) {
  EXPECT_LT(BigInt(-2), BigInt(1));
  EXPECT_LT(BigInt(-2), BigInt(-1));
  EXPECT_GT(Dec("18446744073709551616"), Dec("18446744073709551615"));
  EXPECT_EQ(BigInt(7), BigInt(7));
}

TEST(BigIntTest, ModExpSmallKnown) {
  // 4^13 mod 497 = 445 (classic example).
  EXPECT_EQ(BigInt(4).ModExp(BigInt(13), BigInt(497)).value().ToDecimal(),
            "445");
  // Exponent zero.
  EXPECT_EQ(BigInt(9).ModExp(BigInt(0), BigInt(7)).value().ToDecimal(), "1");
  // Modulus one.
  EXPECT_EQ(BigInt(9).ModExp(BigInt(5), BigInt(1)).value().ToDecimal(), "0");
}

TEST(BigIntTest, ModExpFermat) {
  // a^(p-1) ≡ 1 mod p for prime p not dividing a.
  BigInt p = Dec("1000000007");
  for (int64_t a : {2, 3, 999999999}) {
    EXPECT_EQ(BigInt(a).ModExp(p - BigInt(1), p).value().ToDecimal(), "1");
  }
}

// Division-based square-and-multiply: the reference the Montgomery kernel
// must match.
BigInt ReferenceModExp(const BigInt& base, const BigInt& exp,
                       const BigInt& modulus) {
  BigInt b = base.Mod(modulus).value();
  BigInt acc = BigInt(1).Mod(modulus).value();
  for (size_t bit = exp.BitLength(); bit > 0; --bit) {
    acc = (acc * acc).Mod(modulus).value();
    if (exp.GetBit(bit - 1)) acc = (acc * b).Mod(modulus).value();
  }
  return acc;
}

TEST(BigIntTest, ModExpMontgomeryMatchesGeneric) {
  // Odd moduli run on the fixed-width kernel: cover every width from 1 to
  // 32 limbs with a full top limb, widths that end mid-limb, and a modulus
  // whose top limb is all ones.
  Rng rng(7);
  std::vector<BigInt> moduli;
  for (size_t limbs = 1; limbs <= 32; ++limbs) {
    moduli.push_back(BigInt::RandomWithBits(64 * limbs, rng));
  }
  moduli.push_back(BigInt::RandomWithBits(96, rng));
  moduli.push_back(BigInt::RandomWithBits(160, rng));
  moduli.push_back(BigInt(1).ShiftLeft(192) - BigInt(1) -
                   BigInt::RandomWithBits(40, rng).ShiftLeft(1));
  for (BigInt& m : moduli) {
    if (m.IsEven()) m = m + BigInt(1);
  }
  for (const BigInt& m : moduli) {
    SCOPED_TRACE(m.ToHex());
    const BigInt random_base = BigInt::RandomBelow(m, rng);
    const BigInt bases[] = {BigInt(0), m - BigInt(1), m,
                            m * BigInt(3) + BigInt(7), random_base};
    const BigInt exps[] = {BigInt(0), BigInt(1), BigInt(65537),
                           BigInt::RandomWithBits(m.BitLength(), rng)};
    for (const BigInt& base : bases) {
      for (const BigInt& exp : exps) {
        // Full-width exponents only on two bases: the reference is slow.
        if (exp.BitLength() > 32 && base != random_base &&
            base != m - BigInt(1)) {
          continue;
        }
        EXPECT_EQ(base.ModExp(exp, m).value(),
                  ReferenceModExp(base, exp, m))
            << "base " << base.ToHex() << " exp " << exp.ToHex();
      }
    }
  }
}

TEST(BigIntTest, ModExpEvenModulus) {
  EXPECT_EQ(BigInt(3).ModExp(BigInt(4), BigInt(100)).value().ToDecimal(),
            "81");
  EXPECT_EQ(BigInt(7).ModExp(BigInt(3), BigInt(10)).value().ToDecimal(), "3");
}

TEST(BigIntTest, ModExpRejectsBadInput) {
  EXPECT_FALSE(BigInt(2).ModExp(BigInt(-1), BigInt(5)).ok());
  EXPECT_FALSE(BigInt(2).ModExp(BigInt(3), BigInt(0)).ok());
  EXPECT_FALSE(BigInt(2).ModExp(BigInt(3), BigInt(-5)).ok());
}

TEST(BigIntTest, Gcd) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(18)).ToDecimal(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToDecimal(), "5");
  EXPECT_EQ(BigInt::Gcd(BigInt(-48), BigInt(18)).ToDecimal(), "6");
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(13)).ToDecimal(), "1");
}

TEST(BigIntTest, ModInverse) {
  BigInt inv = BigInt(3).ModInverse(BigInt(11)).value();
  EXPECT_EQ(inv.ToDecimal(), "4");  // 3*4 = 12 ≡ 1 mod 11
  EXPECT_FALSE(BigInt(6).ModInverse(BigInt(9)).ok());  // gcd 3
}

TEST(BigIntTest, ModInverseRandomized) {
  Rng rng(5);
  BigInt p = Dec("1000000007");
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::RandomBelow(p - BigInt(1), rng) + BigInt(1);
    BigInt inv = a.ModInverse(p).value();
    EXPECT_EQ((a * inv).Mod(p).value().ToDecimal(), "1");
  }
}

TEST(BigIntTest, RandomBelowBound) {
  Rng rng(21);
  BigInt bound = Dec("1000000000000");
  for (int i = 0; i < 100; ++i) {
    BigInt v = BigInt::RandomBelow(bound, rng);
    EXPECT_LT(v, bound);
    EXPECT_FALSE(v.IsNegative());
  }
}

TEST(BigIntTest, RandomWithBitsExact) {
  Rng rng(33);
  for (size_t bits : {1u, 8u, 31u, 32u, 33u, 100u}) {
    BigInt v = BigInt::RandomWithBits(bits, rng);
    EXPECT_EQ(v.BitLength(), bits);
  }
}

TEST(BigIntTest, PrimalityKnownPrimes) {
  Rng rng(1);
  const char* primes[] = {"2", "3", "17", "251", "257", "65537",
                          "1000000007", "170141183460469231731687303715884105727"};
  for (const char* p : primes) {
    EXPECT_TRUE(BigInt::IsProbablePrime(Dec(p), 20, rng)) << p;
  }
}

TEST(BigIntTest, PrimalityKnownComposites) {
  Rng rng(2);
  // Includes Carmichael numbers 561, 1105, 41041.
  const char* composites[] = {"1", "4", "100", "561", "1105", "41041",
                              "1000000008",
                              "170141183460469231731687303715884105725"};
  for (const char* c : composites) {
    EXPECT_FALSE(BigInt::IsProbablePrime(Dec(c), 20, rng)) << c;
  }
}

TEST(BigIntTest, GeneratePrimeHasRequestedSize) {
  Rng rng(77);
  BigInt p = BigInt::GeneratePrime(96, rng);
  EXPECT_EQ(p.BitLength(), 96u);
  EXPECT_TRUE(BigInt::IsProbablePrime(p, 20, rng));
}

class BigIntArithmeticSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(BigIntArithmeticSweep, MatchesInt64Semantics) {
  int64_t a = GetParam();
  const int64_t others[] = {-7, -1, 1, 2, 13, 1000003};
  for (int64_t b : others) {
    EXPECT_EQ((BigInt(a) + BigInt(b)).ToDecimal(), std::to_string(a + b));
    EXPECT_EQ((BigInt(a) - BigInt(b)).ToDecimal(), std::to_string(a - b));
    EXPECT_EQ((BigInt(a) * BigInt(b)).ToDecimal(), std::to_string(a * b));
    auto dm = BigInt(a).DivMod(BigInt(b)).value();
    EXPECT_EQ(dm.quotient.ToDecimal(), std::to_string(a / b));
    EXPECT_EQ(dm.remainder.ToDecimal(), std::to_string(a % b));
  }
}

INSTANTIATE_TEST_SUITE_P(Int64Cases, BigIntArithmeticSweep,
                         ::testing::Values(-1000000, -12345, -8, -1, 0, 1, 9,
                                           12345, 99999999, 4294967296LL));

}  // namespace
}  // namespace provnet
