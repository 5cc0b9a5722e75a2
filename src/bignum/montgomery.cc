#include "bignum/montgomery.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <utility>

#include "util/logging.h"

namespace provnet {
namespace {

using u128 = unsigned __int128;

std::atomic<uint64_t> g_exps{0};
std::atomic<uint64_t> g_products{0};

void RecordWork(uint64_t exps, uint64_t products) {
  g_exps.fetch_add(exps, std::memory_order_relaxed);
  g_products.fetch_add(products, std::memory_order_relaxed);
}

size_t BitLength(const uint64_t* x, size_t limbs) {
  for (size_t i = limbs; i > 0; --i) {
    if (x[i - 1] != 0) {
      return 64 * i - static_cast<size_t>(std::countl_zero(x[i - 1]));
    }
  }
  return 0;
}

// Window i of x in `width`-bit windows (width 1 or 4, so a window never
// straddles two limbs).
size_t Digit(const uint64_t* x, size_t i, size_t width) {
  const size_t lo = i * width;
  return (x[lo / 64] >> (lo % 64)) & ((size_t{1} << width) - 1);
}

// out = t - m when t >= m, else t. t has N limbs plus a carry limb `hi`
// (0 or 1) and is below 2m. out may alias t. Forced inline: every product
// ends in it.
template <size_t N>
[[gnu::always_inline]] inline void SubIfAtLeast(const uint64_t* t,
                                                uint64_t hi,
                                                const uint64_t* m,
                                                uint64_t* out) {
  uint64_t d[N];
  uint64_t borrow = 0;
  for (size_t j = 0; j < N; ++j) {
    u128 diff = static_cast<u128>(t[j]) - m[j] - borrow;
    d[j] = static_cast<uint64_t>(diff);
    borrow = static_cast<uint64_t>(diff >> 64) & 1;
  }
  const bool at_least = hi != 0 || borrow == 0;
  for (size_t j = 0; j < N; ++j) out[j] = at_least ? d[j] : t[j];
}

// out = a + b mod m for a, b < m.
template <size_t N>
void AddMod(const uint64_t* a, const uint64_t* b, const uint64_t* m,
            uint64_t* out) {
  uint64_t sum[N];
  uint64_t carry = 0;
  for (size_t j = 0; j < N; ++j) {
    u128 cur = static_cast<u128>(a[j]) + b[j] + carry;
    sum[j] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
  SubIfAtLeast<N>(sum, carry, m, out);
}

// out = a - b mod m for a, b < m.
template <size_t N>
void SubMod(const uint64_t* a, const uint64_t* b, const uint64_t* m,
            uint64_t* out) {
  uint64_t diff[N];
  uint64_t borrow = 0;
  for (size_t j = 0; j < N; ++j) {
    u128 cur = static_cast<u128>(a[j]) - b[j] - borrow;
    diff[j] = static_cast<uint64_t>(cur);
    borrow = static_cast<uint64_t>(cur >> 64) & 1;
  }
  uint64_t carry = 0;
  for (size_t j = 0; j < N; ++j) {
    u128 cur = static_cast<u128>(diff[j]) + (borrow ? m[j] : 0) + carry;
    out[j] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
}

// Montgomery arithmetic modulo one N-limb modulus, counting its products.
template <size_t N>
class Field {
 public:
  explicit Field(const MontModulus& mod) : mod_(mod), minv_(mod.minv()) {
    std::copy(mod.m(), mod.m() + N, m_);
  }

  uint64_t products() const { return products_; }

  // out = a * b * R^-1 mod m (CIOS), for a * b < m * R. out may alias a
  // or b.
  void Mul(const uint64_t* a, const uint64_t* b, uint64_t* out) {
    ++products_;
    uint64_t t[N + 2] = {};
    for (size_t i = 0; i < N; ++i) {
      uint64_t carry = 0;
      for (size_t j = 0; j < N; ++j) {
        u128 cur = static_cast<u128>(a[i]) * b[j] + t[j] + carry;
        t[j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      u128 top = static_cast<u128>(t[N]) + carry;
      t[N] = static_cast<uint64_t>(top);
      t[N + 1] = static_cast<uint64_t>(top >> 64);

      const uint64_t q = t[0] * minv_;
      u128 cur = static_cast<u128>(q) * m_[0] + t[0];
      carry = static_cast<uint64_t>(cur >> 64);
      for (size_t j = 1; j < N; ++j) {
        cur = static_cast<u128>(q) * m_[j] + t[j] + carry;
        t[j - 1] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      top = static_cast<u128>(t[N]) + carry;
      t[N - 1] = static_cast<uint64_t>(top);
      t[N] = t[N + 1] + static_cast<uint64_t>(top >> 64);
    }
    SubIfAtLeast<N>(t, t[N], m_, out);
  }

  // out = a * R mod m, the Montgomery form of a < m.
  void ToMont(const uint64_t* a, uint64_t* out) { Mul(a, mod_.r2(), out); }

  // out = a * R^-1 mod m: REDC of a single-width a (any a < R), which also
  // takes a Montgomery-form value back to plain form.
  void Redc(const uint64_t* a, uint64_t* out) {
    static constexpr uint64_t kOne[N] = {1};
    Mul(a, kOne, out);
  }

  // out = x^e in Montgomery form, for x in Montgomery form.
  // Exponents of at most 32 bits (e = 65537) take 1-bit windows, which is
  // square-and-multiply; longer ones 4-bit windows over x^1..x^15. The top
  // window seeds acc. Flattened so that the products inline into the
  // ladder: a call costs about a sixth of a 2-limb product.
  [[gnu::flatten]] void Pow(const uint64_t* x, const uint64_t* e,
                            size_t e_limbs, uint64_t* out) {
    const size_t bits = BitLength(e, e_limbs);
    if (bits == 0) {
      std::copy(mod_.one(), mod_.one() + N, out);
      return;
    }
    const size_t width = bits <= 32 ? 1 : 4;
    uint64_t table[16][N];
    std::copy(x, x + N, table[1]);
    for (size_t i = 2; i < (size_t{1} << width); ++i) {
      Mul(table[i - 1], x, table[i]);
    }
    size_t window = (bits + width - 1) / width - 1;
    const uint64_t* top = table[Digit(e, window, width)];
    uint64_t acc[N];
    std::copy(top, top + N, acc);
    while (window-- > 0) {
      for (size_t i = 0; i < width; ++i) Mul(acc, acc, acc);
      const size_t d = Digit(e, window, width);
      if (d != 0) Mul(acc, table[d], acc);
    }
    std::copy(acc, acc + N, out);
  }

 private:
  const MontModulus& mod_;
  uint64_t m_[N];
  uint64_t minv_;
  uint64_t products_ = 0;
};

// Fills words[N..3N) with R mod m and R^2 mod m, for m = words[0..N), by
// doubling 2^(bits(m) - 1), which is below m.
template <size_t N>
struct InitOp {
  static void Run(uint64_t* words) {
    const uint64_t* m = words;
    uint64_t r[N] = {};
    const size_t top = BitLength(m, N) - 1;
    r[top / 64] = uint64_t{1} << (top % 64);
    for (size_t bit = top; bit < 128 * N; ++bit) {
      if (bit == 64 * N) std::copy(r, r + N, words + N);
      const uint64_t hi = r[N - 1] >> 63;
      for (size_t j = N - 1; j > 0; --j) {
        r[j] = (r[j] << 1) | (r[j - 1] >> 63);
      }
      r[0] <<= 1;
      SubIfAtLeast<N>(r, hi, m, r);
    }
    std::copy(r, r + N, words + 2 * N);
  }
};

template <size_t N>
struct ExpOp {
  static void Run(const MontModulus& mod, const uint64_t* base,
                  const uint64_t* exp, size_t exp_limbs, uint64_t* out) {
    Field<N> f(mod);
    uint64_t x[N];
    f.ToMont(base, x);
    f.Pow(x, exp, exp_limbs, x);
    f.Redc(x, out);
    RecordWork(1, f.products());
  }
};

template <size_t N>
struct WitnessOp {
  static bool Run(const MontModulus& mod, const uint64_t* a) {
    const uint64_t* m = mod.m();
    const uint64_t* one = mod.one();
    // -1 in Montgomery form: 0 - (R mod m).
    const uint64_t zero[N] = {};
    uint64_t minus_one[N];
    SubMod<N>(zero, one, m, minus_one);
    // m - 1 = d * 2^s with d odd.
    uint64_t d[N];
    std::copy(m, m + N, d);
    d[0] &= ~uint64_t{1};
    size_t s = 0;
    for (; (d[0] & 1) == 0; ++s) {
      for (size_t j = 0; j + 1 < N; ++j) d[j] = (d[j] >> 1) | (d[j + 1] << 63);
      d[N - 1] >>= 1;
    }

    Field<N> f(mod);
    uint64_t x[N];
    f.ToMont(a, x);
    f.Pow(x, d, N, x);
    auto equals = [](const uint64_t* u, const uint64_t* v) {
      return std::equal(u, u + N, v);
    };
    bool witness = !equals(x, one) && !equals(x, minus_one);
    for (size_t i = 1; witness && i < s; ++i) {
      f.Mul(x, x, x);
      if (equals(x, minus_one)) witness = false;
    }
    RecordWork(1, f.products());
    return witness;
  }
};

// One CRT half: out = x^e mod m for x < m * R given as 2W limbs, returning
// the products it took.
template <size_t W>
uint64_t CrtHalf(const MontModulus& mod, const uint64_t* x,
                 const std::vector<uint64_t>& e, uint64_t* out) {
  Field<W> f(mod);
  // x = hi * R + lo with hi < m, so x R^-1 = hi + REDC(lo); two products
  // by R^2 then give x R, the Montgomery form of x mod m.
  uint64_t u[W];
  f.Redc(x, u);
  AddMod<W>(u, x + W, mod.m(), u);
  f.ToMont(u, u);
  f.ToMont(u, u);
  f.Pow(u, e.data(), e.size(), u);
  f.Redc(u, out);
  return f.products();
}

template <size_t W>
struct CrtOp {
  static void Run(const MontCrtKey& key, const uint64_t* x, uint64_t* out) {
    uint64_t s1[W];
    uint64_t s2[W];
    uint64_t products = CrtHalf<W>(key.p, x, key.dp, s1) +
                        CrtHalf<W>(key.q, x, key.dq, s2);
    // h = q^-1 (s1 - s2) mod p; s2 < q < p.
    Field<W> fp(key.p);
    uint64_t h[W];
    SubMod<W>(s1, s2, key.p.m(), h);
    fp.Mul(h, key.qinv_mont.data(), h);
    products += fp.products();
    // out = s2 + q h, which is below n = p q.
    const uint64_t* q = key.q.m();
    std::fill(out, out + 2 * W, 0);
    std::copy(s2, s2 + W, out);
    for (size_t i = 0; i < W; ++i) {
      uint64_t carry = 0;
      for (size_t j = 0; j < W; ++j) {
        u128 cur = static_cast<u128>(q[i]) * h[j] + out[i + j] + carry;
        out[i + j] = static_cast<uint64_t>(cur);
        carry = static_cast<uint64_t>(cur >> 64);
      }
      out[i + W] = carry;
    }
    RecordWork(2, products);
  }
};

// Width-indexed tables: entry i runs the operation at width i + 1.
template <template <size_t> class Op, size_t... I>
constexpr auto MakeTable(std::index_sequence<I...>) {
  return std::array{&Op<I + 1>::Run...};
}

constexpr auto kInit =
    MakeTable<InitOp>(std::make_index_sequence<kMontMaxLimbs>{});
constexpr auto kExp =
    MakeTable<ExpOp>(std::make_index_sequence<kMontMaxLimbs>{});
constexpr auto kWitness =
    MakeTable<WitnessOp>(std::make_index_sequence<kMontMaxLimbs>{});
constexpr auto kCrt =
    MakeTable<CrtOp>(std::make_index_sequence<kMontMaxLimbs / 2>{});

}  // namespace

MontModulus::MontModulus(const uint64_t* m, size_t limbs) : limbs_(limbs) {
  PROVNET_CHECK(limbs >= 1 && limbs <= kMontMaxLimbs && m[limbs - 1] != 0 &&
                (m[0] & 1) == 1 && (limbs > 1 || m[0] > 1))
      << "Montgomery modulus must be odd, above 1, at most 2048 bits";
  // m^-1 mod 2^64 by Newton's iteration: m0 * m0 = 1 mod 8 seeds 3 correct
  // bits, and each step doubles them.
  uint64_t inv = m[0];
  for (int i = 0; i < 5; ++i) inv *= 2 - m[0] * inv;
  minv_ = 0 - inv;

  words_.assign(3 * limbs, 0);
  std::copy(m, m + limbs, words_.begin());
  kInit[limbs - 1](words_.data());
}

void MontModulus::Exp(const uint64_t* base, const uint64_t* exp,
                      size_t exp_limbs, uint64_t* out) const {
  kExp[limbs_ - 1](*this, base, exp, exp_limbs, out);
}

bool MontModulus::IsWitness(const uint64_t* a) const {
  return kWitness[limbs_ - 1](*this, a);
}

void MontCrtExp(const MontCrtKey& key, const uint64_t* x, uint64_t* out) {
  const size_t w = key.p.limbs();
  PROVNET_CHECK(w >= 1 && w <= kMontMaxLimbs / 2 && key.q.limbs() == w)
      << "CRT key halves must share one width";
  kCrt[w - 1](key, x, out);
}

MontWork MontWorkTotals() {
  return MontWork{g_exps.load(std::memory_order_relaxed),
                  g_products.load(std::memory_order_relaxed)};
}

}  // namespace provnet
