#include "crypto/sha256.h"

#include <cstring>

// SHA-NI fast path: the compression function is the hot spot of the whole
// provenance pipeline (every Merkle ContentDigest, tuple digest, and wire
// decode-cache key funnels through it), so use the dedicated x86
// instructions when the CPU has them. Runtime-dispatched: the portable
// scalar rounds below stay the fallback and the reference.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PROVNET_SHA_NI 1
#include <immintrin.h>
#endif

namespace provnet {
namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t RotR(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#if PROVNET_SHA_NI
// One 64-byte block with the SHA extension: two lanes of four state words
// (ABEF / CDGH), four rounds per _mm_sha256rnds2_epu32, message schedule
// via _mm_sha256msg1/msg2. Round constants are kK packed pairwise.
// w[i..i+3] + K[i..i+3] (kK packed four at a time).
__attribute__((target("sha,sse4.1,ssse3"))) inline __m128i ShaK(int i) {
  return _mm_set_epi32(static_cast<int>(kK[i + 3]), static_cast<int>(kK[i + 2]),
                       static_cast<int>(kK[i + 1]), static_cast<int>(kK[i]));
}

// Four rounds: feed w[i..i+3]+K into both rnds2 halves.
__attribute__((target("sha,sse4.1,ssse3"))) inline void ShaRounds(
    __m128i& state0, __m128i& state1, __m128i wk) {
  state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
  state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0E));
}

// Schedule expansion: w0 <- next four w's from the previous four vectors.
__attribute__((target("sha,sse4.1,ssse3"))) inline void ShaExpand(
    __m128i& w0, __m128i w1, __m128i w2, __m128i w3) {
  w0 = _mm_sha256msg1_epu32(w0, w1);
  w0 = _mm_add_epi32(w0, _mm_alignr_epi8(w3, w2, 4));
  w0 = _mm_sha256msg2_epu32(w0, w3);
}

__attribute__((target("sha,sse4.1,ssse3"))) void ProcessBlockShaNi(
    uint32_t* state, const uint8_t* data) {
  const __m128i kShuf =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                   // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);             // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);     // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);          // CDGH
  const __m128i abef_save = state0;
  const __m128i cdgh_save = state1;

  __m128i msg0 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0)), kShuf);
  __m128i msg1 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16)), kShuf);
  __m128i msg2 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32)), kShuf);
  __m128i msg3 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48)), kShuf);

  ShaRounds(state0, state1, _mm_add_epi32(msg0, ShaK(0)));
  ShaRounds(state0, state1, _mm_add_epi32(msg1, ShaK(4)));
  ShaRounds(state0, state1, _mm_add_epi32(msg2, ShaK(8)));
  ShaRounds(state0, state1, _mm_add_epi32(msg3, ShaK(12)));
  for (int i = 16; i < 64; i += 16) {
    ShaExpand(msg0, msg1, msg2, msg3);
    ShaRounds(state0, state1, _mm_add_epi32(msg0, ShaK(i)));
    ShaExpand(msg1, msg2, msg3, msg0);
    ShaRounds(state0, state1, _mm_add_epi32(msg1, ShaK(i + 4)));
    ShaExpand(msg2, msg3, msg0, msg1);
    ShaRounds(state0, state1, _mm_add_epi32(msg2, ShaK(i + 8)));
    ShaExpand(msg3, msg0, msg1, msg2);
    ShaRounds(state0, state1, _mm_add_epi32(msg3, ShaK(i + 12)));
  }

  state0 = _mm_add_epi32(state0, abef_save);
  state1 = _mm_add_epi32(state1, cdgh_save);
  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE -> EFGH order below
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

bool HaveShaNi() {
  static const bool have = __builtin_cpu_supports("sha");
  return have;
}
#endif  // PROVNET_SHA_NI

}  // namespace

Sha256::Sha256() { Reset(); }

void Sha256::Reset() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha256::ProcessBlock(const uint8_t* block) {
#if PROVNET_SHA_NI
  if (HaveShaNi()) {
    ProcessBlockShaNi(state_, block);
    return;
  }
#endif
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<uint32_t>(block[i * 4]) << 24 |
           static_cast<uint32_t>(block[i * 4 + 1]) << 16 |
           static_cast<uint32_t>(block[i * 4 + 2]) << 8 |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = RotR(w[i - 15], 7) ^ RotR(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = RotR(w[i - 2], 17) ^ RotR(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];

  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = RotR(e, 6) ^ RotR(e, 11) ^ RotR(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
    uint32_t s0 = RotR(a, 2) ^ RotR(a, 13) ^ RotR(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::Update(const uint8_t* data, size_t len) {
  total_len_ += len;
  if (buffer_len_ > 0) {
    size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      ProcessBlock(buffer_);
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    ProcessBlock(data);
    data += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_, data, len);
    buffer_len_ = len;
  }
}

void Sha256::Update(const Bytes& data) { Update(data.data(), data.size()); }

void Sha256::Update(const std::string& data) {
  Update(reinterpret_cast<const uint8_t*>(data.data()), data.size());
}

Sha256Digest Sha256::Finish() {
  const uint64_t bit_len = total_len_ * 8;
  // The 0x80 byte, then zeros up to the 8-byte length at the end of a block:
  // with more than 55 bytes buffered they spill into one more block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_ + buffer_len_, 0, sizeof(buffer_) - buffer_len_);
    ProcessBlock(buffer_);
    buffer_len_ = 0;
  }
  std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (8 * (7 - i)));
  }
  ProcessBlock(buffer_);
  buffer_len_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Sha256Digest Sha256::Hash(const std::string& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

std::string DigestToHex(const Sha256Digest& digest) {
  return BytesToHex(Bytes(digest.begin(), digest.end()));
}

Bytes DigestToBytes(const Sha256Digest& digest) {
  return Bytes(digest.begin(), digest.end());
}

}  // namespace provnet
