#include <gtest/gtest.h>

#include <utility>

#include "apps/bestpath.h"
#include "bignum/montgomery.h"
#include "crypto/authenticator.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "net/topology.h"
#include "util/random.h"

namespace provnet {
namespace {

Bytes ToBytes(const std::string& s) { return Bytes(s.begin(), s.end()); }

// --- SHA-256 (FIPS 180-4 test vectors) --------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "network provenance as distributed streams";
  Sha256 h;
  for (char c : msg) h.Update(std::string(1, c));
  EXPECT_EQ(DigestToHex(h.Finish()), DigestToHex(Sha256::Hash(msg)));
}

TEST(Sha256Test, ResetReuses) {
  Sha256 h;
  h.Update(std::string("garbage"));
  h.Reset();
  h.Update(std::string("abc"));
  EXPECT_EQ(DigestToHex(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Padding boundary cases: lengths 55, 56, 63, 64 exercise all branch shapes.
class Sha256PaddingSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256PaddingSweep, MatchesIncremental) {
  std::string msg(GetParam(), 'x');
  Sha256 h;
  size_t half = msg.size() / 2;
  h.Update(msg.substr(0, half));
  h.Update(msg.substr(half));
  EXPECT_EQ(DigestToHex(h.Finish()), DigestToHex(Sha256::Hash(msg)));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha256PaddingSweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 127,
                                           128, 129));

// The sweep above compares two paths that share Finish, so it cannot see a
// padding bug. Known answers (Python's hashlib) for SHA-256('x' * n) at the
// lengths where the padding fits its block, just fills it, or spills into
// another.
TEST(Sha256Test, PaddingKnownAnswers) {
  const std::pair<size_t, const char*> known[] = {
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
      {119,
       "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120,
       "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
  };
  for (const auto& [n, hex] : known) {
    EXPECT_EQ(DigestToHex(Sha256::Hash(std::string(n, 'x'))), hex)
        << "n=" << n;
  }
}

// --- HMAC (RFC 4231 test vectors) -------------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes data = ToBytes("Hi There");
  Sha256Digest mac = HmacSha256(key, data);
  EXPECT_EQ(DigestToHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  Bytes key = ToBytes("Jefe");
  Bytes data = ToBytes("what do ya want for nothing?");
  EXPECT_EQ(DigestToHex(HmacSha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashed) {
  Bytes key(131, 0xaa);  // RFC 4231 case 6
  Bytes data = ToBytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(DigestToHex(HmacSha256(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DigestEqualConstantTime) {
  Sha256Digest a = Sha256::Hash(std::string("x"));
  Sha256Digest b = a;
  EXPECT_TRUE(DigestEqual(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(DigestEqual(a, b));
}

// --- RSA ---------------------------------------------------------------------

class RsaTest : public ::testing::Test {
 protected:
  static RsaKeyPair MakeKeys(size_t bits, uint64_t seed) {
    Rng rng(seed);
    Result<RsaKeyPair> kp = RsaGenerateKeyPair(bits, rng);
    EXPECT_TRUE(kp.ok()) << kp.status();
    return std::move(kp).value();
  }
};

TEST_F(RsaTest, KeyGenProducesValidKey) {
  RsaKeyPair kp = MakeKeys(256, 1);
  EXPECT_EQ(kp.pub.n.BitLength(), 256u);
  EXPECT_EQ(kp.pub.e.ToDecimal(), "65537");
  // d*e ≡ 1 mod phi(n).
  BigInt phi = (kp.priv.p - BigInt(1)) * (kp.priv.q - BigInt(1));
  EXPECT_EQ((kp.priv.d * kp.priv.e).Mod(phi).value().ToDecimal(), "1");
  EXPECT_EQ((kp.priv.p * kp.priv.q).ToDecimal(), kp.pub.n.ToDecimal());
}

TEST_F(RsaTest, RawRoundTrip) {
  RsaKeyPair kp = MakeKeys(256, 2);
  BigInt m(123456789);
  BigInt s = RsaPrivateOp(kp.priv, m).value();
  BigInt back = RsaPublicOp(kp.pub, s).value();
  EXPECT_EQ(back.ToDecimal(), m.ToDecimal());
}

TEST_F(RsaTest, SignVerify) {
  RsaKeyPair kp = MakeKeys(256, 3);
  Bytes msg = ToBytes("reachable(a,c) from a");
  Bytes sig = RsaSign(kp.priv, msg).value();
  EXPECT_EQ(sig.size(), kp.pub.ByteLength());
  EXPECT_TRUE(RsaVerify(kp.pub, msg, sig).ok());
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  RsaKeyPair kp = MakeKeys(256, 4);
  Bytes msg = ToBytes("link(a,b)");
  Bytes sig = RsaSign(kp.priv, msg).value();
  Bytes tampered = ToBytes("link(a,c)");
  Status s = RsaVerify(kp.pub, tampered, sig);
  EXPECT_EQ(s.code(), StatusCode::kUnauthenticated);
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  RsaKeyPair kp = MakeKeys(256, 5);
  Bytes msg = ToBytes("link(a,b)");
  Bytes sig = RsaSign(kp.priv, msg).value();
  sig[sig.size() / 2] ^= 0x40;
  EXPECT_FALSE(RsaVerify(kp.pub, msg, sig).ok());
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  RsaKeyPair kp1 = MakeKeys(256, 6);
  RsaKeyPair kp2 = MakeKeys(256, 7);
  Bytes msg = ToBytes("bestPath(a,d)");
  Bytes sig = RsaSign(kp1.priv, msg).value();
  EXPECT_FALSE(RsaVerify(kp2.pub, msg, sig).ok());
}

TEST_F(RsaTest, VerifyRejectsWrongLength) {
  RsaKeyPair kp = MakeKeys(256, 8);
  Bytes msg = ToBytes("x");
  Bytes sig = RsaSign(kp.priv, msg).value();
  sig.pop_back();
  EXPECT_FALSE(RsaVerify(kp.pub, msg, sig).ok());
}

TEST_F(RsaTest, LargerKeyEmbedsFullDigest) {
  RsaKeyPair kp = MakeKeys(512, 9);
  Bytes msg = ToBytes("full digest fits at 512 bits");
  Bytes sig = RsaSign(kp.priv, msg).value();
  EXPECT_TRUE(RsaVerify(kp.pub, msg, sig).ok());
  EXPECT_EQ(sig.size(), 64u);
}

TEST_F(RsaTest, RejectsBadKeySizes) {
  Rng rng(10);
  EXPECT_FALSE(RsaGenerateKeyPair(100, rng).ok());  // below the floor
  EXPECT_FALSE(RsaGenerateKeyPair(129, rng).ok());  // odd
  // An 18-byte block cannot hold the padding plus an 8-byte digest, so a
  // 144-bit key could never sign; 146 bits gives 19 bytes.
  EXPECT_FALSE(RsaGenerateKeyPair(144, rng).ok());
  EXPECT_FALSE(RsaGenerateKeyPair(2050, rng).ok());  // wider than the kernel
  RsaKeyPair kp = MakeKeys(146, 11);
  Bytes msg = ToBytes("smallest signing key");
  Bytes sig = RsaSign(kp.priv, msg).value();
  EXPECT_EQ(sig.size(), 19u);
  EXPECT_TRUE(RsaVerify(kp.pub, msg, sig).ok());
  EXPECT_FALSE(RsaVerify(kp.pub, ToBytes("another message"), sig).ok());

  // An engine with says on fails at Engine::Create (key generation),
  // before Run() signs anything.
  Rng topo_rng(12);
  EngineOptions opts;
  opts.rsa_bits = 144;
  Result<BestPathRun> run = RunBestPath(
      Topology::RingPlusRandom(5, 3, topo_rng), Variant::kSendlog, opts);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("RSA key size"), std::string::npos)
      << run.status();
}

// Keygen and signing pinned at the widths the engine goldens miss (those
// cover RSA-256 only). Values from the division-based bignum, before the
// Montgomery kernel; every one must stay byte-identical.
TEST_F(RsaTest, PinnedKnownAnswersAndHostileSignatures) {
  struct KnownAnswer {
    size_t bits;
    const char* n_hex;
    const char* sig_hex;
  };
  const KnownAnswer answers[] = {
      {192, "8779173b5156e0564de76bc6da6479685f3911d985fdd5f1",
       "66740acca3bcc476051d202072bdd261a72d4d34382638d6"},
      {256,
       "b2ed01132c38760569341d6b54971042258557f935908b1dd6d6a84e4d53780b",
       "0b1e061e1a3463b24a9ca7f01aed8f74475f35acca34aef72e576e9425b6ef72"},
      {384,
       "fd57dec84dcff45473d816cfeff888c19f487c9200844062dd619c1dfa93fd00c190f5"
       "a4f34cbdb0520d5d7bd98642b1",
       "cc5ebd74443f3fd270f4a3a26fdcc0edfe06c099b6226143f892e8f9564638723cb959"
       "e7231367f3eb073eca81eb4947"},
      {512,
       "c7887e642cf33de17ea798d1cc92dc7cb1b4e70ef6eeaa006436804390c0bfa06917b0"
       "d8f9cbfab46171d7fc0d819c40e636421c7f6f55b1e3f97742d7ead10f",
       "8a8f906c0fa7566a44ed54d630e4d609ba5390613656d508ddcf4d406b71543939df67"
       "78e61aebba65c7f54276487805e087354bc2869a7e7104ba8f0212af49"},
  };
  const Bytes msg = ToBytes("bestPath(@a,@d,[@a,@b,@d],5)");
  for (const KnownAnswer& answer : answers) {
    SCOPED_TRACE(answer.bits);
    RsaKeyPair kp = MakeKeys(answer.bits, 2008);
    EXPECT_EQ(kp.pub.n.ToHex(), answer.n_hex);
    Bytes sig = RsaSign(kp.priv, msg).value();
    EXPECT_EQ(BytesToHex(sig), answer.sig_hex);
    EXPECT_TRUE(RsaVerify(kp.pub, msg, sig).ok());

    // Hostile k-byte signatures: equal to n, above n, and zero.
    size_t k = kp.pub.ByteLength();
    Bytes equal_n = kp.pub.n.ToBytesPadded(k).value();
    EXPECT_EQ(RsaVerify(kp.pub, msg, equal_n).code(),
              StatusCode::kUnauthenticated);
    EXPECT_EQ(RsaVerify(kp.pub, msg, Bytes(k, 0xFF)).code(),
              StatusCode::kUnauthenticated);
    EXPECT_EQ(RsaVerify(kp.pub, msg, Bytes(k, 0x00)).code(),
              StatusCode::kUnauthenticated);
    // The valid signature plus n has the same e-th power mod n; only the
    // range check refuses it (it fits in k bytes at 192 and 256 bits).
    BigInt shifted = BigInt::FromBytes(sig) + kp.pub.n;
    if (shifted.BitLength() <= 8 * k) {
      EXPECT_EQ(
          RsaVerify(kp.pub, msg, shifted.ToBytesPadded(k).value()).code(),
          StatusCode::kUnauthenticated);
    }
  }
}

// Kernel work is deterministic: the Montgomery products of one RSA-256
// verify and one sign are pinned for a fixed key, and a SeNDLog fixpoint
// (keygen at Create, then every sign and verify) does the same work at 1
// and 4 threads.
TEST_F(RsaTest, MontgomeryWorkIsPinned) {
  RsaKeyPair kp = MakeKeys(256, 3);
  Bytes msg = ToBytes("reachable(a,c) from a");
  MontWork start = MontWorkTotals();
  Bytes sig = RsaSign(kp.priv, msg).value();
  MontWork signed_work = MontWorkTotals();
  ASSERT_TRUE(RsaVerify(kp.pub, msg, sig).ok());
  MontWork verified_work = MontWorkTotals();
  // Two 128-bit CRT halves, 4-bit windows; the count follows dp and dq.
  EXPECT_EQ(signed_work.exps - start.exps, 2u);
  EXPECT_EQ(signed_work.products - start.products, 339u);
  // e = 65537 by square-and-multiply: into Montgomery form, 16 squarings,
  // 1 multiply, back out. A window table would cost 14 products more.
  EXPECT_EQ(verified_work.exps - signed_work.exps, 1u);
  EXPECT_EQ(verified_work.products - signed_work.products, 19u);

  auto fixpoint_work = [](size_t threads) {
    Rng rng(16);
    Topology topo = Topology::RingPlusRandom(20, 3, rng);
    EngineOptions base;
    base.threads = threads;
    MontWork before = MontWorkTotals();
    Result<BestPathRun> run = RunBestPath(topo, Variant::kSendlog, base);
    EXPECT_TRUE(run.ok()) << run.status();
    MontWork after = MontWorkTotals();
    return std::pair(after.exps - before.exps,
                     after.products - before.products);
  };
  std::pair<uint64_t, uint64_t> one = fixpoint_work(1);
  std::pair<uint64_t, uint64_t> four = fixpoint_work(4);
  EXPECT_GT(one.first, 0u);
  EXPECT_EQ(one, four);
}

class RsaKeySizeSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(RsaKeySizeSweep, SignVerifyAtSize) {
  Rng rng(40 + GetParam());
  RsaKeyPair kp = RsaGenerateKeyPair(GetParam(), rng).value();
  Bytes msg = ToBytes("sweep message");
  Bytes sig = RsaSign(kp.priv, msg).value();
  EXPECT_TRUE(RsaVerify(kp.pub, msg, sig).ok());
  Bytes other = ToBytes("sweep message!");
  EXPECT_FALSE(RsaVerify(kp.pub, other, sig).ok());
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RsaKeySizeSweep,
                         ::testing::Values(192, 256, 384, 512));

// --- KeyStore ----------------------------------------------------------------

TEST(KeyStoreTest, DeterministicAcrossInstances) {
  KeyStore ks1(1234, 256);
  KeyStore ks2(1234, 256);
  const RsaPublicKey* p1 = ks1.PublicKeyFor("alice").value();
  const RsaPublicKey* p2 = ks2.PublicKeyFor("alice").value();
  EXPECT_EQ(p1->n.ToDecimal(), p2->n.ToDecimal());
  EXPECT_EQ(ks1.HmacKeyFor("alice"), ks2.HmacKeyFor("alice"));
}

TEST(KeyStoreTest, DistinctPrincipalsDistinctKeys) {
  KeyStore ks(1, 256);
  EXPECT_NE(ks.PublicKeyFor("a").value()->n.ToDecimal(),
            ks.PublicKeyFor("b").value()->n.ToDecimal());
  EXPECT_NE(ks.HmacKeyFor("a"), ks.HmacKeyFor("b"));
  EXPECT_EQ(ks.size(), 2u);
}

TEST(KeyStoreTest, SeedChangesKeys) {
  KeyStore ks1(1, 256), ks2(2, 256);
  EXPECT_NE(ks1.PublicKeyFor("a").value()->n.ToDecimal(),
            ks2.PublicKeyFor("a").value()->n.ToDecimal());
}

TEST(KeyStoreTest, CachesEntries) {
  KeyStore ks(1, 256);
  const RsaPublicKey* first = ks.PublicKeyFor("a").value();
  const RsaPublicKey* second = ks.PublicKeyFor("a").value();
  EXPECT_EQ(first, second);  // same cached object
}

// --- Authenticator (says) ------------------------------------------------------

class AuthenticatorTest : public ::testing::Test {
 protected:
  AuthenticatorTest() : keystore_(99, 256), auth_(&keystore_) {}
  KeyStore keystore_;
  Authenticator auth_;
};

TEST_F(AuthenticatorTest, CleartextAlwaysVerifies) {
  Bytes payload = ToBytes("tuple bytes");
  SaysTag tag = auth_.Say("a", payload, SaysLevel::kCleartext).value();
  EXPECT_TRUE(tag.proof.empty());
  EXPECT_TRUE(auth_.Verify(tag, payload).ok());
  EXPECT_EQ(auth_.sign_count(), 0u);  // cleartext is free
}

TEST_F(AuthenticatorTest, HmacRoundTrip) {
  Bytes payload = ToBytes("tuple bytes");
  SaysTag tag = auth_.Say("a", payload, SaysLevel::kHmac).value();
  EXPECT_EQ(tag.proof.size(), kSha256DigestSize);
  EXPECT_TRUE(auth_.Verify(tag, payload).ok());
}

TEST_F(AuthenticatorTest, HmacDetectsTamper) {
  Bytes payload = ToBytes("tuple bytes");
  SaysTag tag = auth_.Say("a", payload, SaysLevel::kHmac).value();
  Bytes other = ToBytes("tuple byteZ");
  EXPECT_EQ(auth_.Verify(tag, other).code(), StatusCode::kUnauthenticated);
}

TEST_F(AuthenticatorTest, KeyStoreMacEqualsByteKeyMac) {
  // The says level MACs with the key store's precomputed pads; its tags must
  // be exactly the MAC of the principal's key bytes.
  const Bytes payload = ToBytes("bestPath(@0, @2, [@0, @1, @2], 7)");
  for (const Principal p : {"n0", "n1", "alice", "a principal name"}) {
    Sha256Digest expected = HmacSha256(keystore_.HmacKeyFor(p), payload);
    SaysTag tag = auth_.Say(p, payload, SaysLevel::kHmac).value();
    EXPECT_EQ(tag.proof, Bytes(expected.begin(), expected.end())) << p;
    SaysTag by_bytes{SaysLevel::kHmac, p,
                     Bytes(expected.begin(), expected.end())};
    EXPECT_TRUE(auth_.Verify(by_bytes, payload).ok()) << p;
  }
}

TEST_F(AuthenticatorTest, RsaRoundTripAndTamper) {
  Bytes payload = ToBytes("reachable(a,c)");
  SaysTag tag = auth_.Say("a", payload, SaysLevel::kRsa).value();
  EXPECT_TRUE(auth_.Verify(tag, payload).ok());
  Bytes other = ToBytes("reachable(a,d)");
  EXPECT_FALSE(auth_.Verify(tag, other).ok());
}

TEST_F(AuthenticatorTest, ImpersonationFails) {
  // b cannot forge "a says": tag claims principal a but was MACed/signed by b.
  Bytes payload = ToBytes("route update");
  SaysTag forged = auth_.Say("b", payload, SaysLevel::kRsa).value();
  forged.principal = "a";
  EXPECT_FALSE(auth_.Verify(forged, payload).ok());
}

TEST_F(AuthenticatorTest, TagSerializationRoundTrip) {
  Bytes payload = ToBytes("x");
  for (SaysLevel level :
       {SaysLevel::kCleartext, SaysLevel::kHmac, SaysLevel::kRsa}) {
    SaysTag tag = auth_.Say("node7", payload, level).value();
    ByteWriter w;
    tag.Serialize(w);
    EXPECT_EQ(w.size(), tag.WireSize());
    ByteReader r(w.bytes());
    SaysTag back = SaysTag::Deserialize(r).value();
    EXPECT_EQ(back.level, tag.level);
    EXPECT_EQ(back.principal, tag.principal);
    EXPECT_EQ(back.proof, tag.proof);
    EXPECT_TRUE(auth_.Verify(back, payload).ok());
  }
}

TEST_F(AuthenticatorTest, DeserializeRejectsBadLevel) {
  ByteWriter w;
  w.PutU8(9);
  w.PutString("a");
  w.PutBlob({});
  ByteReader r(w.bytes());
  EXPECT_FALSE(SaysTag::Deserialize(r).ok());
}

TEST_F(AuthenticatorTest, WireSizeOrderingMatchesSecurityLadder) {
  // The says ladder trades security for bytes: cleartext < hmac <= rsa
  // (an RSA proof is modulus-sized, so it ties HMAC at 256-bit keys and
  // dominates at realistic sizes).
  Bytes payload = ToBytes("payload");
  size_t clear =
      auth_.Say("a", payload, SaysLevel::kCleartext).value().WireSize();
  size_t hmac = auth_.Say("a", payload, SaysLevel::kHmac).value().WireSize();
  size_t rsa = auth_.Say("a", payload, SaysLevel::kRsa).value().WireSize();
  EXPECT_LT(clear, hmac);
  EXPECT_LE(hmac, rsa);

  KeyStore big_store(7, 512);
  Authenticator big_auth(&big_store);
  size_t rsa512 =
      big_auth.Say("a", payload, SaysLevel::kRsa).value().WireSize();
  EXPECT_LT(hmac, rsa512);
}

TEST_F(AuthenticatorTest, CountersTrackOperations) {
  Bytes payload = ToBytes("p");
  auth_.ResetCounters();
  SaysTag t1 = auth_.Say("a", payload, SaysLevel::kRsa).value();
  SaysTag t2 = auth_.Say("a", payload, SaysLevel::kHmac).value();
  EXPECT_TRUE(auth_.Verify(t1, payload).ok());
  EXPECT_TRUE(auth_.Verify(t2, payload).ok());
  EXPECT_EQ(auth_.sign_count(), 2u);
  EXPECT_EQ(auth_.verify_count(), 2u);
}

}  // namespace
}  // namespace provnet
