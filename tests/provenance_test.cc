#include <gtest/gtest.h>

#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "provenance/condense.h"
#include "provenance/derivation.h"
#include "provenance/prov_expr.h"
#include "provenance/semiring.h"
#include "provenance/store.h"
#include "store/archive.h"

namespace provnet {
namespace {

// --- ProvExpr ----------------------------------------------------------------

TEST(ProvExprTest, ZeroAndOneIdentities) {
  ProvExpr a = ProvExpr::Var(1);
  EXPECT_TRUE(ProvExpr::Plus(ProvExpr::Zero(), a).Equals(a));
  EXPECT_TRUE(ProvExpr::Plus(a, ProvExpr::Zero()).Equals(a));
  EXPECT_TRUE(ProvExpr::Times(ProvExpr::One(), a).Equals(a));
  EXPECT_TRUE(ProvExpr::Times(a, ProvExpr::One()).Equals(a));
  EXPECT_TRUE(ProvExpr::Times(ProvExpr::Zero(), a).IsZero());
  EXPECT_TRUE(ProvExpr::Times(a, ProvExpr::Zero()).IsZero());
}

TEST(ProvExprTest, PhysicalIdempotence) {
  ProvExpr a = ProvExpr::Var(3);
  EXPECT_TRUE(ProvExpr::Plus(a, a).Equals(a));  // same node, no growth
}

TEST(ProvExprTest, StructureAccessors) {
  ProvExpr e = ProvExpr::Plus(ProvExpr::Var(0),
                              ProvExpr::Times(ProvExpr::Var(0),
                                              ProvExpr::Var(1)));
  EXPECT_EQ(e.kind(), ProvExprKind::kPlus);
  EXPECT_EQ(e.left().var(), 0u);
  EXPECT_EQ(e.right().kind(), ProvExprKind::kTimes);
  EXPECT_EQ(e.Variables(), (std::vector<ProvVar>{0, 1}));
}

TEST(ProvExprTest, ToStringPrecedence) {
  ProvExpr e = ProvExpr::Times(
      ProvExpr::Plus(ProvExpr::Var(0), ProvExpr::Var(1)), ProvExpr::Var(2));
  EXPECT_EQ(e.ToString(), "(v0 + v1)*v2");
  ProvExpr f = ProvExpr::Plus(
      ProvExpr::Var(0), ProvExpr::Times(ProvExpr::Var(0), ProvExpr::Var(1)));
  EXPECT_EQ(f.ToString(), "v0 + v0*v1");
}

TEST(ProvExprTest, SerializationRoundTrip) {
  ProvExpr e = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Var(5), ProvExpr::Var(700000)),
      ProvExpr::One());
  ByteWriter w;
  e.Serialize(w);
  EXPECT_EQ(w.size(), e.WireSize());
  ByteReader r(w.bytes());
  Result<ProvExpr> back = ProvExpr::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().Equals(e));
  EXPECT_TRUE(r.AtEnd());
}

TEST(ProvExprTest, DeserializeRejectsGarbage) {
  Bytes bad = {0x09};
  ByteReader r(bad);
  EXPECT_FALSE(ProvExpr::Deserialize(r).ok());
  Bytes truncated = {static_cast<uint8_t>(ProvExprKind::kPlus)};
  ByteReader r2(truncated);
  EXPECT_FALSE(ProvExpr::Deserialize(r2).ok());
}

TEST(ProvExprTest, NodeCountSharesDags) {
  ProvExpr x = ProvExpr::Var(0);
  ProvExpr shared = ProvExpr::Times(x, ProvExpr::Var(1));
  // Plus of the identical node collapses by idempotence.
  EXPECT_EQ(ProvExpr::Plus(shared, shared).NodeCount(), 3u);
  // A genuine union counts shared subterms once.
  ProvExpr e = ProvExpr::Plus(shared,
                              ProvExpr::Times(shared, ProvExpr::Var(2)));
  EXPECT_EQ(e.NodeCount(), 6u);  // plus, outer-times, times, v0, v1, v2
}

TEST(ProvVarRegistryTest, InternsDeterministically) {
  ProvVarRegistry reg;
  EXPECT_EQ(reg.Intern("a"), 0u);
  EXPECT_EQ(reg.Intern("b"), 1u);
  EXPECT_EQ(reg.Intern("a"), 0u);
  EXPECT_EQ(reg.NameOf(1), "b");
  EXPECT_EQ(reg.NameOf(99), "v99");
  EXPECT_EQ(reg.Find("b").value(), 1u);
  EXPECT_FALSE(reg.Find("c").has_value());
}

// --- Semirings (Section 4.5) --------------------------------------------------

class SemiringFixture : public ::testing::Test {
 protected:
  // The paper's example: <a + a*b>.
  SemiringFixture()
      : expr_(ProvExpr::Plus(
            ProvExpr::Var(0),
            ProvExpr::Times(ProvExpr::Var(0), ProvExpr::Var(1)))) {}
  ProvExpr expr_;
};

TEST_F(SemiringFixture, BooleanDerivability) {
  EXPECT_TRUE(DerivableFrom(expr_, {{0, true}}));             // a suffices
  EXPECT_TRUE(DerivableFrom(expr_, {{0, true}, {1, true}}));
  EXPECT_FALSE(DerivableFrom(expr_, {{1, true}}));            // b alone: no
  EXPECT_FALSE(DerivableFrom(expr_, {}));
}

TEST_F(SemiringFixture, TrustLevelPaperExample) {
  // level(a)=2, level(b)=1 -> max(2, min(2,1)) = 2.
  EXPECT_EQ(TrustLevelOf(expr_, {{0, 2}, {1, 1}}, 0), 2);
  // Weakest-link: if a is level 1, both derivations bottom out at 1.
  EXPECT_EQ(TrustLevelOf(expr_, {{0, 1}, {1, 5}}, 0), 1);
  // Missing principals use the default.
  EXPECT_EQ(TrustLevelOf(expr_, {}, 7), 7);
}

TEST_F(SemiringFixture, DerivationCounting) {
  EXPECT_EQ(DerivationCount(expr_), 2u);  // a, and a*b
  ProvExpr three = ProvExpr::Plus(expr_, ProvExpr::Var(2));
  EXPECT_EQ(DerivationCount(three), 3u);
  EXPECT_EQ(DerivationCount(ProvExpr::Zero()), 0u);
  EXPECT_EQ(DerivationCount(ProvExpr::One()), 1u);
}

TEST(SemiringTest, CountingMultipliesJoins) {
  // (a + b) * (c + d): four distinct derivations.
  ProvExpr e = ProvExpr::Times(
      ProvExpr::Plus(ProvExpr::Var(0), ProvExpr::Var(1)),
      ProvExpr::Plus(ProvExpr::Var(2), ProvExpr::Var(3)));
  EXPECT_EQ(DerivationCount(e), 4u);
}

// --- Condensation (Section 4.4) ------------------------------------------------

TEST(CondenseTest, PaperAbsorption) {
  ProvExpr e = ProvExpr::Plus(
      ProvExpr::Var(0),
      ProvExpr::Times(ProvExpr::Var(0), ProvExpr::Var(1)));
  CondensedProv c = Condense(e);
  ASSERT_EQ(c.cubes.size(), 1u);
  EXPECT_EQ(c.cubes[0], (std::vector<ProvVar>{0}));
  EXPECT_EQ(c.ToString(), "<v0>");
}

TEST(CondenseTest, KeepsIndependentWitnesses) {
  // a*b + c*d: both witness sets are minimal.
  ProvExpr e = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Var(0), ProvExpr::Var(1)),
      ProvExpr::Times(ProvExpr::Var(2), ProvExpr::Var(3)));
  CondensedProv c = Condense(e);
  EXPECT_EQ(c.cubes.size(), 2u);
  EXPECT_EQ(c.VoteCount(), 2u);
  EXPECT_EQ(c.MinWitnessSize(), 2u);
}

TEST(CondenseTest, ZeroAndOne) {
  EXPECT_TRUE(Condense(ProvExpr::Zero()).IsZero());
  EXPECT_TRUE(Condense(ProvExpr::One()).IsOne());
}

TEST(CondenseTest, RoundTripThroughExpr) {
  ProvExpr e = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Var(1), ProvExpr::Var(2)), ProvExpr::Var(0));
  CondensedProv c = Condense(e);
  // Condensing the rebuilt polynomial is a fixpoint.
  CondensedProv c2 = Condense(c.ToExpr());
  EXPECT_EQ(c, c2);
}

TEST(CondenseTest, SerializationRoundTrip) {
  CondensedProv c;
  c.cubes = {{0}, {1, 5}, {2, 3, 900000}};
  ByteWriter w;
  c.Serialize(w);
  EXPECT_EQ(w.size(), c.WireSize());
  ByteReader r(w.bytes());
  Result<CondensedProv> back = CondensedProv::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), c);
}

TEST(CondenseTest, SatisfiedBy) {
  CondensedProv c;
  c.cubes = {{0, 1}, {2}};
  EXPECT_TRUE(c.SatisfiedBy({0, 1}));
  EXPECT_TRUE(c.SatisfiedBy({2}));
  EXPECT_TRUE(c.SatisfiedBy({0, 2}));
  EXPECT_FALSE(c.SatisfiedBy({0}));
  EXPECT_FALSE(c.SatisfiedBy({}));
}

TEST(CondenseTest, EquivalentExpressionsCondenseIdentically) {
  // Distributivity: a*(b+c) vs a*b + a*c.
  ProvExpr lhs = ProvExpr::Times(
      ProvExpr::Var(0), ProvExpr::Plus(ProvExpr::Var(1), ProvExpr::Var(2)));
  ProvExpr rhs = ProvExpr::Plus(
      ProvExpr::Times(ProvExpr::Var(0), ProvExpr::Var(1)),
      ProvExpr::Times(ProvExpr::Var(0), ProvExpr::Var(2)));
  EXPECT_EQ(Condense(lhs), Condense(rhs));
}

// Property sweep: condensation preserves boolean semantics.
class CondensePropertySweep : public ::testing::TestWithParam<int> {};

TEST_P(CondensePropertySweep, PreservesBooleanSemantics) {
  uint64_t state = 0x853c49e6748fea9bULL * (GetParam() + 1);
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr uint32_t kVars = 8;
  // Random expression tree.
  std::function<ProvExpr(int)> gen = [&](int depth) -> ProvExpr {
    if (depth >= 4 || next() % 3 == 0) {
      return ProvExpr::Var(static_cast<ProvVar>(next() % kVars));
    }
    ProvExpr l = gen(depth + 1);
    ProvExpr r = gen(depth + 1);
    return next() % 2 == 0 ? ProvExpr::Plus(l, r) : ProvExpr::Times(l, r);
  };
  ProvExpr e = gen(0);
  ProvExpr condensed = Condense(e).ToExpr();
  // Exhaustively compare over all assignments.
  for (uint32_t mask = 0; mask < (1u << kVars); ++mask) {
    std::unordered_map<ProvVar, bool> env;
    for (uint32_t v = 0; v < kVars; ++v) env[v] = (mask >> v) & 1;
    EXPECT_EQ(DerivableFrom(e, env), DerivableFrom(condensed, env))
        << "mask=" << mask << " expr=" << e.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CondensePropertySweep, ::testing::Range(0, 10));

// --- Derivation trees ----------------------------------------------------------

class DerivationFixture : public ::testing::Test {
 protected:
  DerivationFixture() {
    Tuple link_ab("link", {Value::Address(0), Value::Address(1)});
    Tuple link_bc("link", {Value::Address(1), Value::Address(2)});
    Tuple reach("reachable", {Value::Address(0), Value::Address(2)});
    base_ab_ = MakeBaseDerivation(link_ab, 0, "a", 1.0, 60.0);
    base_bc_ = MakeBaseDerivation(link_bc, 1, "b", 1.0, 60.0);
    derived_ = MakeRuleDerivation(reach, "r2", 1, "b", 2.0, 60.0,
                                  {base_ab_, base_bc_});
  }
  DerivationPtr base_ab_;
  DerivationPtr base_bc_;
  DerivationPtr derived_;
};

TEST_F(DerivationFixture, StructureAndAnnotations) {
  EXPECT_EQ(derived_->TreeSize(), 3u);
  EXPECT_EQ(derived_->TreeDepth(), 2u);
  EXPECT_EQ(derived_->location, 1u);
  EXPECT_EQ(derived_->asserted_by, "b");
  EXPECT_EQ(derived_->created_at, 2.0);
  std::vector<Tuple> leaves = derived_->Leaves();
  EXPECT_EQ(leaves.size(), 2u);
}

TEST_F(DerivationFixture, DigestIsStableAndSensitive) {
  Sha256Digest d1 = derived_->ContentDigest();
  Sha256Digest d2 = derived_->ContentDigest();  // memoized
  EXPECT_TRUE(DigestEqual(d1, d2));
  DerivationPtr other = MakeRuleDerivation(derived_->tuple, "r1", 1, "b", 2.0,
                                           60.0, {base_ab_, base_bc_});
  EXPECT_FALSE(DigestEqual(d1, other->ContentDigest()));
}

TEST_F(DerivationFixture, SerializationRoundTripPreservesDigest) {
  ByteWriter w;
  derived_->Serialize(w);
  ByteReader r(w.bytes());
  Result<DerivationPtr> back = DerivationNode::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(DigestEqual(back.value()->ContentDigest(),
                          derived_->ContentDigest()));
  EXPECT_EQ(back.value()->TreeSize(), 3u);
}

TEST_F(DerivationFixture, DagSerializationIsPolynomial) {
  // Build a deep DAG where each level references the previous twice; the
  // wire size must stay linear in distinct nodes, not 2^depth.
  DerivationPtr node = base_ab_;
  for (int i = 0; i < 24; ++i) {
    node = MakeRuleDerivation(derived_->tuple, "r", 0, "a", 0.0, -1.0,
                              {node, node});
  }
  EXPECT_EQ(node->TreeSize(), 25u);  // 1 base + 24 rule levels
  EXPECT_LT(node->WireSize(), 4096u);
}

TEST_F(DerivationFixture, MergeAlternativesBuildsUnion) {
  DerivationPtr alt = MakeRuleDerivation(derived_->tuple, "r1", 0, "a", 3.0,
                                         60.0, {base_ab_});
  DerivationPtr merged = MergeAlternatives(derived_, alt);
  EXPECT_EQ(merged->rule, kUnionRule);
  EXPECT_EQ(merged->children.size(), 2u);
  // Merging the same alternative again deduplicates.
  DerivationPtr again = MergeAlternatives(merged, alt);
  EXPECT_EQ(again->children.size(), 2u);
  // Merging with null passes through.
  EXPECT_EQ(MergeAlternatives(nullptr, derived_), derived_);
}

TEST_F(DerivationFixture, SignAndVerify) {
  KeyStore ks(3, 256);
  Authenticator auth(&ks);
  DerivationPtr signed_node =
      SignDerivation(derived_, auth, SaysLevel::kRsa).value();
  EXPECT_FALSE(signed_node->signature.empty());
  EXPECT_TRUE(VerifyDerivationTree(signed_node, auth, false).ok());

  // Tampering with the tuple invalidates the signature.
  auto tampered = std::make_shared<DerivationNode>(*signed_node);
  tampered->tuple =
      Tuple("reachable", {Value::Address(0), Value::Address(1)});
  EXPECT_FALSE(
      VerifyDerivationTree(DerivationPtr(tampered), auth, false).ok());
}

TEST_F(DerivationFixture, RequireSignaturesFlagsUnsigned) {
  KeyStore ks(3, 256);
  Authenticator auth(&ks);
  EXPECT_TRUE(VerifyDerivationTree(derived_, auth, false).ok());
  EXPECT_FALSE(VerifyDerivationTree(derived_, auth, true).ok());
}

// --- Stores ---------------------------------------------------------------------

ProvRecord MakeRecord(const Tuple& t, const std::string& rule, NodeId loc,
                      const Principal& who, double created,
                      double expires = -1.0) {
  ProvRecord rec;
  rec.tuple = t;
  rec.rule = rule;
  rec.location = loc;
  rec.asserted_by = who;
  rec.created_at = created;
  rec.expires_at = expires;
  return rec;
}

TEST(OnlineStoreTest, AddLookupRemove) {
  OnlineProvStore store;
  Tuple t("x", {Value::Int(1)});
  store.Add(MakeRecord(t, "r1", 0, "a", 1.0), DigestOf(t));
  store.Add(MakeRecord(t, "r2", 0, "a", 2.0), DigestOf(t));
  ASSERT_FALSE(store.Lookup(DigestOf(t)).empty());
  EXPECT_EQ(store.Lookup(DigestOf(t)).size(), 2u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_GT(store.bytes(), 0u);
  EXPECT_EQ(store.Remove(DigestOf(t)), 2u);
  EXPECT_TRUE(store.Lookup(DigestOf(t)).empty());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.bytes(), 0u);
}

TEST(OnlineStoreTest, ExpiresWithTuples) {
  OnlineProvStore store;
  Tuple t1("x", {Value::Int(1)});
  Tuple t2("x", {Value::Int(2)});
  store.Add(MakeRecord(t1, "r", 0, "a", 0.0, /*expires=*/5.0), DigestOf(t1));
  store.Add(MakeRecord(t2, "r", 0, "a", 0.0, /*expires=*/50.0), DigestOf(t2));
  EXPECT_EQ(store.ExpireBefore(10.0), 1u);
  EXPECT_TRUE(store.Lookup(DigestOf(t1)).empty());
  EXPECT_FALSE(store.Lookup(DigestOf(t2)).empty());
}

// Field-for-field record equality.
void ExpectSameFields(const ProvRecord& got, const ProvRecord& want) {
  EXPECT_EQ(got.tuple, want.tuple);
  EXPECT_EQ(got.rule, want.rule);
  EXPECT_EQ(got.location, want.location);
  EXPECT_EQ(got.asserted_by, want.asserted_by);
  EXPECT_EQ(got.created_at, want.created_at);
  EXPECT_EQ(got.expires_at, want.expires_at);
  ASSERT_EQ(got.children.size(), want.children.size());
  for (size_t i = 0; i < got.children.size(); ++i) {
    const ProvChildRef& g = got.children[i];
    const ProvChildRef& w = want.children[i];
    EXPECT_EQ(g.node, w.node) << "child " << i;
    EXPECT_EQ(g.digest, w.digest) << "child " << i;
    EXPECT_EQ(g.is_base, w.is_base) << "child " << i;
    EXPECT_EQ(g.base_tuple, w.base_tuple) << "child " << i;
    EXPECT_EQ(g.asserted_by, w.asserted_by) << "child " << i;
  }
}

Bytes Encode(const ProvRecord& rec) {
  ByteWriter w;
  rec.Serialize(w);
  return std::move(w).Take();
}

TEST(OnlineStoreTest, RecordsRoundTripInAppendOrder) {
  Tuple link("link", {Value::Address(1), Value::Address(2), Value::Int(3)});
  Tuple t("path", {Value::Address(1), Value::Address(4),
                   Value::List({Value::Address(1), Value::Address(2),
                                Value::Address(4)}),
                   Value::Real(2.5), Value::Str("z3")});
  ProvChildRef base;
  base.node = 1;
  base.digest = DigestOf(link);
  base.is_base = true;
  base.base_tuple = link;
  base.asserted_by = "n1";
  ProvChildRef remote;
  remote.node = 2;
  remote.digest = 0xFEEDFACECAFEBEEFULL;
  remote.asserted_by = "n2";
  ProvRecord first = MakeRecord(t, "z3", 1, "n1", 1.25, /*expires=*/40.0);
  first.children = {base, remote};
  ProvRecord second = MakeRecord(t, "recv", 1, "n2", 3.5);
  second.children = {remote};

  OnlineProvStore store;
  store.Add(first, DigestOf(t));
  store.Add(second, DigestOf(t));

  std::vector<ProvRecord> got = store.Lookup(DigestOf(t));
  ASSERT_EQ(got.size(), 2u);
  ExpectSameFields(got[0], first);
  ExpectSameFields(got[1], second);

  // What a records response ships: the count, then the concatenated
  // Serialize output.
  const OnlineProvStore::Entry* encoded = store.Encoded(DigestOf(t));
  ASSERT_NE(encoded, nullptr);
  EXPECT_EQ(encoded->count, 2u);
  Bytes want = Encode(first);
  Bytes more = Encode(second);
  want.insert(want.end(), more.begin(), more.end());
  EXPECT_EQ(encoded->bytes, want);
}

TEST(OnlineStoreTest, ExpireBeforeKeepsTheLiveRecordOfAMixedTuple) {
  OnlineProvStore store;
  Tuple t("x", {Value::Int(1)});
  ProvRecord expiring = MakeRecord(t, "r1", 0, "a", 0.0, /*expires=*/5.0);
  ProvRecord permanent = MakeRecord(t, "r2", 0, "a", 1.0);
  store.Add(expiring, DigestOf(t));
  store.Add(permanent, DigestOf(t));
  uint64_t held = store.bytes();

  EXPECT_EQ(store.ExpireBefore(10.0), 1u);
  EXPECT_EQ(store.size(), 1u);
  std::vector<ProvRecord> got = store.Lookup(DigestOf(t));
  ASSERT_EQ(got.size(), 1u);
  ExpectSameFields(got[0], permanent);
  EXPECT_EQ(store.Encoded(DigestOf(t))->bytes, Encode(permanent));
  EXPECT_LT(store.bytes(), held);
  EXPECT_EQ(store.ExpireBefore(10.0), 0u);  // nothing left to expire
}

TEST(OnlineStoreTest, DependentsOfTracksTransitiveTaint) {
  OnlineProvStore store;
  Tuple base("link", {Value::Int(1)});
  Tuple mid("path", {Value::Int(1)});
  Tuple top("best", {Value::Int(1)});
  ProvRecord rec_mid = MakeRecord(mid, "r", 0, "honest", 0.0);
  ProvChildRef ref;
  ref.node = 0;
  ref.digest = DigestOf(base);
  ref.asserted_by = "mallory";
  rec_mid.children.push_back(ref);
  store.Add(rec_mid, DigestOf(mid));

  ProvRecord rec_top = MakeRecord(top, "r", 0, "honest", 0.0);
  ProvChildRef ref2;
  ref2.node = 0;
  ref2.digest = DigestOf(mid);
  ref2.asserted_by = "honest";
  rec_top.children.push_back(ref2);
  store.Add(rec_top, DigestOf(top));

  std::vector<TupleDigest> tainted = store.DependentsOf("mallory");
  EXPECT_EQ(tainted.size(), 2u);  // mid directly, top transitively
}

TEST(OfflineStoreTest, QueriesByWindow) {
  store::ProvArchive store;
  ASSERT_TRUE(store.Open("").ok());
  Tuple a1("a", {Value::Int(1)});
  Tuple b2("b", {Value::Int(2)});
  Tuple a3("a", {Value::Int(3)});
  store.Add(MakeRecord(a1, "r", 0, "p", 1.0), DigestOf(a1));
  store.Add(MakeRecord(b2, "r", 0, "p", 5.0), DigestOf(b2));
  store.Add(MakeRecord(a3, "r", 0, "p", 9.0), DigestOf(a3));
  EXPECT_EQ(store.FindInWindow(0.0, 6.0).size(), 2u);
  EXPECT_EQ(store.FindInWindow(4.0, 10.0).size(), 2u);
}

TEST(ProvRecordTest, SerializationRoundTrip) {
  ProvRecord rec = MakeRecord(Tuple("x", {Value::Int(1)}), "sp2", 3, "n3",
                              1.5, 99.0);
  ProvChildRef ref;
  ref.node = 2;
  ref.digest = 0xDEADBEEFCAFEF00DULL;
  ref.is_base = true;
  ref.base_tuple = Tuple("link", {Value::Int(9)});
  ref.asserted_by = "n2";
  rec.children.push_back(ref);

  ByteWriter w;
  rec.Serialize(w);
  ByteReader r(w.bytes());
  Result<ProvRecord> back = ProvRecord::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().tuple, rec.tuple);
  EXPECT_EQ(back.value().rule, "sp2");
  ASSERT_EQ(back.value().children.size(), 1u);
  EXPECT_EQ(back.value().children[0].digest, ref.digest);
  EXPECT_TRUE(back.value().children[0].is_base);
  EXPECT_EQ(back.value().children[0].base_tuple, ref.base_tuple);
}

}  // namespace
}  // namespace provnet
