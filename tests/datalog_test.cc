#include <gtest/gtest.h>

#include <thread>

#include "datalog/analysis.h"
#include "datalog/lexer.h"
#include "datalog/localize.h"
#include "datalog/parser.h"
#include "datalog/tuple.h"
#include "datalog/value.h"

namespace provnet {
namespace {

// --- Value -------------------------------------------------------------------

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value::Int(-7).AsInt(), -7);
  EXPECT_EQ(Value::Real(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("x").AsString(), "x");
  EXPECT_EQ(Value::Address(9).AsAddress(), 9u);
  EXPECT_EQ(Value::List({Value::Int(1)}).AsList().size(), 1u);
}

TEST(ValueTest, NumericCrossKindComparison) {
  EXPECT_EQ(Value::Int(2).Compare(Value::Real(2.0)), 0);
  EXPECT_LT(Value::Int(2).Compare(Value::Real(2.5)), 0);
  EXPECT_GT(Value::Real(3.0).Compare(Value::Int(2)), 0);
}

TEST(ValueTest, DistinctKindsOrderByTag) {
  EXPECT_LT(Value::Int(100).Compare(Value::Str("a")), 0);
  EXPECT_LT(Value::Str("z").Compare(Value::Address(0)), 0);
}

TEST(ValueTest, ListComparisonIsLexicographic) {
  Value a = Value::List({Value::Int(1), Value::Int(2)});
  Value b = Value::List({Value::Int(1), Value::Int(3)});
  Value c = Value::List({Value::Int(1)});
  EXPECT_LT(a.Compare(b), 0);
  EXPECT_LT(c.Compare(a), 0);
  EXPECT_EQ(a.Compare(a), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  Value a = Value::List({Value::Address(1), Value::Int(5)});
  Value b = Value::List({Value::Address(1), Value::Int(5)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), Value::List({Value::Address(1), Value::Int(6)}).Hash());
}

TEST(ValueTest, SerializationRoundTrip) {
  const Value values[] = {
      Value(),
      Value::Int(INT64_MIN),
      Value::Real(-0.125),
      Value::Str("hello \"world\""),
      Value::Address(4294967295u),
      Value::List({Value::Int(1), Value::List({Value::Str("nested")})}),
  };
  for (const Value& v : values) {
    ByteWriter w;
    v.Serialize(w);
    ByteReader r(w.bytes());
    Result<Value> back = Value::Deserialize(r);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back.value(), v) << v.ToString();
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(ValueTest, DeserializeRejectsBadTag) {
  Bytes bad = {0x77};
  ByteReader r(bad);
  EXPECT_FALSE(Value::Deserialize(r).ok());
}

// Lists nest at most 64 deep on decode; deeper input, however deep, is
// rejected instead of recursing off the stack.
TEST(ValueTest, DeserializeRejectsListsNestedTooDeep) {
  for (size_t depth : {size_t{64}, size_t{65}, size_t{100000}}) {
    SCOPED_TRACE(depth);
    ByteWriter w;
    for (size_t i = 0; i < depth; ++i) {
      w.PutU8(static_cast<uint8_t>(ValueKind::kList));
      w.PutVarint(1);
    }
    w.PutU8(static_cast<uint8_t>(ValueKind::kNull));
    ByteReader r(w.bytes());
    EXPECT_EQ(Value::Deserialize(r).ok(), depth <= 64);
  }
}

TEST(ValueTest, ToStringFormats) {
  EXPECT_EQ(Value::Int(5).ToString(), "5");
  EXPECT_EQ(Value::Address(3).ToString(), "@3");
  EXPECT_EQ(Value::Str("s").ToString(), "\"s\"");
  EXPECT_EQ(Value::List({Value::Int(1), Value::Int(2)}).ToString(), "[1, 2]");
}

TEST(ValueTest, HashIsPinned) {
  // Tuple digests are built from these hashes and ride the wire (child refs,
  // records requests), so Value's layout must not move them.
  EXPECT_EQ(Value().Hash(), 16294208416658607535ull);
  EXPECT_EQ(Value::Int(42).Hash(), 6041191397884686043ull);
  EXPECT_EQ(Value::Real(3.5).Hash(), 3780724737243679687ull);
  EXPECT_EQ(Value::Str("n1").Hash(), 6838254911978076948ull);
  EXPECT_EQ(Value::Address(7).Hash(), 15342306261498566100ull);
  EXPECT_EQ(Value::List({Value::Address(1), Value::Address(2)}).Hash(),
            17845563882900840507ull);
  EXPECT_EQ(Value::List({}).Hash(), 7134611160154358618ull);
  Tuple path("path", {Value::Address(0), Value::Address(2),
                      Value::List({Value::Address(0), Value::Address(1),
                                   Value::Address(2)}),
                      Value::Int(7)});
  EXPECT_EQ(path.Hash(), 3319054913049650710ull);
}

TEST(ValueTest, CopiesShareAndMovesLeaveNull) {
  Value list = Value::List({Value::Address(1), Value::Address(2)});
  Value str = Value::Str("longer than any small-string buffer");
  Value list_copy = list;
  Value str_copy(str);
  EXPECT_EQ(&list_copy.AsList(), &list.AsList());
  EXPECT_EQ(&str_copy.AsString(), &str.AsString());
  EXPECT_EQ(list_copy, list);
  EXPECT_EQ(str_copy, str);

  Value& alias = list;
  list = alias;
  EXPECT_EQ(list.ToString(), "[@1, @2]");
  list = std::move(alias);
  EXPECT_EQ(list.ToString(), "[@1, @2]");

  // Assigning a list its own element: the list's payload, which holds the
  // element, is released only after the element was copied.
  Value nested = Value::List({Value::Str("head"), Value::Int(2)});
  nested = nested.AsList()[0];
  EXPECT_EQ(nested.AsString(), "head");

  Value moved = std::move(list_copy);
  EXPECT_TRUE(list_copy.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(moved, list);
  Value assigned = Value::Int(1);
  assigned = std::move(str_copy);
  EXPECT_TRUE(str_copy.is_null());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned, str);

  // Overwriting one copy leaves the others' payload alone.
  moved = Value::Int(5);
  EXPECT_EQ(list.ToString(), "[@1, @2]");

  // A payload outlives the Value it was built in.
  Value kept_list;
  Value kept_str;
  {
    Value inner = Value::List({Value::Str("x"), Value::Int(3)});
    kept_list = inner;
    kept_str = inner.AsList()[0];
  }
  EXPECT_EQ(kept_list.ToString(), "[\"x\", 3]");
  EXPECT_EQ(kept_str.AsString(), "x");
}

TEST(ValueTest, ConcurrentCopiesOfOnePayloadAreSafe) {
  const Value list = Value::List(
      {Value::Address(0), Value::Address(1), Value::Address(2)});
  const Value str = Value::Str("shared by every worker lane");
  const uint64_t list_hash = list.Hash();
  const uint64_t str_hash = str.Hash();
  std::vector<std::thread> lanes;
  for (int t = 0; t < 4; ++t) {
    lanes.emplace_back([&] {
      std::vector<Value> held;
      for (int i = 0; i < 20000; ++i) {
        held.push_back(list);
        held.push_back(str);
        Value moved = std::move(held.back());
        held.back() = moved;
        if (held.size() >= 64) held.clear();
      }
    });
  }
  for (std::thread& lane : lanes) lane.join();
  EXPECT_EQ(list.Hash(), list_hash);
  EXPECT_EQ(list.ToString(), "[@0, @1, @2]");
  EXPECT_EQ(str.Hash(), str_hash);
  EXPECT_EQ(str.AsString(), "shared by every worker lane");
}

// --- Tuple -------------------------------------------------------------------

TEST(TupleTest, EqualityAndOrdering) {
  Tuple a("link", {Value::Address(0), Value::Address(1)});
  Tuple b("link", {Value::Address(0), Value::Address(1)});
  Tuple c("link", {Value::Address(0), Value::Address(2)});
  Tuple d("path", {Value::Address(0), Value::Address(1)});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  EXPECT_LT(a, d);  // "link" < "path"
}

TEST(TupleTest, SerializationRoundTrip) {
  Tuple t("bestPath", {Value::Address(1), Value::Address(2),
                       Value::List({Value::Address(1), Value::Address(2)}),
                       Value::Int(7)});
  ByteWriter w;
  t.Serialize(w);
  EXPECT_EQ(w.size(), t.WireSize());
  ByteReader r(w.bytes());
  Result<Tuple> back = Tuple::Deserialize(r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), t);
}

// --- Lexer -------------------------------------------------------------------

TEST(LexerTest, TokenizesRuleSyntax) {
  auto tokens = Tokenize("r1 reachable(@S,D) :- link(@S,D).").value();
  std::vector<TokenKind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kIdent, TokenKind::kIdent,
                       TokenKind::kLParen, TokenKind::kAt,
                       TokenKind::kVariable, TokenKind::kComma,
                       TokenKind::kVariable, TokenKind::kRParen,
                       TokenKind::kImplies, TokenKind::kIdent,
                       TokenKind::kLParen, TokenKind::kAt,
                       TokenKind::kVariable, TokenKind::kComma,
                       TokenKind::kVariable, TokenKind::kRParen,
                       TokenKind::kPeriod, TokenKind::kEnd}));
}

TEST(LexerTest, OperatorsAndNumbers) {
  auto tokens =
      Tokenize("C := C1 + C2, X == 1, Y != 2.5, Z <= 3, W >= 4, V < 5, U > 6")
          .value();
  int assigns = 0, eqs = 0, nes = 0, les = 0, ges = 0, lts = 0, gts = 0;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kAssign) ++assigns;
    if (t.kind == TokenKind::kEq) ++eqs;
    if (t.kind == TokenKind::kNe) ++nes;
    if (t.kind == TokenKind::kLe) ++les;
    if (t.kind == TokenKind::kGe) ++ges;
    if (t.kind == TokenKind::kLt) ++lts;
    if (t.kind == TokenKind::kGt) ++gts;
  }
  EXPECT_EQ(assigns, 1);
  EXPECT_EQ(eqs, 1);
  EXPECT_EQ(nes, 1);
  EXPECT_EQ(les, 1);
  EXPECT_EQ(ges, 1);
  EXPECT_EQ(lts, 1);
  EXPECT_EQ(gts, 1);
}

TEST(LexerTest, CommentsAreSkipped) {
  auto tokens = Tokenize("// a comment\n# another\nfoo").value();
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].text, "foo");
}

TEST(LexerTest, StringEscapes) {
  auto tokens = Tokenize(R"("a\"b\n\\")").value();
  ASSERT_EQ(tokens[0].kind, TokenKind::kString);
  EXPECT_EQ(tokens[0].text, "a\"b\n\\");
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("a = b").ok());   // bare '='
  EXPECT_FALSE(Tokenize("a ! b").ok());   // bare '!'
  EXPECT_FALSE(Tokenize("$").ok());
}

TEST(LexerTest, DoublesAndInts) {
  auto tokens = Tokenize("3 3.5 0.25").value();
  EXPECT_EQ(tokens[0].kind, TokenKind::kInt);
  EXPECT_EQ(tokens[0].int_value, 3);
  EXPECT_EQ(tokens[1].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ(tokens[1].double_value, 3.5);
  EXPECT_EQ(tokens[2].kind, TokenKind::kDouble);
}

// --- Parser ------------------------------------------------------------------

TEST(ParserTest, ParsesNdlogRule) {
  Rule r = ParseRule("r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).")
               .value();
  EXPECT_EQ(r.label, "r2");
  EXPECT_EQ(r.head.predicate, "reachable");
  EXPECT_EQ(r.head.loc_index, 0);
  ASSERT_EQ(r.body.size(), 2u);
  EXPECT_EQ(r.body[0].atom.predicate, "link");
  EXPECT_EQ(r.body[1].atom.predicate, "reachable");
  EXPECT_EQ(r.body[1].atom.loc_index, 0);
}

TEST(ParserTest, ParsesSaysAndDestination) {
  Program p = ParseProgram(R"(
    At S:
    s3 reachable(Z,Y)@Z :- Z says linkD(S,Z), W says reachable(S,Y).
  )").value();
  ASSERT_EQ(p.rules.size(), 1u);
  const Rule& r = p.rules[0];
  EXPECT_TRUE(p.sendlog);
  EXPECT_EQ(r.context.value(), "S");
  ASSERT_TRUE(r.head_dest.has_value());
  EXPECT_EQ(r.head_dest->name, "Z");
  ASSERT_TRUE(r.body[0].atom.says.has_value());
  EXPECT_EQ(r.body[0].atom.says->name, "Z");
  EXPECT_EQ(r.body[1].atom.says->name, "W");
}

TEST(ParserTest, ParsesAggregatesAndFunctions) {
  Program p = ParseProgram(R"(
    sp2 path(@S,D,P,C) :- link(@S,Z,C1), bestPath(@Z,D,P2,C2),
                          f_member(P2,S) == 0, C := C1 + C2,
                          P := f_concatPath(S,P2).
    sp3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
  )").value();
  ASSERT_EQ(p.rules.size(), 2u);
  const Rule& sp2 = p.rules[0];
  EXPECT_EQ(sp2.body.size(), 5u);
  EXPECT_EQ(sp2.body[2].kind, LiteralKind::kCondition);
  EXPECT_EQ(sp2.body[3].kind, LiteralKind::kAssign);
  EXPECT_EQ(sp2.body[3].assign_var, "C");
  const Rule& sp3 = p.rules[1];
  EXPECT_EQ(sp3.head.args[2].kind, TermKind::kAggregate);
  EXPECT_EQ(sp3.head.args[2].agg, AggKind::kMin);
  EXPECT_EQ(sp3.head.args[2].name, "C");
}

TEST(ParserTest, ParsesMaterialize) {
  Program p = ParseProgram(
      "materialize(link, 120, 1000, keys(1,2)).\n"
      "materialize(path, infinity, infinity, keys(1)).\n")
      .value();
  ASSERT_EQ(p.materialize.size(), 2u);
  EXPECT_EQ(p.materialize[0].predicate, "link");
  EXPECT_DOUBLE_EQ(p.materialize[0].ttl_seconds, 120.0);
  EXPECT_EQ(p.materialize[0].max_size, 1000);
  EXPECT_EQ(p.materialize[0].key_positions, (std::vector<int>{1, 2}));
  EXPECT_LT(p.materialize[1].ttl_seconds, 0);
  EXPECT_LT(p.materialize[1].max_size, 0);
}

TEST(ParserTest, ParsesGroundFacts) {
  Program p = ParseProgram("link(@0, @1, 5).\nlink(@1, @2, 3).").value();
  EXPECT_TRUE(p.rules.empty());
  ASSERT_EQ(p.facts.size(), 2u);
  EXPECT_EQ(p.facts[0].predicate, "link");
  EXPECT_EQ(p.facts[0].args[0].constant.AsAddress(), 0u);
  EXPECT_EQ(p.facts[0].args[2].constant.AsInt(), 5);
}

TEST(ParserTest, BareIdentIsStringConstant) {
  Rule r = ParseRule("trusted(@S, alice) :- node(@S).").value();
  EXPECT_EQ(r.head.args[1].constant.AsString(), "alice");
}

TEST(ParserTest, NegativeNumbers) {
  Rule r = ParseRule("p(@S, -5, -2.5) :- q(@S).").value();
  EXPECT_EQ(r.head.args[1].constant.AsInt(), -5);
  EXPECT_DOUBLE_EQ(r.head.args[2].constant.AsDouble(), -2.5);
}

TEST(ParserTest, SyntaxErrors) {
  EXPECT_FALSE(ParseRule("p(@S :- q(@S).").ok());        // missing paren
  EXPECT_FALSE(ParseRule("p(@S) :- q(@S)").ok());        // missing period
  EXPECT_FALSE(ParseProgram("materialize(x, 1, 2).").ok());  // keys missing
  EXPECT_FALSE(ParseRule("p(min<3>) :- q(@S).").ok());   // agg needs var
}

TEST(ParserTest, MultipleLocationSpecifiersRejected) {
  EXPECT_FALSE(ParseRule("p(@S,@T) :- q(@S,@T).").ok());
}

// Helper: small program with every feature used by ToString.
std::string ReachableIsh() {
  return R"(
    materialize(link, infinity, infinity, keys(1,2)).
    r1 reachable(@S,D) :- link(@S,D).
    r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).
  )";
}

TEST(ParserTest, ProgramToStringRoundTrips) {
  Program p = ParseProgram(ReachableIsh()).value();
  Program p2 = ParseProgram(p.ToString()).value();
  EXPECT_EQ(p.rules.size(), p2.rules.size());
  EXPECT_EQ(p.ToString(), p2.ToString());
}

// --- Analysis ----------------------------------------------------------------

TEST(AnalysisTest, AcceptsWellFormedNdlog) {
  Program p = ParseProgram(ReachableIsh()).value();
  EXPECT_TRUE(AnalyzeProgram(p).ok());
}

TEST(AnalysisTest, RejectsUnboundHeadVariable) {
  Program p = ParseProgram("r bad(@S,D,X) :- link(@S,D).").value();
  Status s = AnalyzeProgram(p);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("X"), std::string::npos);
}

TEST(AnalysisTest, RejectsMissingLocationSpecifier) {
  Program p = ParseProgram("r bad(@S,D) :- link(S,D).").value();
  EXPECT_FALSE(AnalyzeProgram(p).ok());
}

TEST(AnalysisTest, RejectsSaysOutsideSendlog) {
  Program p =
      ParseProgram("r bad(@S,D) :- W says link(@S,D).").value();
  EXPECT_FALSE(AnalyzeProgram(p).ok());
}

TEST(AnalysisTest, RejectsUnorderableBody) {
  // X is never bound by any atom.
  Program p = ParseProgram("r bad(@S,D) :- link(@S,D), X < 3.").value();
  Status s = AnalyzeProgram(p);
  EXPECT_FALSE(s.ok());
}

TEST(AnalysisTest, ReordersConditionsAfterBindingAtoms) {
  // The condition is written first but must run after the atom binds C.
  Program p =
      ParseProgram("r pay(@S,C) :- C < 10, link(@S,D,C).").value();
  ASSERT_TRUE(AnalyzeProgram(p).ok());
  EXPECT_EQ(p.rules[0].body[0].kind, LiteralKind::kAtom);
  EXPECT_EQ(p.rules[0].body[1].kind, LiteralKind::kCondition);
}

TEST(AnalysisTest, RejectsAggregateInBody) {
  // Aggregates are head-only; in body position the parser already refuses
  // the syntax.
  EXPECT_FALSE(ParseProgram("r bad(@S,D) :- cost(@S,D,min<C>).").ok());
}

TEST(AnalysisTest, SendlogContextBindsImplicitly) {
  Program p = ParseProgram(R"(
    At S:
    z ping(S)@D :- peer(D).
  )").value();
  EXPECT_TRUE(AnalyzeProgram(p).ok());
}

TEST(AnalysisTest, RejectsNdlogFactWithoutAddress) {
  Program p = ParseProgram("weight(7, 9).").value();
  EXPECT_FALSE(AnalyzeProgram(p).ok());
}

// --- Localization ------------------------------------------------------------

TEST(LocalizeTest, LocalRulePassesThrough) {
  Program p = ParseProgram("r1 reachable(@S,D) :- link(@S,D).").value();
  ASSERT_TRUE(AnalyzeProgram(p).ok());
  LocalizedProgram lp = LocalizeProgram(p).value();
  ASSERT_EQ(lp.rules.size(), 1u);
  EXPECT_EQ(lp.rules[0].local_var, "S");
  EXPECT_FALSE(lp.rules[0].send_to.has_value());
  EXPECT_TRUE(lp.aux_predicates.empty());
}

TEST(LocalizeTest, ClassicReachableRewrite) {
  Program p = ParseProgram(
      "r2 reachable(@S,D) :- link(@S,Z), reachable(@Z,D).").value();
  ASSERT_TRUE(AnalyzeProgram(p).ok());
  LocalizedProgram lp = LocalizeProgram(p).value();
  ASSERT_EQ(lp.rules.size(), 2u);
  ASSERT_EQ(lp.aux_predicates.size(), 1u);

  const LocalizedRule& ship = lp.rules[0];
  EXPECT_TRUE(ship.synthesized);
  EXPECT_EQ(ship.local_var, "S");
  ASSERT_TRUE(ship.send_to.has_value());
  EXPECT_EQ(ship.send_to->name, "Z");
  EXPECT_EQ(ship.rule.head.predicate, lp.aux_predicates[0]);

  const LocalizedRule& main = lp.rules[1];
  EXPECT_EQ(main.local_var, "Z");
  ASSERT_TRUE(main.send_to.has_value());
  EXPECT_EQ(main.send_to->name, "S");
  EXPECT_EQ(main.rule.body[0].atom.predicate, lp.aux_predicates[0]);
}

TEST(LocalizeTest, HeadShipOnlyRule) {
  // Body local at S, head stored at D: no aux predicate, just a send.
  Program p = ParseProgram("r linkD(@D,S) :- link(@S,D).").value();
  ASSERT_TRUE(AnalyzeProgram(p).ok());
  LocalizedProgram lp = LocalizeProgram(p).value();
  ASSERT_EQ(lp.rules.size(), 1u);
  EXPECT_TRUE(lp.aux_predicates.empty());
  EXPECT_EQ(lp.rules[0].local_var, "S");
  ASSERT_TRUE(lp.rules[0].send_to.has_value());
  EXPECT_EQ(lp.rules[0].send_to->name, "D");
}

TEST(LocalizeTest, SendlogIsAlreadyLocal) {
  Program p = ParseProgram(R"(
    At S:
    s2 linkD(D,S)@D :- link(S,D).
  )").value();
  ASSERT_TRUE(AnalyzeProgram(p).ok());
  LocalizedProgram lp = LocalizeProgram(p).value();
  ASSERT_EQ(lp.rules.size(), 1u);
  EXPECT_EQ(lp.rules[0].local_var, "S");
  EXPECT_TRUE(lp.rules[0].send_to.has_value());
  EXPECT_TRUE(lp.aux_predicates.empty());
}

TEST(LocalizeTest, ThreeLocationChain) {
  Program p = ParseProgram(
      "r3 triple(@S,W) :- link(@S,Z), hop(@Z,W), tag(@W).").value();
  ASSERT_TRUE(AnalyzeProgram(p).ok());
  LocalizedProgram lp = LocalizeProgram(p).value();
  // Two ship rules plus the final rule.
  EXPECT_EQ(lp.rules.size(), 3u);
  EXPECT_EQ(lp.aux_predicates.size(), 2u);
  const LocalizedRule& last = lp.rules.back();
  EXPECT_EQ(last.local_var, "W");
  ASSERT_TRUE(last.send_to.has_value());
  EXPECT_EQ(last.send_to->name, "S");
}

TEST(LocalizeTest, UnshippableDestinationFails) {
  // Z is not bound by the atoms at S, so the rewrite cannot route.
  Program p = ParseProgram(
      "r bad(@S,D) :- local(@S), remote(@Z,D).").value();
  ASSERT_TRUE(AnalyzeProgram(p).ok());
  EXPECT_FALSE(LocalizeProgram(p).ok());
}

}  // namespace
}  // namespace provnet
