// Unit tests of the slot-compiled evaluator (core/slots.h): the builtin
// library, expression evaluation over a Frame, body-atom matching, head
// construction, and the head-pattern match re-derivation runs.
#include <gtest/gtest.h>

#include "core/slots.h"
#include "datalog/parser.h"

namespace provnet {
namespace {

// Compiles one rule executing at `local_var`.
RuleProgram Compile(const std::string& rule_text,
                    const std::string& local_var = "S") {
  LocalizedRule lr;
  lr.rule = ParseRule(rule_text).value();
  lr.local_var = local_var;
  return CompileRuleProgram(lr).value();
}

// Compiles `rule_text` and matches `tuple` against its first body atom,
// leaving the bindings in `frame`.
RuleProgram CompileAndBind(const std::string& rule_text, const Tuple& tuple,
                           Frame& frame) {
  RuleProgram prog = Compile(rule_text);
  frame.Reset(prog.num_slots);
  EXPECT_TRUE(MatchTuple(prog.body[0], tuple, frame));
  return prog;
}

// Evaluates the condition `text` with C bound to `c`.
bool Holds(const std::string& text, Value c = Value::Int(0)) {
  Frame frame;
  RuleProgram prog = CompileAndBind("p(@S) :- q(@S, C), " + text + ".",
                                    Tuple("q", {Value::Address(0), c}), frame);
  return EvalSlotCondition(prog.body[1].expr, frame).value();
}

// --- Builtins --------------------------------------------------------------

TEST(BuiltinTest, PathVectorFunctions) {
  Value init =
      CallBuiltin(BuiltinFn::kInit, {Value::Address(0), Value::Address(1)})
          .value();
  EXPECT_EQ(init.ToString(), "[@0, @1]");

  Value extended =
      CallBuiltin(BuiltinFn::kConcatPath, {Value::Address(5), init}).value();
  EXPECT_EQ(extended.ToString(), "[@5, @0, @1]");

  Value appended =
      CallBuiltin(BuiltinFn::kAppend, {init, Value::Address(9)}).value();
  EXPECT_EQ(appended.ToString(), "[@0, @1, @9]");

  EXPECT_EQ(CallBuiltin(BuiltinFn::kMember, {extended, Value::Address(0)})
                .value()
                .AsInt(),
            1);
  EXPECT_EQ(CallBuiltin(BuiltinFn::kMember, {extended, Value::Address(7)})
                .value()
                .AsInt(),
            0);
  EXPECT_EQ(CallBuiltin(BuiltinFn::kSize, {extended}).value().AsInt(), 3);
  EXPECT_EQ(CallBuiltin(BuiltinFn::kFirst, {extended}).value().AsAddress(),
            5u);
  EXPECT_EQ(CallBuiltin(BuiltinFn::kLast, {extended}).value().AsAddress(),
            1u);
  EXPECT_EQ(CallBuiltin(BuiltinFn::kSecond, {extended}).value().AsAddress(),
            0u);
}

TEST(BuiltinTest, MinMax) {
  EXPECT_EQ(CallBuiltin(BuiltinFn::kMin, {Value::Int(3), Value::Int(7)})
                .value()
                .AsInt(),
            3);
  EXPECT_EQ(CallBuiltin(BuiltinFn::kMax, {Value::Int(3), Value::Int(7)})
                .value()
                .AsInt(),
            7);
}

TEST(BuiltinTest, Errors) {
  EXPECT_FALSE(LookupBuiltin("f_unknown").ok());
  EXPECT_EQ(LookupBuiltin("f_concatPath").value(), BuiltinFn::kConcatPath);
  EXPECT_FALSE(CallBuiltin(BuiltinFn::kSize, {}).ok());              // arity
  EXPECT_FALSE(CallBuiltin(BuiltinFn::kSize, {Value::Int(3)}).ok()); // list
  EXPECT_FALSE(CallBuiltin(BuiltinFn::kFirst, {Value::List({})}).ok());
  EXPECT_FALSE(
      CallBuiltin(BuiltinFn::kMember, {Value::Int(1), Value::Int(1)}).ok());
  // A rule calling an unknown function fails to compile.
  LocalizedRule lr;
  lr.rule = ParseRule("p(@S, f_nope(S)) :- q(@S).").value();
  lr.local_var = "S";
  EXPECT_FALSE(CompileRuleProgram(lr).ok());
}

// --- Terms and expressions -------------------------------------------------

TEST(EvalTest, TermEvaluation) {
  Frame frame;
  RuleProgram prog = CompileAndBind(
      "p(@S, X, f_size(P), \"k\", Missing) :- q(@S, X, P).",
      Tuple("q", {Value::Address(0), Value::Int(4),
                  Value::List({Value::Int(1)})}),
      frame);
  EXPECT_EQ(EvalSlotTerm(prog.head_args[1], frame).value().AsInt(), 4);
  EXPECT_EQ(EvalSlotTerm(prog.head_args[2], frame).value().AsInt(), 1);
  EXPECT_EQ(EvalSlotTerm(prog.head_args[3], frame).value().AsString(), "k");
  EXPECT_FALSE(EvalSlotTerm(prog.head_args[4], frame).ok());  // unbound
}

TEST(EvalTest, ArithmeticKeepsInts) {
  Frame frame;
  RuleProgram prog = CompileAndBind(
      "p(@S,X) :- q(@S,A,B), X := A * B + 1.",
      Tuple("q", {Value::Address(0), Value::Int(7), Value::Int(2)}), frame);
  Value v = EvalSlotExpr(prog.body[1].expr, frame).value();
  EXPECT_EQ(v.kind(), ValueKind::kInt);
  EXPECT_EQ(v.AsInt(), 15);
}

TEST(EvalTest, ArithmeticWidensToDouble) {
  Frame frame;
  RuleProgram prog = CompileAndBind(
      "p(@S,X) :- q(@S,A,B), X := A * B.",
      Tuple("q", {Value::Address(0), Value::Int(7), Value::Real(0.5)}),
      frame);
  Value v = EvalSlotExpr(prog.body[1].expr, frame).value();
  EXPECT_EQ(v.kind(), ValueKind::kDouble);
  EXPECT_DOUBLE_EQ(v.AsDouble(), 3.5);
}

TEST(EvalTest, DivisionByZeroFails) {
  Tuple q("q", {Value::Address(0), Value::Int(7), Value::Int(0)});
  for (const char* rule : {"p(@S,X) :- q(@S,A,B), X := A / B.",
                           "p(@S,X) :- q(@S,A,B), X := A % B."}) {
    Frame frame;
    RuleProgram prog = CompileAndBind(rule, q, frame);
    EXPECT_FALSE(EvalSlotExpr(prog.body[1].expr, frame).ok()) << rule;
  }
  Tuple real_zero("q", {Value::Address(0), Value::Real(7.0), Value::Real(0)});
  Frame frame;
  RuleProgram prog =
      CompileAndBind("p(@S,X) :- q(@S,A,B), X := A / B.", real_zero, frame);
  EXPECT_FALSE(EvalSlotExpr(prog.body[1].expr, frame).ok());
}

TEST(EvalTest, Comparisons) {
  Value c = Value::Int(5);
  EXPECT_TRUE(Holds("C < 10", c));
  EXPECT_FALSE(Holds("C > 10", c));
  EXPECT_TRUE(Holds("C == 5", c));
  EXPECT_TRUE(Holds("C != 4", c));
  EXPECT_TRUE(Holds("C >= 5", c));
  EXPECT_TRUE(Holds("C <= 5", c));
  EXPECT_FALSE(Holds("C < 5", c));
  EXPECT_FALSE(Holds("C != 5", c));
}

TEST(EvalTest, OperatorPrecedence) {
  EXPECT_TRUE(Holds("2 + 3 * 4 == 14"));
  EXPECT_TRUE(Holds("(2 + 3) * 4 == 20"));
  EXPECT_TRUE(Holds("10 % 3 == 1"));
  EXPECT_TRUE(Holds("10 - 4 - 3 == 3"));  // left-associative
}

// --- Body-atom matching ----------------------------------------------------

TEST(UnifyTest, BindsFreshVariables) {
  RuleProgram prog = Compile("p(@S) :- link(@S,D,C).");
  Frame frame;
  frame.Reset(prog.num_slots);
  Tuple t("link", {Value::Address(0), Value::Address(1), Value::Int(5)});
  ASSERT_TRUE(MatchTuple(prog.body[0], t, frame));
  const std::vector<MatchOp>& cols = prog.body[0].cols;
  EXPECT_EQ(frame.Get(cols[0].slot).AsAddress(), 0u);
  EXPECT_EQ(frame.Get(cols[1].slot).AsAddress(), 1u);
  EXPECT_EQ(frame.Get(cols[2].slot).AsInt(), 5);
  EXPECT_EQ(cols[0].slot, prog.local_slot);
}

TEST(UnifyTest, RespectsExistingBindings) {
  RuleProgram prog = Compile("p(@S) :- link(@S,D).");
  Tuple t("link", {Value::Address(0), Value::Address(1)});
  Frame frame;
  frame.Reset(prog.num_slots);
  ASSERT_TRUE(frame.BindOrCheck(prog.local_slot, Value::Address(0)));
  EXPECT_TRUE(MatchTuple(prog.body[0], t, frame));

  frame.Reset(prog.num_slots);
  ASSERT_TRUE(frame.BindOrCheck(prog.local_slot, Value::Address(9)));
  size_t mark = frame.Mark();
  EXPECT_FALSE(MatchTuple(prog.body[0], t, frame));
  frame.UndoTo(mark);  // backtracking drops the partial bindings
  EXPECT_FALSE(frame.IsBound(prog.body[0].cols[1].slot));
  EXPECT_TRUE(frame.IsBound(prog.local_slot));
}

TEST(UnifyTest, ConstantsMustMatch) {
  RuleProgram prog = Compile("p(@S) :- link(@S, 7).");
  Frame frame;
  frame.Reset(prog.num_slots);
  EXPECT_TRUE(MatchTuple(prog.body[0],
                         Tuple("link", {Value::Address(0), Value::Int(7)}),
                         frame));
  frame.Reset(prog.num_slots);
  EXPECT_FALSE(MatchTuple(prog.body[0],
                          Tuple("link", {Value::Address(0), Value::Int(8)}),
                          frame));
}

TEST(UnifyTest, RepeatedVariableActsAsSelfJoinFilter) {
  RuleProgram prog = Compile("p(@S) :- edge(@S, X, X).");
  Frame frame;
  frame.Reset(prog.num_slots);
  EXPECT_TRUE(MatchTuple(
      prog.body[0],
      Tuple("edge", {Value::Address(0), Value::Int(3), Value::Int(3)}),
      frame));
  frame.Reset(prog.num_slots);
  EXPECT_FALSE(MatchTuple(
      prog.body[0],
      Tuple("edge", {Value::Address(0), Value::Int(3), Value::Int(4)}),
      frame));
}

TEST(UnifyTest, MismatchedPredicateOrArity) {
  // Body literals pick their predicate through the table scan, so the
  // column program checks arity; the head program checks both.
  RuleProgram prog = Compile("link2(@S,D) :- link(@S,D).");
  Frame frame;
  frame.Reset(prog.num_slots);
  EXPECT_FALSE(
      MatchTuple(prog.body[0], Tuple("link", {Value::Address(0)}), frame));
  frame.Reset(prog.num_slots);
  EXPECT_FALSE(MatchHead(
      prog, Tuple("hop", {Value::Address(0), Value::Address(1)}), frame));
  frame.Reset(prog.num_slots);
  EXPECT_FALSE(MatchHead(prog, Tuple("link2", {Value::Address(0)}), frame));
}

// --- Head construction -----------------------------------------------------

TEST(HeadTest, BuildsWithFunctionsAndConstants) {
  Frame frame;
  RuleProgram prog = CompileAndBind(
      "out(@S, f_size(P), 42, D) :- q(@S, P, D).",
      Tuple("q", {Value::Address(1),
                  Value::List({Value::Int(1), Value::Int(2)}),
                  Value::Address(3)}),
      frame);
  EXPECT_EQ(BuildHeadTuple(prog, frame).value().ToString(),
            "out(@1, 2, 42, @3)");
}

TEST(HeadTest, AggregatePlaceholderTakesVariableValue) {
  Frame frame;
  RuleProgram prog = CompileAndBind(
      "cost(@S, D, min<C>) :- path(@S, D, C).",
      Tuple("path", {Value::Address(0), Value::Address(1), Value::Int(17)}),
      frame);
  Tuple head = BuildHeadTuple(prog, frame).value();
  EXPECT_EQ(head.arg(2).AsInt(), 17);  // aggregation happens at the table
}

// --- Head-pattern matching (re-derivation) ---------------------------------

TEST(HeadPatternTest, SkipsAggregateColumn) {
  RuleProgram prog = Compile("cost(@S, D, min<C>) :- path(@S, D, C).");
  Frame frame;
  frame.Reset(prog.num_slots);
  ASSERT_TRUE(MatchHead(
      prog,
      Tuple("cost", {Value::Address(0), Value::Address(1), Value::Int(99)}),
      frame));
  // The aggregate's variable stays free for the body to propose.
  EXPECT_FALSE(frame.IsBound(prog.head_args[2].slot));
  EXPECT_EQ(frame.Get(prog.head_args[1].slot).AsAddress(), 1u);
}

TEST(HeadPatternTest, SkipsFunctionColumnAndChecksConstants) {
  RuleProgram prog = Compile("out(@S, f_size(P), 42) :- q(@S, P).");
  Frame frame;
  frame.Reset(prog.num_slots);
  EXPECT_TRUE(MatchHead(
      prog, Tuple("out", {Value::Address(0), Value::Int(7), Value::Int(42)}),
      frame));
  EXPECT_FALSE(frame.IsBound(prog.head_args[1].args[0].slot));  // P
  frame.Reset(prog.num_slots);
  EXPECT_FALSE(MatchHead(
      prog, Tuple("out", {Value::Address(0), Value::Int(7), Value::Int(41)}),
      frame));
}

TEST(HeadPatternTest, RepeatedHeadVariableMustAgree) {
  RuleProgram prog = Compile("pair(@S, X, X) :- q(@S, X).");
  Frame frame;
  frame.Reset(prog.num_slots);
  EXPECT_TRUE(MatchHead(
      prog, Tuple("pair", {Value::Address(0), Value::Int(3), Value::Int(3)}),
      frame));
  frame.Reset(prog.num_slots);
  EXPECT_FALSE(MatchHead(
      prog, Tuple("pair", {Value::Address(0), Value::Int(3), Value::Int(4)}),
      frame));
}

TEST(HeadPatternTest, PositionsSubsetMatchesOnlyThoseColumns) {
  RuleProgram prog = Compile("hop(@S, D, 5) :- link(@S, D).");
  Tuple t("hop", {Value::Address(0), Value::Address(2), Value::Int(6)});
  Frame frame;
  frame.Reset(prog.num_slots);
  EXPECT_FALSE(MatchHead(prog, t, frame));  // constant column disagrees
  frame.Reset(prog.num_slots);
  ASSERT_TRUE(MatchHead(prog, t, frame, /*positions=*/{0, 1}));
  EXPECT_EQ(frame.Get(prog.head_args[1].slot).AsAddress(), 2u);
  frame.Reset(prog.num_slots);
  ASSERT_TRUE(MatchHead(prog, t, frame, /*positions=*/{1}));
  EXPECT_FALSE(frame.IsBound(prog.local_slot));  // column 0 left free
}

TEST(HeadPatternTest, PredicateMismatchFails) {
  RuleProgram prog = Compile("hop(@S, D) :- link(@S, D).");
  Frame frame;
  frame.Reset(prog.num_slots);
  EXPECT_FALSE(MatchHead(
      prog, Tuple("link", {Value::Address(0), Value::Address(1)}), frame));
}

TEST(HeadPatternTest, HeadPinsTheLocalVariable) {
  // Stored where it runs: the head names the executing node.
  RuleProgram local = Compile("hop(@S, D) :- link(@S, D).");
  Frame frame;
  frame.Reset(local.num_slots);
  ASSERT_TRUE(MatchHead(
      local, Tuple("hop", {Value::Address(4), Value::Address(1)}), frame));
  ASSERT_TRUE(frame.IsBound(local.local_slot));
  EXPECT_EQ(frame.Get(local.local_slot).AsAddress(), 4u);

  // Shipped to D: the executing node S does not appear in the head.
  RuleProgram shipped = Compile("back(@D, C) :- link(@S, D, C).");
  frame.Reset(shipped.num_slots);
  ASSERT_TRUE(MatchHead(
      shipped, Tuple("back", {Value::Address(1), Value::Int(3)}), frame));
  EXPECT_FALSE(frame.IsBound(shipped.local_slot));
}

}  // namespace
}  // namespace provnet
