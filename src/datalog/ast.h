// Abstract syntax for NDlog / SeNDlog programs (Sections 2.1-2.2 of the
// paper). The same AST covers both dialects:
//
//   NDlog    rules carry a location specifier "@X" on every predicate;
//   SeNDlog  rules live inside an "At S:" context block, bodies may use
//            "P says atom", and heads may carry a destination "@D".
#ifndef PROVNET_DATALOG_AST_H_
#define PROVNET_DATALOG_AST_H_

#include <optional>
#include <string>
#include <vector>

#include "datalog/value.h"

namespace provnet {

enum class AggKind : uint8_t { kNone = 0, kMin, kMax, kCount };

const char* AggKindName(AggKind kind);

enum class TermKind : uint8_t {
  kVariable,
  kConstant,
  kFunction,   // f_* builtin call
  kAggregate,  // min<C> / max<C> / count<C>, head-only
};

// A term in an atom argument or expression. Function terms are recursive.
struct Term {
  TermKind kind = TermKind::kConstant;
  std::string name;         // variable or function name; aggregate variable
  Value constant;           // kConstant payload
  std::vector<Term> args;   // kFunction arguments
  AggKind agg = AggKind::kNone;  // kAggregate

  static Term Var(std::string name);
  static Term Const(Value v);
  static Term Func(std::string name, std::vector<Term> args);
  static Term Aggregate(AggKind agg, std::string var);

  std::string ToString() const;
};

// Predicate atom, e.g. link(@S,D) or `Z says linkD(S,Z)`.
struct Atom {
  std::string predicate;
  std::vector<Term> args;
  int loc_index = -1;  // index of the "@" argument; -1 if none (SeNDlog)
  std::optional<Term> says;  // asserting principal (SeNDlog body atoms)

  std::string ToString() const;
};

// Binary expression tree for conditions and assignment right-hand sides.
enum class ExprOp : uint8_t {
  kTerm,  // leaf
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
};

const char* ExprOpName(ExprOp op);

// True for the comparison operators (kEq..kGe) — the ops a condition
// literal may use. Shared by the parser and the slot-compiled evaluator so
// the two can never disagree on what counts as a condition.
bool IsComparisonOp(ExprOp op);

struct Expr {
  ExprOp op = ExprOp::kTerm;
  Term term;                   // kTerm leaf
  std::vector<Expr> children;  // binary ops: exactly 2

  static Expr Leaf(Term t);
  static Expr Binary(ExprOp op, Expr lhs, Expr rhs);

  bool IsComparison() const;
  std::string ToString() const;
};

enum class LiteralKind : uint8_t {
  kAtom,       // predicate atom (joins)
  kCondition,  // boolean expression (selection)
  kAssign,     // Var := expr
};

struct Literal {
  LiteralKind kind = LiteralKind::kAtom;
  Atom atom;               // kAtom
  std::string assign_var;  // kAssign target
  Expr expr;               // kCondition / kAssign RHS

  std::string ToString() const;
};

struct Rule {
  std::string label;  // optional ("r1", "sp2", ...)
  Atom head;
  // SeNDlog head destination: reachable(Z,Y)@Z  =>  dest = Var("Z").
  std::optional<Term> head_dest;
  std::vector<Literal> body;
  // Principal context variable from the enclosing "At S:" block, if any.
  std::optional<std::string> context;

  std::string ToString() const;
};

// materialize(pred, ttl_seconds, max_size, keys(1,2)). TTLs and sizes use
// -1 for "infinity". Key positions are 1-based attribute indexes per P2
// convention.
struct MaterializeDecl {
  std::string predicate;
  double ttl_seconds = -1.0;
  int64_t max_size = -1;
  std::vector<int> key_positions;

  std::string ToString() const;
};

struct Program {
  std::vector<MaterializeDecl> materialize;
  std::vector<Rule> rules;
  std::vector<Atom> facts;  // ground atoms
  // Set when the source used "At X:" blocks => SeNDlog dialect.
  bool sendlog = false;

  std::string ToString() const;
};

}  // namespace provnet

#endif  // PROVNET_DATALOG_AST_H_
