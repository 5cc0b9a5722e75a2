// Slot-compiled rule programs: the engine's one rule evaluator.
//
// Each rule's variables are numbered into a dense frame of integer slots at
// plan time, and everything the inner loop touches is pre-resolved:
//
//   * body atoms   -> one MatchOp per column (bind-or-check slot / check
//                     constant) plus the column candidates an index lookup
//                     may serve, so unification is a flat loop over ops;
//   * conditions / assignments / head terms -> SlotExpr / SlotTerm trees
//     whose variables are slot references and whose builtin calls are
//     interned BuiltinFn enums (no string dispatch per call); the head
//     terms double as the head pattern re-derivation matches a deleted
//     tuple against (constants check, variables bind or check);
//   * says clauses -> a SlotSays (constant principal or slot).
//
// At run time a single Frame (slot values + bound bitmap + undo trail) is
// threaded through the join recursion: binding records the slot on the
// trail, backtracking pops it — no copies, no allocation. Frames are
// seeded dynamically (the delta literal, or a partially-bound head pattern
// during re-derivation), so every variable column compiles to bind-OR-check
// and index-column selection picks the first constant or *currently bound*
// column at run time.
#ifndef PROVNET_CORE_SLOTS_H_
#define PROVNET_CORE_SLOTS_H_

#include <optional>
#include <string>
#include <vector>

#include "datalog/ast.h"
#include "datalog/localize.h"
#include "datalog/tuple.h"
#include "util/status.h"

namespace provnet {

// The f_* builtin library, interned at compile time:
//   f_init(a, b)         -> [a, b]            (initial path vector)
//   f_concatPath(x, P)   -> [x | P]           (prepend)
//   f_append(P, x)       -> P ++ [x]
//   f_member(P, x)       -> 1 if x in list P else 0
//   f_size(P)            -> length of P
//   f_first(P), f_last(P), f_second(P)   (f_second = next hop)
//   f_min(a, b), f_max(a, b)
enum class BuiltinFn : uint8_t {
  kInit = 0,
  kConcatPath,
  kAppend,
  kMember,
  kSize,
  kFirst,
  kLast,
  kSecond,
  kMin,
  kMax,
};

const char* BuiltinFnName(BuiltinFn fn);
Result<BuiltinFn> LookupBuiltin(const std::string& name);
Result<Value> CallBuiltin(BuiltinFn fn, const std::vector<Value>& args);

// Applies a binary arithmetic/comparison operator. Comparisons yield Int
// 0/1; arithmetic requires numeric operands (Int stays Int when both are
// Int, else Double); division and modulo by zero are errors.
Result<Value> ApplyBinaryOp(ExprOp op, const Value& lhs, const Value& rhs);

// A term with variables resolved to frame slots and builtins interned.
struct SlotTerm {
  TermKind kind = TermKind::kConstant;
  int slot = -1;               // kVariable / kAggregate
  Value constant;              // kConstant
  BuiltinFn fn = BuiltinFn::kInit;  // kFunction
  std::vector<SlotTerm> args;  // kFunction arguments
  std::string name;            // variable/function name (diagnostics only)
};

// Expression tree mirroring Expr with slot-resolved leaves.
struct SlotExpr {
  ExprOp op = ExprOp::kTerm;
  SlotTerm term;                   // kTerm leaf
  std::vector<SlotExpr> children;  // binary ops: exactly 2
};

// Unification program for one body-atom column.
struct MatchOp {
  bool is_const = false;
  int slot = -1;   // bind-or-check when !is_const
  Value constant;  // equality check when is_const
};

// A column an index lookup could serve: usable when the column pattern is a
// constant, or its slot is bound by the time the literal is reached.
struct IndexCand {
  int col = -1;
  bool is_const = false;
  int slot = -1;
  Value constant;
};

// Compiled "P says atom" check. `never` marks patterns that can never match
// (non-variable, non-constant says terms), preserving seed semantics.
struct SlotSays {
  bool never = false;
  bool is_const = false;
  Value constant;
  int slot = -1;
};

// One compiled body literal.
struct SlotLiteral {
  LiteralKind kind = LiteralKind::kAtom;
  // kAtom.
  std::string predicate;
  size_t arity = 0;
  std::vector<MatchOp> cols;            // one per column
  std::vector<IndexCand> index_cands;   // in column order
  std::optional<SlotSays> says;
  // kCondition (expr) / kAssign (assign_slot := expr).
  SlotExpr expr;
  int assign_slot = -1;
};

// The full slot program of one localized rule.
struct RuleProgram {
  int num_slots = 0;
  int local_slot = 0;  // slot of the executing node's address variable
  std::string head_predicate;
  // Rule label for derivation records ("r1", or the head predicate when the
  // source left it unlabeled), resolved once at compile time.
  std::string label;
  std::vector<SlotLiteral> body;       // in rule-body order
  std::vector<SlotTerm> head_args;  // also the head pattern (MatchHead)
  std::optional<SlotTerm> send_to;
};

Result<RuleProgram> CompileRuleProgram(const LocalizedRule& lr);

// The run-time variable frame: slot values, bound flags, and a trail of
// bindings for O(1) backtracking. One frame is reused across firings
// (Reset is O(num_slots); binding/undo are O(1) per slot).
class Frame {
 public:
  void Reset(int num_slots) {
    size_t n = static_cast<size_t>(num_slots);
    if (slots_.size() < n) {
      slots_.resize(n);
      bound_.resize(n);
    }
    std::fill(bound_.begin(), bound_.begin() + static_cast<long>(n), 0);
    trail_.clear();
  }

  bool IsBound(int slot) const {
    return bound_[static_cast<size_t>(slot)] != 0;
  }
  const Value& Get(int slot) const { return slots_[static_cast<size_t>(slot)]; }

  // Binds an unbound slot (recording it on the trail) or checks equality
  // against the existing binding.
  bool BindOrCheck(int slot, const Value& v) {
    size_t s = static_cast<size_t>(slot);
    if (bound_[s]) return slots_[s] == v;
    slots_[s] = v;
    bound_[s] = 1;
    trail_.push_back(slot);
    return true;
  }
  bool BindOrCheck(int slot, Value&& v) {
    size_t s = static_cast<size_t>(slot);
    if (bound_[s]) return slots_[s] == v;
    slots_[s] = std::move(v);
    bound_[s] = 1;
    trail_.push_back(slot);
    return true;
  }

  size_t Mark() const { return trail_.size(); }
  void UndoTo(size_t mark) {
    while (trail_.size() > mark) {
      bound_[static_cast<size_t>(trail_.back())] = 0;
      trail_.pop_back();
    }
  }

 private:
  std::vector<Value> slots_;
  std::vector<uint8_t> bound_;
  std::vector<int> trail_;
};

// Matches `tuple` against the literal's column ops, extending `frame`. On
// mismatch the frame may hold partial bindings; callers undo to their mark.
bool MatchTuple(const SlotLiteral& lit, const Tuple& tuple, Frame& frame);

// Matches `tuple` against the rule's head pattern, extending `frame`:
// predicate and arity must agree, constants must match, variables bind or
// check, and function/aggregate columns are skipped. Re-derivation uses it
// to run a rule backwards from a deleted head tuple. When `positions` is
// non-empty only those columns are matched (aggregate-group re-derivation
// constrains the group columns and leaves the aggregate free).
bool MatchHead(const RuleProgram& prog, const Tuple& tuple, Frame& frame,
               const std::vector<int>& positions = {});

Result<Value> EvalSlotTerm(const SlotTerm& term, const Frame& frame);
Result<Value> EvalSlotExpr(const SlotExpr& expr, const Frame& frame);
Result<bool> EvalSlotCondition(const SlotExpr& expr, const Frame& frame);

// Builds the rule's head tuple from the frame (constants, slots, functions,
// aggregate placeholders).
Result<Tuple> BuildHeadTuple(const RuleProgram& prog, const Frame& frame);

}  // namespace provnet

#endif  // PROVNET_CORE_SLOTS_H_
