#include "core/slots.h"

#include <algorithm>
#include <unordered_map>

namespace provnet {

namespace {

// Variable name -> frame slot while one rule compiles, numbered in order of
// first appearance.
using SlotNames = std::unordered_map<std::string, int>;

// Interns `name` into the program's slot table.
int SlotOf(RuleProgram& prog, SlotNames& names, const std::string& name) {
  auto [it, fresh] = names.emplace(name, prog.num_slots);
  if (fresh) ++prog.num_slots;
  return it->second;
}

Result<SlotTerm> CompileTerm(const Term& term, RuleProgram& prog,
                             SlotNames& names) {
  SlotTerm out;
  out.kind = term.kind;
  switch (term.kind) {
    case TermKind::kConstant:
      out.constant = term.constant;
      return out;
    case TermKind::kVariable:
    case TermKind::kAggregate:
      out.name = term.name;
      out.slot = SlotOf(prog, names, term.name);
      return out;
    case TermKind::kFunction: {
      out.name = term.name;
      PROVNET_ASSIGN_OR_RETURN(out.fn, LookupBuiltin(term.name));
      out.args.reserve(term.args.size());
      for (const Term& a : term.args) {
        PROVNET_ASSIGN_OR_RETURN(SlotTerm arg, CompileTerm(a, prog, names));
        out.args.push_back(std::move(arg));
      }
      return out;
    }
  }
  return InternalError("unreachable term kind");
}

Result<SlotExpr> CompileExpr(const Expr& expr, RuleProgram& prog,
                             SlotNames& names) {
  SlotExpr out;
  out.op = expr.op;
  if (expr.op == ExprOp::kTerm) {
    PROVNET_ASSIGN_OR_RETURN(out.term, CompileTerm(expr.term, prog, names));
    return out;
  }
  out.children.reserve(expr.children.size());
  for (const Expr& child : expr.children) {
    PROVNET_ASSIGN_OR_RETURN(SlotExpr c, CompileExpr(child, prog, names));
    out.children.push_back(std::move(c));
  }
  return out;
}

}  // namespace

Result<RuleProgram> CompileRuleProgram(const LocalizedRule& lr) {
  RuleProgram prog;
  SlotNames names;
  const Rule& rule = lr.rule;
  prog.head_predicate = rule.head.predicate;
  prog.label = rule.label.empty() ? rule.head.predicate : rule.label;
  prog.local_slot = SlotOf(prog, names, lr.local_var);

  prog.body.reserve(rule.body.size());
  for (const Literal& lit : rule.body) {
    SlotLiteral out;
    out.kind = lit.kind;
    switch (lit.kind) {
      case LiteralKind::kAtom: {
        out.predicate = lit.atom.predicate;
        out.arity = lit.atom.args.size();
        out.cols.reserve(out.arity);
        out.index_cands.reserve(out.arity);
        for (size_t i = 0; i < lit.atom.args.size(); ++i) {
          const Term& arg = lit.atom.args[i];
          MatchOp op;
          IndexCand cand;
          cand.col = static_cast<int>(i);
          switch (arg.kind) {
            case TermKind::kConstant:
              op.is_const = true;
              op.constant = arg.constant;
              cand.is_const = true;
              cand.constant = arg.constant;
              break;
            case TermKind::kVariable:
              op.slot = SlotOf(prog, names, arg.name);
              cand.slot = op.slot;
              break;
            default:
              return UnimplementedError(
                  "body atom " + lit.atom.predicate +
                  " uses a computed argument; bind it with ':=' first");
          }
          out.cols.push_back(std::move(op));
          out.index_cands.push_back(std::move(cand));
        }
        if (lit.atom.says.has_value()) {
          SlotSays says;
          const Term& term = *lit.atom.says;
          if (term.kind == TermKind::kConstant) {
            says.is_const = true;
            says.constant = term.constant;
          } else if (term.kind == TermKind::kVariable) {
            says.slot = SlotOf(prog, names, term.name);
          } else {
            says.never = true;
          }
          out.says = std::move(says);
        }
        break;
      }
      case LiteralKind::kCondition: {
        PROVNET_ASSIGN_OR_RETURN(out.expr,
                                 CompileExpr(lit.expr, prog, names));
        break;
      }
      case LiteralKind::kAssign: {
        out.assign_slot = SlotOf(prog, names, lit.assign_var);
        PROVNET_ASSIGN_OR_RETURN(out.expr,
                                 CompileExpr(lit.expr, prog, names));
        break;
      }
    }
    prog.body.push_back(std::move(out));
  }

  prog.head_args.reserve(rule.head.args.size());
  for (const Term& t : rule.head.args) {
    PROVNET_ASSIGN_OR_RETURN(SlotTerm st, CompileTerm(t, prog, names));
    prog.head_args.push_back(std::move(st));
  }
  if (lr.send_to.has_value()) {
    PROVNET_ASSIGN_OR_RETURN(SlotTerm st,
                             CompileTerm(*lr.send_to, prog, names));
    prog.send_to = std::move(st);
  }
  return prog;
}

bool MatchTuple(const SlotLiteral& lit, const Tuple& tuple, Frame& frame) {
  if (tuple.arity() != lit.arity) return false;
  for (size_t i = 0; i < lit.cols.size(); ++i) {
    const MatchOp& op = lit.cols[i];
    const Value& value = tuple.arg(i);
    if (op.is_const) {
      if (!(op.constant == value)) return false;
    } else if (!frame.BindOrCheck(op.slot, value)) {
      return false;
    }
  }
  return true;
}

bool MatchHead(const RuleProgram& prog, const Tuple& tuple, Frame& frame,
               const std::vector<int>& positions) {
  if (tuple.predicate() != prog.head_predicate ||
      tuple.arity() != prog.head_args.size()) {
    return false;
  }
  for (size_t i = 0; i < prog.head_args.size(); ++i) {
    if (!positions.empty() &&
        std::find(positions.begin(), positions.end(), static_cast<int>(i)) ==
            positions.end()) {
      continue;
    }
    const SlotTerm& term = prog.head_args[i];
    const Value& value = tuple.arg(i);
    if (term.kind == TermKind::kConstant) {
      if (!(term.constant == value)) return false;
    } else if (term.kind == TermKind::kVariable &&
               !frame.BindOrCheck(term.slot, value)) {
      return false;
    }
    // Function and aggregate columns are computed by the body: skipped.
  }
  return true;
}

Result<Value> EvalSlotTerm(const SlotTerm& term, const Frame& frame) {
  switch (term.kind) {
    case TermKind::kConstant:
      return term.constant;
    case TermKind::kVariable:
    case TermKind::kAggregate:
      if (!frame.IsBound(term.slot)) {
        return FailedPreconditionError("unbound variable " + term.name);
      }
      return frame.Get(term.slot);
    case TermKind::kFunction: {
      std::vector<Value> args;
      args.reserve(term.args.size());
      for (const SlotTerm& a : term.args) {
        PROVNET_ASSIGN_OR_RETURN(Value v, EvalSlotTerm(a, frame));
        args.push_back(std::move(v));
      }
      return CallBuiltin(term.fn, args);
    }
  }
  return InternalError("unreachable term kind");
}

Result<Value> EvalSlotExpr(const SlotExpr& expr, const Frame& frame) {
  if (expr.op == ExprOp::kTerm) return EvalSlotTerm(expr.term, frame);
  PROVNET_ASSIGN_OR_RETURN(Value lhs, EvalSlotExpr(expr.children[0], frame));
  PROVNET_ASSIGN_OR_RETURN(Value rhs, EvalSlotExpr(expr.children[1], frame));
  return ApplyBinaryOp(expr.op, lhs, rhs);
}

Result<bool> EvalSlotCondition(const SlotExpr& expr, const Frame& frame) {
  if (!IsComparisonOp(expr.op)) {
    return InvalidArgumentError("condition must be a comparison");
  }
  PROVNET_ASSIGN_OR_RETURN(Value v, EvalSlotExpr(expr, frame));
  return v.AsInt() != 0;
}

Result<Tuple> BuildHeadTuple(const RuleProgram& prog, const Frame& frame) {
  std::vector<Value> args;
  args.reserve(prog.head_args.size());
  for (const SlotTerm& t : prog.head_args) {
    PROVNET_ASSIGN_OR_RETURN(Value v, EvalSlotTerm(t, frame));
    args.push_back(std::move(v));
  }
  return Tuple(prog.head_predicate, std::move(args));
}

}  // namespace provnet
