// The f_* builtin library and the binary operators shared by every
// slot-compiled rule program (core/slots.h).
#include <cmath>

#include "core/slots.h"

namespace provnet {
namespace {

Status ArityError(const std::string& name, size_t want, size_t got) {
  return InvalidArgumentError(name + " expects " + std::to_string(want) +
                              " arguments, got " + std::to_string(got));
}

Result<Value> ListOf(const Value& v, const std::string& fn) {
  if (v.kind() != ValueKind::kList) {
    return InvalidArgumentError(fn + ": expected a list, got " + v.ToString());
  }
  return v;
}

}  // namespace

const char* BuiltinFnName(BuiltinFn fn) {
  switch (fn) {
    case BuiltinFn::kInit:
      return "f_init";
    case BuiltinFn::kConcatPath:
      return "f_concatPath";
    case BuiltinFn::kAppend:
      return "f_append";
    case BuiltinFn::kMember:
      return "f_member";
    case BuiltinFn::kSize:
      return "f_size";
    case BuiltinFn::kFirst:
      return "f_first";
    case BuiltinFn::kLast:
      return "f_last";
    case BuiltinFn::kSecond:
      return "f_second";
    case BuiltinFn::kMin:
      return "f_min";
    case BuiltinFn::kMax:
      return "f_max";
  }
  return "?";
}

Result<BuiltinFn> LookupBuiltin(const std::string& name) {
  if (name == "f_init") return BuiltinFn::kInit;
  if (name == "f_concatPath") return BuiltinFn::kConcatPath;
  if (name == "f_append") return BuiltinFn::kAppend;
  if (name == "f_member") return BuiltinFn::kMember;
  if (name == "f_size") return BuiltinFn::kSize;
  if (name == "f_first") return BuiltinFn::kFirst;
  if (name == "f_last") return BuiltinFn::kLast;
  if (name == "f_second") return BuiltinFn::kSecond;
  if (name == "f_min") return BuiltinFn::kMin;
  if (name == "f_max") return BuiltinFn::kMax;
  return UnimplementedError("unknown builtin " + name);
}

Result<Value> CallBuiltin(BuiltinFn fn, const std::vector<Value>& args) {
  const char* name = BuiltinFnName(fn);
  switch (fn) {
    case BuiltinFn::kInit:
      if (args.size() != 2) return ArityError(name, 2, args.size());
      return Value::List({args[0], args[1]});
    case BuiltinFn::kConcatPath: {
      if (args.size() != 2) return ArityError(name, 2, args.size());
      PROVNET_ASSIGN_OR_RETURN(Value list, ListOf(args[1], name));
      std::vector<Value> out;
      out.reserve(list.AsList().size() + 1);
      out.push_back(args[0]);
      out.insert(out.end(), list.AsList().begin(), list.AsList().end());
      return Value::List(std::move(out));
    }
    case BuiltinFn::kAppend: {
      if (args.size() != 2) return ArityError(name, 2, args.size());
      PROVNET_ASSIGN_OR_RETURN(Value list, ListOf(args[0], name));
      std::vector<Value> out = list.AsList();
      out.push_back(args[1]);
      return Value::List(std::move(out));
    }
    case BuiltinFn::kMember: {
      if (args.size() != 2) return ArityError(name, 2, args.size());
      PROVNET_ASSIGN_OR_RETURN(Value list, ListOf(args[0], name));
      for (const Value& v : list.AsList()) {
        if (v == args[1]) return Value::Int(1);
      }
      return Value::Int(0);
    }
    case BuiltinFn::kSize: {
      if (args.size() != 1) return ArityError(name, 1, args.size());
      PROVNET_ASSIGN_OR_RETURN(Value list, ListOf(args[0], name));
      return Value::Int(static_cast<int64_t>(list.AsList().size()));
    }
    case BuiltinFn::kFirst:
    case BuiltinFn::kLast: {
      if (args.size() != 1) return ArityError(name, 1, args.size());
      PROVNET_ASSIGN_OR_RETURN(Value list, ListOf(args[0], name));
      if (list.AsList().empty()) {
        return InvalidArgumentError(std::string(name) + ": empty list");
      }
      return fn == BuiltinFn::kFirst ? list.AsList().front()
                                     : list.AsList().back();
    }
    case BuiltinFn::kSecond: {
      // Next hop of a path vector.
      if (args.size() != 1) return ArityError(name, 1, args.size());
      PROVNET_ASSIGN_OR_RETURN(Value list, ListOf(args[0], name));
      if (list.AsList().size() < 2) {
        return InvalidArgumentError("f_second: list has no second element");
      }
      return list.AsList()[1];
    }
    case BuiltinFn::kMin:
    case BuiltinFn::kMax: {
      if (args.size() != 2) return ArityError(name, 2, args.size());
      int cmp = args[0].Compare(args[1]);
      if (fn == BuiltinFn::kMin) return cmp <= 0 ? args[0] : args[1];
      return cmp >= 0 ? args[0] : args[1];
    }
  }
  return InternalError("unreachable builtin");
}

Result<Value> ApplyBinaryOp(ExprOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case ExprOp::kEq:
      return Value::Int(lhs == rhs ? 1 : 0);
    case ExprOp::kNe:
      return Value::Int(lhs != rhs ? 1 : 0);
    case ExprOp::kLt:
      return Value::Int(lhs.Compare(rhs) < 0 ? 1 : 0);
    case ExprOp::kLe:
      return Value::Int(lhs.Compare(rhs) <= 0 ? 1 : 0);
    case ExprOp::kGt:
      return Value::Int(lhs.Compare(rhs) > 0 ? 1 : 0);
    case ExprOp::kGe:
      return Value::Int(lhs.Compare(rhs) >= 0 ? 1 : 0);
    default:
      break;
  }

  // Arithmetic.
  if (lhs.kind() == ValueKind::kInt && rhs.kind() == ValueKind::kInt) {
    int64_t a = lhs.AsInt();
    int64_t b = rhs.AsInt();
    switch (op) {
      case ExprOp::kAdd:
        return Value::Int(a + b);
      case ExprOp::kSub:
        return Value::Int(a - b);
      case ExprOp::kMul:
        return Value::Int(a * b);
      case ExprOp::kDiv:
        if (b == 0) return InvalidArgumentError("division by zero");
        return Value::Int(a / b);
      case ExprOp::kMod:
        if (b == 0) return InvalidArgumentError("modulo by zero");
        return Value::Int(a % b);
      default:
        return InternalError("unreachable arithmetic op");
    }
  }
  PROVNET_ASSIGN_OR_RETURN(double a, lhs.ToNumber());
  PROVNET_ASSIGN_OR_RETURN(double b, rhs.ToNumber());
  switch (op) {
    case ExprOp::kAdd:
      return Value::Real(a + b);
    case ExprOp::kSub:
      return Value::Real(a - b);
    case ExprOp::kMul:
      return Value::Real(a * b);
    case ExprOp::kDiv:
      if (b == 0.0) return InvalidArgumentError("division by zero");
      return Value::Real(a / b);
    case ExprOp::kMod:
      if (b == 0.0) return InvalidArgumentError("modulo by zero");
      return Value::Real(std::fmod(a, b));
    default:
      return InternalError("unreachable arithmetic op");
  }
}

}  // namespace provnet
