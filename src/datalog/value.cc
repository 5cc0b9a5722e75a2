#include "datalog/value.h"

#include <cmath>

#include "util/hash.h"
#include "util/logging.h"
#include "util/strings.h"

namespace provnet {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kInt:
      return "int";
    case ValueKind::kDouble:
      return "double";
    case ValueKind::kString:
      return "string";
    case ValueKind::kAddress:
      return "address";
    case ValueKind::kList:
      return "list";
  }
  return "?";
}

struct Value::StringPayload : Payload {
  explicit StringPayload(std::string s) : str(std::move(s)) {}
  const std::string str;
};

struct Value::ListPayload : Payload {
  explicit ListPayload(std::vector<Value> v) : items(std::move(v)) {}
  const std::vector<Value> items;
};

void Value::FreePayload() {
  if (kind_ == ValueKind::kString) {
    delete static_cast<StringPayload*>(word_.payload);
  } else {
    delete static_cast<ListPayload*>(word_.payload);
  }
}

const std::string& Value::str() const {
  return static_cast<const StringPayload*>(word_.payload)->str;
}

const std::vector<Value>& Value::items() const {
  return static_cast<const ListPayload*>(word_.payload)->items;
}

Value Value::Int(int64_t v) {
  Value out;
  out.kind_ = ValueKind::kInt;
  out.word_.i = v;
  return out;
}

Value Value::Real(double v) {
  Value out;
  out.kind_ = ValueKind::kDouble;
  out.word_.d = v;
  return out;
}

Value Value::Str(std::string v) {
  auto* payload = new StringPayload(std::move(v));
  payload->hash =
      HashCombine(Mix64(static_cast<uint64_t>(ValueKind::kString)),
                  Fnv1a64(payload->str));
  Value out;
  out.kind_ = ValueKind::kString;
  out.word_.payload = payload;
  return out;
}

Value Value::Address(NodeId v) {
  Value out;
  out.kind_ = ValueKind::kAddress;
  out.word_.i = v;
  return out;
}

Value Value::List(std::vector<Value> items) {
  auto* payload = new ListPayload(std::move(items));
  uint64_t h = Mix64(static_cast<uint64_t>(ValueKind::kList));
  for (const Value& v : payload->items) h = HashCombine(h, v.Hash());
  payload->hash = h;
  Value out;
  out.kind_ = ValueKind::kList;
  out.word_.payload = payload;
  return out;
}

int64_t Value::AsInt() const {
  PROVNET_CHECK(kind_ == ValueKind::kInt) << "AsInt on " << ValueKindName(kind_);
  return word_.i;
}

double Value::AsDouble() const {
  PROVNET_CHECK(kind_ == ValueKind::kDouble)
      << "AsDouble on " << ValueKindName(kind_);
  return word_.d;
}

const std::string& Value::AsString() const {
  PROVNET_CHECK(kind_ == ValueKind::kString)
      << "AsString on " << ValueKindName(kind_);
  return str();
}

NodeId Value::AsAddress() const {
  PROVNET_CHECK(kind_ == ValueKind::kAddress)
      << "AsAddress on " << ValueKindName(kind_);
  return static_cast<NodeId>(word_.i);
}

const std::vector<Value>& Value::AsList() const {
  PROVNET_CHECK(kind_ == ValueKind::kList)
      << "AsList on " << ValueKindName(kind_);
  return items();
}

Result<double> Value::ToNumber() const {
  switch (kind_) {
    case ValueKind::kInt:
      return static_cast<double>(word_.i);
    case ValueKind::kDouble:
      return word_.d;
    default:
      return InvalidArgumentError(std::string("not numeric: ") +
                                  ValueKindName(kind_));
  }
}

bool Value::PayloadEquals(const Value& other) const {
  if (kind_ == ValueKind::kString) {
    return word_.payload->hash == other.word_.payload->hash &&
           str() == other.str();
  }
  // No hash shortcut for lists: [3] equals [3.0], whose hash differs.
  const auto& a = items();
  const auto& b = other.items();
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

int Value::Compare(const Value& other) const {
  // Numeric kinds compare by value across int/double so "C < 5" behaves
  // naturally; all other cross-kind comparisons order by the kind tag.
  bool self_num = kind_ == ValueKind::kInt || kind_ == ValueKind::kDouble;
  bool other_num =
      other.kind_ == ValueKind::kInt || other.kind_ == ValueKind::kDouble;
  if (self_num && other_num) {
    if (kind_ == ValueKind::kInt && other.kind_ == ValueKind::kInt) {
      if (word_.i != other.word_.i) return word_.i < other.word_.i ? -1 : 1;
      return 0;
    }
    double a = kind_ == ValueKind::kInt ? static_cast<double>(word_.i)
                                        : word_.d;
    double b = other.kind_ == ValueKind::kInt
                   ? static_cast<double>(other.word_.i)
                   : other.word_.d;
    if (a < b) return -1;
    if (a > b) return 1;
    return 0;
  }
  if (kind_ != other.kind_) {
    return static_cast<int>(kind_) < static_cast<int>(other.kind_) ? -1 : 1;
  }
  switch (kind_) {
    case ValueKind::kNull:
      return 0;
    case ValueKind::kString: {
      int c = str().compare(other.str());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case ValueKind::kAddress: {
      if (word_.i != other.word_.i) return word_.i < other.word_.i ? -1 : 1;
      return 0;
    }
    case ValueKind::kList: {
      const auto& a = items();
      const auto& b = other.items();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
      return 0;
    }
    default:
      PROVNET_CHECK(false) << "unreachable";
      return 0;
  }
}

uint64_t Value::Hash() const {
  // A string's and a list's hash was computed into the payload when it
  // was built (Str, List), with the same formula.
  if (has_payload()) return word_.payload->hash;
  uint64_t h = Mix64(static_cast<uint64_t>(kind_));
  switch (kind_) {
    case ValueKind::kInt:
    case ValueKind::kAddress:
      h = HashCombine(h, static_cast<uint64_t>(word_.i));
      break;
    case ValueKind::kDouble: {
      // Normalize -0.0 so equal doubles hash equally.
      double d = word_.d == 0.0 ? 0.0 : word_.d;
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      h = HashCombine(h, bits);
      break;
    }
    default:
      break;
  }
  return h;
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kNull:
      return "null";
    case ValueKind::kInt:
      return std::to_string(word_.i);
    case ValueKind::kDouble:
      return StrFormat("%g", word_.d);
    case ValueKind::kString:
      return "\"" + str() + "\"";
    case ValueKind::kAddress:
      return "@" + std::to_string(word_.i);
    case ValueKind::kList: {
      std::vector<std::string> parts;
      parts.reserve(items().size());
      for (const Value& v : items()) parts.push_back(v.ToString());
      return "[" + StrJoin(parts, ", ") + "]";
    }
  }
  return "?";
}

void Value::Serialize(ByteWriter& out) const {
  out.PutU8(static_cast<uint8_t>(kind_));
  switch (kind_) {
    case ValueKind::kNull:
      break;
    case ValueKind::kInt:
      out.PutI64(word_.i);
      break;
    case ValueKind::kDouble:
      out.PutDouble(word_.d);
      break;
    case ValueKind::kString:
      out.PutString(str());
      break;
    case ValueKind::kAddress:
      out.PutVarint(static_cast<uint64_t>(word_.i));
      break;
    case ValueKind::kList:
      out.PutVarint(items().size());
      for (const Value& v : items()) v.Serialize(out);
      break;
  }
}

namespace {

// Lists decode at most this deep: the decoder recurses once per level, so
// hostile wire or archive bytes cannot run it off the stack.
constexpr int kMaxListNesting = 64;

Result<Value> DeserializeAt(ByteReader& in, int depth) {
  PROVNET_ASSIGN_OR_RETURN(uint8_t tag, in.GetU8());
  if (tag > static_cast<uint8_t>(ValueKind::kList)) {
    return InvalidArgumentError("bad value kind tag");
  }
  switch (static_cast<ValueKind>(tag)) {
    case ValueKind::kNull:
      return Value();
    case ValueKind::kInt: {
      PROVNET_ASSIGN_OR_RETURN(int64_t v, in.GetI64());
      return Value::Int(v);
    }
    case ValueKind::kDouble: {
      PROVNET_ASSIGN_OR_RETURN(double v, in.GetDouble());
      return Value::Real(v);
    }
    case ValueKind::kString: {
      PROVNET_ASSIGN_OR_RETURN(std::string v, in.GetString());
      return Value::Str(std::move(v));
    }
    case ValueKind::kAddress: {
      PROVNET_ASSIGN_OR_RETURN(uint64_t v, in.GetVarint());
      if (v > UINT32_MAX) return InvalidArgumentError("address overflow");
      return Value::Address(static_cast<NodeId>(v));
    }
    case ValueKind::kList: {
      if (depth >= kMaxListNesting) {
        return InvalidArgumentError("lists nested too deep");
      }
      PROVNET_ASSIGN_OR_RETURN(uint64_t n, in.GetVarint());
      if (n > in.remaining()) return InvalidArgumentError("list too long");
      std::vector<Value> items;
      items.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        PROVNET_ASSIGN_OR_RETURN(Value v, DeserializeAt(in, depth + 1));
        items.push_back(std::move(v));
      }
      return Value::List(std::move(items));
    }
  }
  return InternalError("unreachable");
}

}  // namespace

Result<Value> Value::Deserialize(ByteReader& in) {
  return DeserializeAt(in, 0);
}

}  // namespace provnet
