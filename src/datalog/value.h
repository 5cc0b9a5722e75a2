// Runtime values flowing through NDlog/SeNDlog dataflows.
//
// NDlog attributes are dynamically typed. The kinds mirror what P2 supported
// for the paper's workloads: integers, doubles, strings, node addresses
// (location specifiers), and lists (path vectors for the Best-Path query).
//
// Layout: a kind tag plus one 8-byte word, 16 bytes in all. The word holds
// an int or an address (as an int64) or a double itself. A string or a list
// lives in an immutable payload the word points to: a reference count, the
// value's Hash() (computed once, when the value is built), and the
// std::string or std::vector<Value>. Copying a string or list shares its
// payload, so tuple copies, stored rows and join probes never copy
// characters or path vectors; the payload is freed with its last copy. The
// counts are atomic because payloads cross worker lanes (every lane that
// evaluates a rule copies its constants). A moved-from Value is null.
#ifndef PROVNET_DATALOG_VALUE_H_
#define PROVNET_DATALOG_VALUE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace provnet {

// Identifies a simulated node; doubles as the value of location-specifier
// attributes.
using NodeId = uint32_t;

enum class ValueKind : uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kAddress = 4,
  kList = 5,
};

const char* ValueKindName(ValueKind kind);

class Value {
 public:
  // Null value.
  Value() = default;

  Value(const Value& other) : kind_(other.kind_), word_(other.word_) {
    Retain();
  }
  Value(Value&& other) noexcept : kind_(other.kind_), word_(other.word_) {
    other.kind_ = ValueKind::kNull;
  }
  // Both assignments read `other` before releasing this value's payload,
  // which may own `other` (v = v.AsList()[0]) or be `other`'s own.
  Value& operator=(const Value& other) {
    other.Retain();
    const ValueKind kind = other.kind_;
    const Word word = other.word_;
    Release();
    kind_ = kind;
    word_ = word;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    const ValueKind kind = other.kind_;
    const Word word = other.word_;
    other.kind_ = ValueKind::kNull;
    Release();
    kind_ = kind;
    word_ = word;
    return *this;
  }
  ~Value() { Release(); }

  static Value Int(int64_t v);
  static Value Real(double v);
  static Value Str(std::string v);
  static Value Address(NodeId v);
  static Value List(std::vector<Value> items);

  ValueKind kind() const { return kind_; }
  bool is_null() const { return kind_ == ValueKind::kNull; }

  // Accessors abort on kind mismatch (programming error); use kind() first
  // for data-dependent paths.
  int64_t AsInt() const;
  double AsDouble() const;
  const std::string& AsString() const;
  NodeId AsAddress() const;
  const std::vector<Value>& AsList() const;

  // Numeric coercion: ints widen to double; errors otherwise.
  Result<double> ToNumber() const;

  // Equality is consistent with Compare() == 0 (Int 3 equals Double 3.0)
  // but avoids the full three-way comparison: it is the innermost check of
  // the join core's unification loop. Shared payloads short-circuit by
  // pointer, so path-vector compares are O(1) in the common case.
  bool operator==(const Value& other) const {
    if (kind_ == other.kind_) {
      switch (kind_) {
        case ValueKind::kNull:
          return true;
        case ValueKind::kInt:
        case ValueKind::kAddress:
          return word_.i == other.word_.i;
        case ValueKind::kDouble:
          return word_.d == other.word_.d;
        case ValueKind::kString:
        case ValueKind::kList:
          return word_.payload == other.word_.payload || PayloadEquals(other);
      }
      return false;
    }
    // Cross-kind: only int/double mixes can still be equal.
    if (kind_ == ValueKind::kInt && other.kind_ == ValueKind::kDouble) {
      return static_cast<double>(word_.i) == other.word_.d;
    }
    if (kind_ == ValueKind::kDouble && other.kind_ == ValueKind::kInt) {
      return word_.d == static_cast<double>(other.word_.i);
    }
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }

  // Total order across kinds (kind tag first, then value); gives tables a
  // deterministic sort and makes MIN/MAX aggregates well defined.
  int Compare(const Value& other) const;
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  uint64_t Hash() const;

  // "42", "3.5", "\"abc\"", "@7", "[@1, @2]".
  std::string ToString() const;

  void Serialize(ByteWriter& out) const;
  static Result<Value> Deserialize(ByteReader& in);

 private:
  // What a string's and a list's payloads share; StringPayload and
  // ListPayload (value.cc) add the std::string or std::vector<Value>.
  struct Payload {
    std::atomic<uint64_t> refs{1};
    uint64_t hash = 0;
  };
  struct StringPayload;
  struct ListPayload;

  // Copied as a whole: no member is ever read as another.
  union Word {
    int64_t i;
    double d;
    Payload* payload;
  };

  bool has_payload() const {
    return kind_ == ValueKind::kString || kind_ == ValueKind::kList;
  }
  void Retain() const {
    if (has_payload()) word_.payload->refs.fetch_add(1);
  }
  void Release() {
    if (has_payload() && word_.payload->refs.fetch_sub(1) == 1) {
      FreePayload();
    }
  }
  void FreePayload();

  const std::string& str() const;
  const std::vector<Value>& items() const;
  // Same-kind string or list equality for distinct payloads.
  bool PayloadEquals(const Value& other) const;

  ValueKind kind_ = ValueKind::kNull;
  Word word_ = {0};
};

static_assert(sizeof(Value) == 16, "a Value is a kind tag and one word");

}  // namespace provnet

#endif  // PROVNET_DATALOG_VALUE_H_
