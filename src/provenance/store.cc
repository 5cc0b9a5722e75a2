#include "provenance/store.h"

#include <algorithm>

#include "util/strings.h"

namespace provnet {

TupleDigest DigestOf(const Tuple& tuple) { return tuple.Hash(); }

void ProvChildRef::Serialize(ByteWriter& out) const {
  out.PutU32(node);
  out.PutU64(digest);
  out.PutU8(is_base ? 1 : 0);
  if (is_base) base_tuple.Serialize(out);
  out.PutString(asserted_by);
}

Result<ProvChildRef> ProvChildRef::Deserialize(ByteReader& in) {
  ProvChildRef ref;
  PROVNET_ASSIGN_OR_RETURN(ref.node, in.GetU32());
  PROVNET_ASSIGN_OR_RETURN(ref.digest, in.GetU64());
  PROVNET_ASSIGN_OR_RETURN(uint8_t base, in.GetU8());
  ref.is_base = base != 0;
  if (ref.is_base) {
    PROVNET_ASSIGN_OR_RETURN(ref.base_tuple, Tuple::Deserialize(in));
  }
  PROVNET_ASSIGN_OR_RETURN(ref.asserted_by, in.GetString());
  return ref;
}

void ProvRecord::Serialize(ByteWriter& out) const {
  tuple.Serialize(out);
  out.PutString(rule);
  out.PutU32(location);
  out.PutString(asserted_by);
  out.PutDouble(created_at);
  out.PutDouble(expires_at);
  out.PutVarint(children.size());
  for (const ProvChildRef& c : children) c.Serialize(out);
}

Result<ProvRecord> ProvRecord::Deserialize(ByteReader& in) {
  ProvRecord rec;
  PROVNET_ASSIGN_OR_RETURN(rec.tuple, Tuple::Deserialize(in));
  PROVNET_ASSIGN_OR_RETURN(rec.rule, in.GetString());
  PROVNET_ASSIGN_OR_RETURN(rec.location, in.GetU32());
  PROVNET_ASSIGN_OR_RETURN(rec.asserted_by, in.GetString());
  PROVNET_ASSIGN_OR_RETURN(rec.created_at, in.GetDouble());
  PROVNET_ASSIGN_OR_RETURN(rec.expires_at, in.GetDouble());
  PROVNET_ASSIGN_OR_RETURN(uint64_t n, in.GetVarint());
  if (n > in.remaining()) return InvalidArgumentError("too many children");
  for (uint64_t i = 0; i < n; ++i) {
    PROVNET_ASSIGN_OR_RETURN(ProvChildRef ref, ProvChildRef::Deserialize(in));
    rec.children.push_back(std::move(ref));
  }
  return rec;
}

std::string ProvRecord::ToString() const {
  std::string out = tuple.ToString() + " via " + rule + " @" +
                    std::to_string(location);
  if (!asserted_by.empty()) out += " (" + asserted_by + " says)";
  out += StrFormat(" t=%.2f", created_at);
  if (expires_at >= 0) out += StrFormat(" exp=%.2f", expires_at);
  out += StrFormat(" children=%zu", children.size());
  return out;
}

void OnlineProvStore::Add(ProvRecord record) {
  records_[DigestOf(record.tuple)].push_back(std::move(record));
  ++count_;
}

const std::vector<ProvRecord>* OnlineProvStore::Lookup(
    TupleDigest digest) const {
  auto it = records_.find(digest);
  return it == records_.end() ? nullptr : &it->second;
}

size_t OnlineProvStore::ExpireBefore(double now) {
  size_t dropped = 0;
  for (auto it = records_.begin(); it != records_.end();) {
    auto& vec = it->second;
    size_t before = vec.size();
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [now](const ProvRecord& r) {
                               return r.expires_at >= 0 && r.expires_at < now;
                             }),
              vec.end());
    dropped += before - vec.size();
    if (vec.empty()) {
      it = records_.erase(it);
    } else {
      ++it;
    }
  }
  count_ -= dropped;
  return dropped;
}

size_t OnlineProvStore::Remove(TupleDigest digest) {
  auto it = records_.find(digest);
  if (it == records_.end()) return 0;
  size_t n = it->second.size();
  records_.erase(it);
  count_ -= n;
  return n;
}

std::vector<TupleDigest> OnlineProvStore::DependentsOf(
    const Principal& principal) const {
  // Transitive closure over local records: seed with records having a child
  // asserted by `principal`, then propagate through local parent links.
  std::vector<TupleDigest> out;
  std::unordered_map<TupleDigest, bool> tainted;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [digest, recs] : records_) {
      if (tainted.count(digest)) continue;
      for (const ProvRecord& rec : recs) {
        bool hit = rec.asserted_by == principal;
        for (const ProvChildRef& c : rec.children) {
          if (hit) break;
          if (c.asserted_by == principal) hit = true;
          if (!c.is_base && tainted.count(c.digest)) hit = true;
        }
        if (hit) {
          tainted.emplace(digest, true);
          changed = true;
          break;
        }
      }
    }
  }
  out.reserve(tainted.size());
  for (const auto& [digest, _] : tainted) out.push_back(digest);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace provnet
