#include "provenance/store.h"

#include <algorithm>
#include <utility>

#include "obs/mem.h"
#include "util/logging.h"
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

namespace {

// Per-entry estimate: the hash-map node (next pointer, digest, Entry) plus
// its bucket slot.
constexpr uint64_t kEntryAccountedBytes =
    sizeof(std::pair<const TupleDigest, OnlineProvStore::Entry>) +
    2 * sizeof(void*);

uint64_t EntryBytes(const OnlineProvStore::Entry& entry) {
  return entry.bytes.capacity() + kEntryAccountedBytes;
}

// Decodes the record at `in`; the store wrote these bytes itself, so a
// failure is a program bug.
ProvRecord DecodeOne(ByteReader& in) {
  Result<ProvRecord> rec = ProvRecord::Deserialize(in);
  PROVNET_CHECK(rec.ok()) << "online record does not decode: "
                          << rec.status().ToString();
  return std::move(rec).value();
}

std::vector<ProvRecord> Decode(const OnlineProvStore::Entry& entry) {
  std::vector<ProvRecord> out;
  out.reserve(entry.count);
  ByteReader in(entry.bytes);
  for (uint32_t i = 0; i < entry.count; ++i) out.push_back(DecodeOne(in));
  return out;
}

}  // namespace

void OnlineProvStore::Charge(uint64_t b) {
  bytes_ += b;
  obs::MemAccounting::Global().Add(obs::MemSubsystem::kOnlineRecords, b);
}

void OnlineProvStore::Release(uint64_t b) {
  bytes_ -= b;
  obs::MemAccounting::Global().Sub(obs::MemSubsystem::kOnlineRecords, b);
}

void OnlineProvStore::AddEncoded(const uint8_t* data, size_t len,
                                 bool expiring, TupleDigest digest) {
  auto [it, fresh] = records_.try_emplace(digest);
  Entry& entry = it->second;
  uint64_t before = fresh ? 0 : EntryBytes(entry);
  // One copy: a fresh entry's capacity is exactly its record's size.
  entry.bytes.insert(entry.bytes.end(), data, data + len);
  ++entry.count;
  entry.expiring = entry.expiring || expiring;
  Charge(EntryBytes(entry) - before);
  ++count_;
}

void OnlineProvStore::Add(const ProvRecord& record, TupleDigest digest) {
  ByteWriter encoded;
  record.Serialize(encoded);
  AddEncoded(encoded.bytes().data(), encoded.size(), record.expires_at >= 0,
             digest);
}

std::vector<ProvRecord> OnlineProvStore::Lookup(TupleDigest digest) const {
  const Entry* entry = Encoded(digest);
  return entry == nullptr ? std::vector<ProvRecord>{} : Decode(*entry);
}

const OnlineProvStore::Entry* OnlineProvStore::Encoded(
    TupleDigest digest) const {
  auto it = records_.find(digest);
  return it == records_.end() ? nullptr : &it->second;
}

size_t OnlineProvStore::ExpireBefore(double now) {
  size_t dropped = 0;
  for (auto it = records_.begin(); it != records_.end();) {
    Entry& entry = it->second;
    if (!entry.expiring) {
      ++it;
      continue;
    }
    // Keep the encoded bytes of every record still live, in order.
    Entry kept;
    ByteReader in(entry.bytes);
    for (uint32_t i = 0; i < entry.count; ++i) {
      size_t from = in.position();
      ProvRecord rec = DecodeOne(in);
      if (rec.expires_at >= 0 && rec.expires_at < now) continue;
      kept.bytes.insert(kept.bytes.end(), entry.bytes.begin() + from,
                        entry.bytes.begin() + in.position());
      ++kept.count;
      kept.expiring = kept.expiring || rec.expires_at >= 0;
    }
    if (kept.count == entry.count) {
      ++it;
      continue;
    }
    dropped += entry.count - kept.count;
    Release(EntryBytes(entry));
    if (kept.count == 0) {
      it = records_.erase(it);
      continue;
    }
    entry = std::move(kept);
    Charge(EntryBytes(entry));
    ++it;
  }
  count_ -= dropped;
  return dropped;
}

size_t OnlineProvStore::Remove(TupleDigest digest) {
  auto it = records_.find(digest);
  if (it == records_.end()) return 0;
  size_t n = it->second.count;
  Release(EntryBytes(it->second));
  records_.erase(it);
  count_ -= n;
  return n;
}

void OnlineProvStore::Clear() {
  Release(bytes_);
  records_.clear();
  count_ = 0;
}

std::vector<TupleDigest> OnlineProvStore::DependentsOf(
    const Principal& principal) const {
  // Transitive closure over local records: seed with records having a child
  // asserted by `principal`, then propagate through local parent links.
  std::vector<std::pair<TupleDigest, std::vector<ProvRecord>>> decoded;
  decoded.reserve(records_.size());
  for (const auto& [digest, entry] : records_) {
    decoded.emplace_back(digest, Decode(entry));
  }
  std::vector<TupleDigest> out;
  std::unordered_map<TupleDigest, bool> tainted;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [digest, recs] : decoded) {
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
