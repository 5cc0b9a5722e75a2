#include "store/archive.h"

#include <algorithm>
#include <utility>

#include "util/hash.h"

namespace provnet::store {

namespace {

enum FrameType : uint8_t {
  kHeader = 0,  // magic + version
  kString = 1,  // interned string (id = arrival order)
  kRecord = 2,  // one ProvRecord, id-interned encoding
};

constexpr const char* kMagic = "provarch";
// Bumped whenever a frame or record encoding changes, so a log written in
// another encoding fails the header check instead of being misparsed.
constexpr uint64_t kVersion = 2;
// Frame trailer: 8-byte checksum.
constexpr size_t kChecksumBytes = 8;

uint64_t FrameChecksum(uint8_t type, const uint8_t* payload, size_t len) {
  // Mix the type in so a frame whose payload survives a torn write but
  // whose type byte flipped still fails verification.
  return Fnv1a64(payload, len) ^ (0x9E3779B97F4A7C15ull * (type + 1));
}

}  // namespace

Status ProvArchive::Open(const std::string& path) {
  PROVNET_RETURN_IF_ERROR(file_.Open(path));
  if (file_.end_offset() == 0) {
    AppendHeader();
    return OkStatus();
  }
  return Replay();
}

void ProvArchive::AppendFrame(uint8_t type, const uint8_t* payload,
                              size_t len, uint64_t* payload_offset) {
  frame_.Clear();
  frame_.PutU8(type);
  frame_.PutVarint(len);
  size_t header_len = frame_.size();
  frame_.PutRaw(payload, len);
  frame_.PutU64(FrameChecksum(type, payload, len));
  uint64_t at = file_.Append(frame_.bytes().data(), frame_.size());
  if (payload_offset != nullptr) *payload_offset = at + header_len;
}

void ProvArchive::AppendHeader() {
  payload_.Clear();
  payload_.PutString(kMagic);
  payload_.PutVarint(kVersion);
  AppendFrame(kHeader, payload_.bytes().data(), payload_.size(), nullptr);
}

uint32_t ProvArchive::InternString(const std::string& s) {
  auto it = string_ids_.find(s);
  if (it != string_ids_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.push_back(s);
  string_ids_.emplace(s, id);
  AppendFrame(kString, reinterpret_cast<const uint8_t*>(s.data()), s.size(),
              nullptr);
  return id;
}

void ProvArchive::EncodeRecord(const ProvRecord& record, ByteWriter& out) {
  // Strings are interned first so their frames precede this record's frame
  // in the log — replay then always resolves every id.
  out.PutVarint(InternString(record.tuple.predicate()));
  out.PutVarint(record.tuple.arity());
  for (const Value& v : record.tuple.args()) v.Serialize(out);
  out.PutVarint(InternString(record.rule));
  out.PutVarint(record.location);
  out.PutVarint(InternString(record.asserted_by));
  out.PutDouble(record.created_at);
  out.PutDouble(record.expires_at);
  out.PutVarint(record.children.size());
  for (const ProvChildRef& c : record.children) {
    out.PutVarint(c.node);
    out.PutU64(c.digest);
    out.PutU8(c.is_base ? 1 : 0);
    if (c.is_base) {
      out.PutVarint(InternString(c.base_tuple.predicate()));
      out.PutVarint(c.base_tuple.arity());
      for (const Value& v : c.base_tuple.args()) v.Serialize(out);
    }
    out.PutVarint(InternString(c.asserted_by));
  }
}

Result<ProvRecord> ProvArchive::DecodeRecord(const uint8_t* data,
                                             size_t len) const {
  ByteReader in(data, len);
  auto get_string = [this](uint64_t id) -> Result<std::string> {
    if (id >= strings_.size()) {
      return InvalidArgumentError("archive string id out of range");
    }
    return strings_[static_cast<size_t>(id)];
  };
  auto get_tuple = [&](ByteReader& r) -> Result<Tuple> {
    PROVNET_ASSIGN_OR_RETURN(uint64_t pred_id, r.GetVarint());
    PROVNET_ASSIGN_OR_RETURN(std::string pred, get_string(pred_id));
    PROVNET_ASSIGN_OR_RETURN(uint64_t arity, r.GetVarint());
    if (arity > r.remaining()) return InvalidArgumentError("bad arity");
    std::vector<Value> args;
    args.reserve(static_cast<size_t>(arity));
    for (uint64_t i = 0; i < arity; ++i) {
      PROVNET_ASSIGN_OR_RETURN(Value v, Value::Deserialize(r));
      args.push_back(std::move(v));
    }
    return Tuple(std::move(pred), std::move(args));
  };

  ProvRecord rec;
  PROVNET_ASSIGN_OR_RETURN(rec.tuple, get_tuple(in));
  PROVNET_ASSIGN_OR_RETURN(uint64_t rule_id, in.GetVarint());
  PROVNET_ASSIGN_OR_RETURN(rec.rule, get_string(rule_id));
  PROVNET_ASSIGN_OR_RETURN(uint64_t location, in.GetVarint());
  rec.location = static_cast<NodeId>(location);
  PROVNET_ASSIGN_OR_RETURN(uint64_t asserted_id, in.GetVarint());
  PROVNET_ASSIGN_OR_RETURN(rec.asserted_by, get_string(asserted_id));
  PROVNET_ASSIGN_OR_RETURN(rec.created_at, in.GetDouble());
  PROVNET_ASSIGN_OR_RETURN(rec.expires_at, in.GetDouble());
  PROVNET_ASSIGN_OR_RETURN(uint64_t n, in.GetVarint());
  if (n > in.remaining()) return InvalidArgumentError("too many children");
  for (uint64_t i = 0; i < n; ++i) {
    ProvChildRef ref;
    PROVNET_ASSIGN_OR_RETURN(uint64_t node, in.GetVarint());
    ref.node = static_cast<NodeId>(node);
    PROVNET_ASSIGN_OR_RETURN(ref.digest, in.GetU64());
    PROVNET_ASSIGN_OR_RETURN(uint8_t base, in.GetU8());
    ref.is_base = base != 0;
    if (ref.is_base) {
      PROVNET_ASSIGN_OR_RETURN(ref.base_tuple, get_tuple(in));
    }
    PROVNET_ASSIGN_OR_RETURN(uint64_t child_asserted, in.GetVarint());
    PROVNET_ASSIGN_OR_RETURN(ref.asserted_by, get_string(child_asserted));
    rec.children.push_back(std::move(ref));
  }
  return rec;
}

Result<ProvRecord> ProvArchive::DecodeSlot(const Slot& slot) const {
  Bytes payload;
  if (!file_.Read(slot.offset, slot.len, &payload)) {
    return InternalError("archive payload read failed");
  }
  return DecodeRecord(payload.data(), payload.size());
}

void ProvArchive::IndexRecord(TupleDigest digest, double created_at,
                              uint64_t offset, size_t len) {
  Slot slot;
  slot.offset = offset;
  slot.len = static_cast<uint32_t>(len);
  slot.digest = digest;
  slot.created_at = created_at;
  by_digest_[digest].push_back(slots_.size());
  slots_.push_back(slot);
}

void ProvArchive::Add(const ProvRecord& record, TupleDigest digest) {
  payload_.Clear();
  EncodeRecord(record, payload_);
  uint64_t offset = 0;
  AppendFrame(kRecord, payload_.bytes().data(), payload_.size(), &offset);
  IndexRecord(digest, record.created_at, offset, payload_.size());
}

std::vector<ProvRecord> ProvArchive::FindByDigest(TupleDigest digest) const {
  std::vector<ProvRecord> out;
  auto it = by_digest_.find(digest);
  if (it == by_digest_.end()) return out;
  for (size_t idx : it->second) {
    Result<ProvRecord> rec = DecodeSlot(slots_[idx]);
    if (rec.ok()) out.push_back(std::move(rec).value());
  }
  return out;
}

std::vector<ProvRecord> ProvArchive::FindInWindow(double from,
                                                  double to) const {
  std::vector<ProvRecord> out;
  for (const Slot& slot : slots_) {
    if (slot.created_at < from || slot.created_at >= to) continue;
    Result<ProvRecord> rec = DecodeSlot(slot);
    if (rec.ok()) out.push_back(std::move(rec).value());
  }
  return out;
}

Status ProvArchive::Replay() {
  constexpr uint64_t kPage = PageFile::kPageBytes;
  const uint64_t end = file_.end_offset();
  // One pass, front to back: `window` holds log bytes [window_at,
  // window_at + window.size()), read a page at a time, and keeps only what
  // the frame at `pos` still needs. Each written page is read once.
  Bytes window;
  uint64_t window_at = 0;
  uint64_t pos = 0;
  auto cover = [&](uint64_t to) {  // makes [pos, to) resident
    uint64_t have = window_at + window.size();
    if (to <= have) return true;
    window.erase(window.begin(),
                 window.begin() + static_cast<long>(pos - window_at));
    window_at = pos;
    uint64_t upto = std::min(end, (to + kPage - 1) / kPage * kPage);
    Bytes pages;
    if (!file_.Read(have, static_cast<size_t>(upto - have), &pages)) {
      return false;
    }
    window.insert(window.end(), pages.begin(), pages.end());
    return true;
  };
  bool saw_header = false;
  while (pos < end) {
    // Frame header: type byte + length varint (at most 1 + 10 bytes).
    if (!cover(std::min<uint64_t>(pos + 11, end))) break;
    ByteReader hr(window.data() + (pos - window_at),
                  static_cast<size_t>(window_at + window.size() - pos));
    Result<uint8_t> type = hr.GetU8();
    Result<uint64_t> len = type.ok() ? hr.GetVarint() : Result<uint64_t>(
                                           InvalidArgumentError("no header"));
    if (!type.ok() || !len.ok()) break;
    uint64_t payload_at = pos + hr.position();
    if (*len > end - payload_at || end - payload_at - *len < kChecksumBytes) {
      break;  // torn tail: frame extends past the log
    }
    uint64_t frame_end = payload_at + *len + kChecksumBytes;
    if (!cover(frame_end)) break;
    const uint8_t* body = window.data() + (payload_at - window_at);
    const size_t body_len = static_cast<size_t>(*len);
    ByteReader cr(body + body_len, kChecksumBytes);
    Result<uint64_t> stored = cr.GetU64();
    if (!stored.ok() ||
        *stored != FrameChecksum(*type, body, body_len)) {
      break;  // torn or corrupt frame
    }
    ByteReader pr(body, body_len);
    if (!saw_header && *type != kHeader) break;  // header must come first
    bool ok = true;
    switch (*type) {
      case kHeader: {
        Result<std::string> magic = pr.GetString();
        ok = magic.ok() && *magic == kMagic;
        if (ok) {
          Result<uint64_t> version = pr.GetVarint();
          ok = version.ok();
          if (ok && *version != kVersion) {
            // An intact log of another format: refuse it and leave the
            // file as it is, rather than truncate records this build
            // cannot read.
            return FailedPreconditionError(
                "archive log has format version " + std::to_string(*version) +
                ", this build reads " + std::to_string(kVersion));
          }
        }
        saw_header = ok;
        break;
      }
      case kString: {
        std::string s(body, body + body_len);
        uint32_t id = static_cast<uint32_t>(strings_.size());
        strings_.push_back(s);
        string_ids_.emplace(std::move(s), id);
        break;
      }
      case kRecord: {
        Result<ProvRecord> rec = DecodeRecord(body, body_len);
        ok = rec.ok();
        if (ok) {
          IndexRecord(DigestOf(rec->tuple), rec->created_at, payload_at,
                      body_len);
        }
        break;
      }
      default:
        ok = false;
    }
    if (!ok) break;  // undecodable frame: treat like a torn tail
    pos = frame_end;
  }
  // Drop everything from the first bad frame on. If even the header was
  // unreadable (a log torn or corrupt at birth) the archive restarts empty.
  PROVNET_RETURN_IF_ERROR(file_.TruncateTo(pos));
  if (!saw_header) AppendHeader();
  return OkStatus();
}

}  // namespace provnet::store
