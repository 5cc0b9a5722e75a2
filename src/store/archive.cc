#include "store/archive.h"

#include <algorithm>
#include <utility>

#include "obs/mem.h"
#include "util/hash.h"
#include "util/logging.h"

namespace provnet::store {

namespace {

enum FrameType : uint8_t {
  kHeader = 0,  // magic + version
  kRecord = 2,  // one ProvRecord, its ProvRecord::Serialize bytes
};

constexpr const char* kMagic = "provarch";
// Bumped whenever a frame or record encoding changes, so a log written in
// another encoding fails the header check instead of being misparsed.
// Version 2 interned names in string frames (type 1).
constexpr uint64_t kVersion = 3;
// Frame trailer: 8-byte checksum.
constexpr size_t kChecksumBytes = 8;

uint64_t FrameChecksum(uint8_t type, const uint8_t* payload, size_t len) {
  // Mix the type in so a frame whose payload survives a torn write but
  // whose type byte flipped still fails verification.
  return Fnv1a64(payload, len) ^ (0x9E3779B97F4A7C15ull * (type + 1));
}

// A record payload is exactly one ProvRecord encoding, decoded by the codec
// that guards the wire.
Result<ProvRecord> DecodeRecord(const uint8_t* data, size_t len) {
  ByteReader in(data, len);
  PROVNET_ASSIGN_OR_RETURN(ProvRecord rec, ProvRecord::Deserialize(in));
  if (!in.AtEnd()) return InvalidArgumentError("trailing bytes after record");
  return rec;
}

}  // namespace

ProvArchive::~ProvArchive() { ChargeIndex(0); }

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
  ByteWriter header;
  header.PutString(kMagic);
  header.PutVarint(kVersion);
  AppendFrame(kHeader, header.bytes().data(), header.size(), nullptr);
}

Result<ProvRecord> ProvArchive::DecodeSlot(const Slot& slot) const {
  Bytes payload;
  if (!file_.Read(slot.offset, slot.len, &payload)) {
    return InternalError("archive payload read failed");
  }
  return DecodeRecord(payload.data(), payload.size());
}

void ProvArchive::ChargeIndex(uint64_t now_bytes) {
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  mem.Sub(obs::MemSubsystem::kArchiveIndex, index_bytes_);
  mem.Add(obs::MemSubsystem::kArchiveIndex, now_bytes);
  index_bytes_ = now_bytes;
}

void ProvArchive::IndexRecord(TupleDigest digest, double created_at,
                              uint64_t offset, size_t len) {
  PROVNET_CHECK(slots_.size() < kNoSlot) << "archive index is full";
  const uint32_t at = static_cast<uint32_t>(slots_.size());
  Slot slot;
  slot.offset = offset;
  slot.len = static_cast<uint32_t>(len);
  slot.created_at = created_at;
  slots_.push_back(slot);
  auto [it, fresh] = by_digest_.try_emplace(digest);
  Chain& chain = it->second;
  if (fresh) {
    chain.first = at;
  } else {
    slots_[chain.last].next = at;
  }
  chain.last = at;
  // Per-digest estimate: the hash-map node (next pointer, digest, chain)
  // plus its bucket slot.
  constexpr uint64_t kChainBytes =
      sizeof(decltype(by_digest_)::value_type) + 2 * sizeof(void*);
  ChargeIndex(slots_.capacity() * sizeof(Slot) +
              by_digest_.size() * kChainBytes);
}

void ProvArchive::AddEncoded(const uint8_t* data, size_t len,
                             double created_at, TupleDigest digest) {
  uint64_t offset = 0;
  AppendFrame(kRecord, data, len, &offset);
  IndexRecord(digest, created_at, offset, len);
}

void ProvArchive::Add(const ProvRecord& record, TupleDigest digest) {
  ByteWriter encoded;
  record.Serialize(encoded);
  AddEncoded(encoded.bytes().data(), encoded.size(), record.created_at,
             digest);
}

std::vector<ProvRecord> ProvArchive::FindByDigest(TupleDigest digest) const {
  std::vector<ProvRecord> out;
  auto it = by_digest_.find(digest);
  if (it == by_digest_.end()) return out;
  for (uint32_t i = it->second.first; i != kNoSlot; i = slots_[i].next) {
    Result<ProvRecord> rec = DecodeSlot(slots_[i]);
    if (rec.ok()) out.push_back(std::move(rec).value());
  }
  return out;
}

uint32_t ProvArchive::CountOf(TupleDigest digest) const {
  auto it = by_digest_.find(digest);
  if (it == by_digest_.end()) return 0;
  uint32_t count = 0;
  for (uint32_t i = it->second.first; i != kNoSlot; i = slots_[i].next) {
    ++count;
  }
  return count;
}

void ProvArchive::AppendEncoded(TupleDigest digest, ByteWriter& out) const {
  auto it = by_digest_.find(digest);
  if (it == by_digest_.end()) return;
  for (uint32_t i = it->second.first; i != kNoSlot; i = slots_[i].next) {
    const Slot& slot = slots_[i];
    const bool read = file_.Read(slot.offset, slot.len, out.Extend(slot.len));
    // Every slot indexes bytes this archive appended or replayed, so a read
    // that fails means the log changed under it.
    PROVNET_CHECK(read) << "archive record unreadable at offset "
                        << slot.offset;
  }
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
