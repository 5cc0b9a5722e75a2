// Durable offline-provenance archive: an append-only framed record log on a
// PageFile.
//
// Layout (all framed, see `FrameType`):
//
//   [header] [string|record]*
//
// Every frame is `[u8 type][varint payload_len][payload][u64 fnv1a(payload)]`.
// The header is magic + version. Strings (predicates, rule labels,
// principals) are interned: the first occurrence appends a kString frame and
// subsequent records reference it by id, so the hot names in a fixpoint run
// are stored once per archive. Records are varint-encoded with id-interned
// strings and raw Value serialization — typically a third of
// ProvRecord::Serialize.
//
// Nothing is ever removed: the archive keeps every record the run appended.
// Recovery replays the log and truncates a torn final frame (checksum or
// length mismatch) at the tail. A log whose intact header names another
// format version is refused and left untouched.
//
// The in-memory footprint is the slot index (offset/len/digest/time per
// record) plus the PageFile's resident pages: the whole log in memory, only
// the page being filled on disk. Records themselves are decoded on demand,
// which is what drops full-provenance RSS.
#ifndef PROVNET_STORE_ARCHIVE_H_
#define PROVNET_STORE_ARCHIVE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "provenance/store.h"
#include "store/pagefile.h"
#include "util/status.h"

namespace provnet::store {

class ProvArchive {
 public:
  // Unopened: empty, holding no page, and every lookup answers empty.
  ProvArchive() = default;

  ProvArchive(const ProvArchive&) = delete;
  ProvArchive& operator=(const ProvArchive&) = delete;

  // Opens (or creates) the archive at `path`; "" keeps it memory-resident.
  // An existing log is replayed to rebuild the index; a torn tail is
  // truncated away and recovery proceeds with every intact frame. A log of
  // another format version fails with FailedPreconditionError, unmodified.
  Status Open(const std::string& path);

  // Appends one record frame (interning any new strings first), indexed
  // under `digest`, the caller's DigestOf(record.tuple).
  void Add(const ProvRecord& record, TupleDigest digest);

  // Decoded records, in append order (matching the pre-archive in-memory
  // store's iteration order byte-for-byte).
  std::vector<ProvRecord> FindByDigest(TupleDigest digest) const;
  // Records created in [from, to).
  std::vector<ProvRecord> FindInWindow(double from, double to) const;

  size_t size() const { return slots_.size(); }

  Status Flush() { return file_.Flush(); }
  // Fail-stop crash: drops the unflushed tail and releases the backing
  // file so a restart can re-open (and recover) the archive at `path`.
  void Abandon() { file_.Abandon(); }
  uint64_t DiskBytes() const { return file_.DiskBytes(); }
  bool on_disk() const { return file_.on_disk(); }

  // Page reads/writes since the last call.
  ArchiveIo TakeIo() const { return file_.TakeIo(); }

 private:
  // One index entry per record frame in the log.
  struct Slot {
    uint64_t offset = 0;  // payload offset in the page file
    uint32_t len = 0;     // payload length
    TupleDigest digest = 0;
    double created_at = 0.0;
  };

  uint32_t InternString(const std::string& s);
  // Appends one frame to the log, reporting where the payload landed when
  // the caller indexes it.
  void AppendFrame(uint8_t type, const uint8_t* payload, size_t len,
                   uint64_t* payload_offset);
  // Appends the magic + version header frame.
  void AppendHeader();
  void EncodeRecord(const ProvRecord& record, ByteWriter& out);
  Result<ProvRecord> DecodeRecord(const uint8_t* data, size_t len) const;
  Result<ProvRecord> DecodeSlot(const Slot& slot) const;
  // Indexes one record frame whose payload starts at `offset`.
  void IndexRecord(TupleDigest digest, double created_at, uint64_t offset,
                   size_t len);
  // Replays every intact frame of an existing log in one front-to-back
  // pass that reads each written page once, truncating a torn tail (or
  // refusing a log of another version before touching it).
  Status Replay();

  PageFile file_;
  // Encode buffers reused across appends: a record's payload, and the frame
  // around it (string frames are framed while a payload is being encoded).
  ByteWriter payload_;
  ByteWriter frame_;

  std::vector<std::string> strings_;
  std::unordered_map<std::string, uint32_t> string_ids_;

  std::vector<Slot> slots_;
  std::unordered_map<TupleDigest, std::vector<size_t>> by_digest_;
};

}  // namespace provnet::store

#endif  // PROVNET_STORE_ARCHIVE_H_
