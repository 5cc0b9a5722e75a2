// Durable offline-provenance archive: an append-only framed record log on a
// PageFile.
//
// Layout (format version 3, all framed, see `FrameType`):
//
//   [header] [record]*
//
// Every frame is `[u8 type][varint payload_len][payload][u64 fnv1a(payload)]`.
// The header is magic + version. A record's payload is its
// ProvRecord::Serialize bytes, the encoding the online store keeps and a
// records response ships: the engine encodes each record once and both
// stores append those bytes, and an archive answer copies them into the
// response without decoding. Version 2 stored names as ids into interned
// string frames, about a quarter smaller; spelling them out grows the log by
// about a third, while the index below shrinks by more than the pages grow.
//
// Nothing is ever removed: the archive keeps every record the run appended.
// Recovery replays the log, decoding each record through the codec that
// guards the wire, and truncates at the first torn or undecodable frame
// (checksum or length mismatch, or a payload that is not exactly one
// record). A log whose intact header names another format version is
// refused and left untouched.
//
// The in-memory footprint is the slot index (offset, length, append-order
// link and time per record, plus one chain head per digest; charged to
// obs::MemSubsystem::kArchiveIndex) and the PageFile's resident pages: the
// whole log in memory, only the page being filled on disk. Records
// themselves are decoded on demand, which is what drops full-provenance RSS.
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
  ~ProvArchive();

  ProvArchive(const ProvArchive&) = delete;
  ProvArchive& operator=(const ProvArchive&) = delete;

  // Opens (or creates) the archive at `path`; "" keeps it memory-resident.
  // An existing log is replayed to rebuild the index; a torn tail is
  // truncated away and recovery proceeds with every intact frame. A log of
  // another format version fails with FailedPreconditionError, unmodified.
  Status Open(const std::string& path);

  // Appends one record frame whose payload is `data`, a record's
  // ProvRecord::Serialize bytes, indexed under `digest` (the caller's
  // DigestOf of the record's tuple) and `created_at`.
  void AddEncoded(const uint8_t* data, size_t len, double created_at,
                  TupleDigest digest);
  // Serializes `record` and appends it as AddEncoded does.
  void Add(const ProvRecord& record, TupleDigest digest);

  // Decoded records, in append order (matching the pre-archive in-memory
  // store's iteration order byte-for-byte).
  std::vector<ProvRecord> FindByDigest(TupleDigest digest) const;
  // Records created in [from, to).
  std::vector<ProvRecord> FindInWindow(double from, double to) const;

  // How many records `digest` has.
  uint32_t CountOf(TupleDigest digest) const;
  // Appends the stored bytes of `digest`'s records to `out`, in append
  // order: the encoding a records response ships.
  void AppendEncoded(TupleDigest digest, ByteWriter& out) const;

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
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // One index entry per record frame in the log.
  struct Slot {
    uint64_t offset = 0;      // payload offset in the page file
    uint32_t len = 0;         // payload length
    uint32_t next = kNoSlot;  // the same digest's next record
    double created_at = 0.0;
  };
  // A digest's records: the first and last slot of its chain.
  struct Chain {
    uint32_t first = kNoSlot;
    uint32_t last = kNoSlot;
  };

  // Appends one frame to the log, reporting where the payload landed when
  // the caller indexes it.
  void AppendFrame(uint8_t type, const uint8_t* payload, size_t len,
                   uint64_t* payload_offset);
  // Appends the magic + version header frame.
  void AppendHeader();
  Result<ProvRecord> DecodeSlot(const Slot& slot) const;
  // Indexes one record frame whose payload starts at `offset`.
  void IndexRecord(TupleDigest digest, double created_at, uint64_t offset,
                   size_t len);
  // Keeps index_bytes_ and the memory ledger in step with the index.
  void ChargeIndex(uint64_t now_bytes);
  // Replays every intact frame of an existing log in one front-to-back
  // pass that reads each written page once, truncating a torn tail (or
  // refusing a log of another version before touching it).
  Status Replay();

  PageFile file_;
  // Frame buffer reused across appends.
  ByteWriter frame_;

  std::vector<Slot> slots_;
  std::unordered_map<TupleDigest, Chain> by_digest_;
  // Slot capacity plus a per-digest estimate, as charged to the ledger.
  uint64_t index_bytes_ = 0;
};

}  // namespace provnet::store

#endif  // PROVNET_STORE_ARCHIVE_H_
