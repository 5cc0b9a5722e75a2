// Fixed-size-page byte log: the I/O layer under the durable provenance
// archive (src/store/archive.*).
//
// The log is append-only at record granularity but all I/O happens in page
// units: writers buffer the tail page in memory and write pages through to
// the backing file as they fill (plus the partial tail on Flush), readers go
// through an LRU cache of decoded pages keyed by page index. With an empty
// path the "file" is a resident page vector — the same code path the tests
// and every node's default memory-resident archive use — so disk is an
// option, not a requirement.
//
// Durability contract: everything up to the last Flush() survives a crash;
// a torn tail (partial final record from a mid-write kill) is the archive
// layer's problem to detect (per-record checksums) and ours to truncate
// away (TruncateTo).
#ifndef PROVNET_STORE_PAGEFILE_H_
#define PROVNET_STORE_PAGEFILE_H_

#include <cstdint>
#include <cstdio>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace provnet::store {

struct PageFileOptions {
  size_t page_bytes = 4096;
  // LRU capacity of the read cache (on-disk mode only; the in-memory mode
  // is its own storage and needs no cache).
  size_t cache_pages = 64;
};

// Page reads/writes since the last TakeIo() — the archive's registry
// counters are fed from these deltas at engine choke points.
struct ArchiveIo {
  uint64_t page_reads = 0;   // cache misses served from the backing file
  uint64_t page_writes = 0;  // pages written through to the backing file
};

class PageFile {
 public:
  PageFile() = default;
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  // Opens `path` (resuming an existing log byte-for-byte) or, with an empty
  // path, starts a resident in-memory log. Callable once per instance.
  Status Open(const std::string& path, PageFileOptions options);

  bool on_disk() const { return file_ != nullptr; }
  uint64_t end_offset() const { return end_offset_; }
  size_t page_bytes() const { return options_.page_bytes; }

  // Appends `len` bytes, returning the offset they start at. Completed
  // pages are written through immediately; the tail stays buffered until
  // Flush() or until it fills.
  uint64_t Append(const uint8_t* data, size_t len);

  // Reads `len` bytes at `offset` into `out` (replacing its contents)
  // through the page cache. False when the range is outside the log.
  bool Read(uint64_t offset, size_t len, Bytes* out) const;

  // Writes the buffered tail page through to the backing file. No-op in
  // memory mode and when nothing changed since the last flush.
  Status Flush();

  // Closes the backing file WITHOUT flushing the buffered tail page —
  // simulating a fail-stop crash that tears off everything since the last
  // Flush(). Completed pages already written through survive; the instance
  // becomes memory-resident and should be discarded.
  void Abandon();

  // Drops everything at and after `offset` (recovery truncating a torn
  // tail). Requires offset <= end_offset().
  Status TruncateTo(uint64_t offset);

  // Bytes in the backing file (0 in memory mode): the "archive bytes on
  // disk" number the benches report.
  uint64_t DiskBytes() const;

  // Accounted resident footprint: page vector (memory mode) or tail buffer
  // + LRU cache (disk mode). Charged to obs MemSubsystem::kArchivePages.
  size_t ResidentBytes() const { return resident_bytes_; }

  ArchiveIo TakeIo() const {
    ArchiveIo out = io_;
    io_ = ArchiveIo{};
    return out;
  }

 private:
  // Page index holding `offset`.
  uint64_t PageOf(uint64_t offset) const { return offset / options_.page_bytes; }
  // Loads page `index` into the LRU cache (disk mode), returning its bytes.
  const Bytes* CachedPage(uint64_t index) const;
  void ChargeResident(size_t bytes) const;
  void ReleaseResident(size_t bytes) const;
  Status WritePage(uint64_t index, const Bytes& page);
  void DropCache() const;

  PageFileOptions options_;
  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t end_offset_ = 0;

  // Memory mode: the log itself, one entry per page (all full except the
  // last). Disk mode: only the tail page is resident here.
  std::vector<Bytes> pages_;
  Bytes tail_;
  uint64_t tail_index_ = 0;   // page index of tail_ (disk mode)
  bool tail_dirty_ = false;   // tail has bytes not yet in the file

  // Disk-mode read cache: page index -> bytes, LRU by recency list.
  mutable std::unordered_map<uint64_t, Bytes> cache_;
  mutable std::list<uint64_t> lru_;  // front = most recent
  mutable std::unordered_map<uint64_t, std::list<uint64_t>::iterator> lru_pos_;

  mutable ArchiveIo io_;
  mutable size_t resident_bytes_ = 0;
};

}  // namespace provnet::store

#endif  // PROVNET_STORE_PAGEFILE_H_
