// Fixed-size-page byte log: the I/O layer under the durable provenance
// archive (src/store/archive.*).
//
// The log is append-only at record granularity but all I/O happens in page
// units of kPageBytes. Resident pages sit in one vector. With an empty path
// that vector is the log itself — every node's in-memory archive — so disk
// is an option, not a requirement. On disk the vector holds only the page
// being filled: a page that fills is written to the backing file and leaves
// memory, and the partial page is written on Flush. Reads of written pages
// go to the file, uncached (the OS page cache does that job).
//
// Durability contract: everything up to the last Flush() survives a crash;
// a torn tail (partial final record from a mid-write kill) is the archive
// layer's problem to detect (per-record checksums) and ours to truncate
// away (TruncateTo).
#ifndef PROVNET_STORE_PAGEFILE_H_
#define PROVNET_STORE_PAGEFILE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace provnet::store {

// Page reads/writes since the last TakeIo() — the archive's registry
// counters are fed from these deltas at engine choke points.
struct ArchiveIo {
  uint64_t page_reads = 0;   // written pages read back from the backing file
  uint64_t page_writes = 0;  // pages written through to the backing file
};

class PageFile {
 public:
  static constexpr size_t kPageBytes = 4096;

  PageFile() = default;
  ~PageFile();

  PageFile(const PageFile&) = delete;
  PageFile& operator=(const PageFile&) = delete;

  // Opens `path` (resuming an existing log byte-for-byte) or, with an empty
  // path, starts a resident in-memory log. Callable once per instance.
  Status Open(const std::string& path);

  bool on_disk() const { return file_ != nullptr; }
  uint64_t end_offset() const { return end_offset_; }

  // Appends `len` bytes, returning the offset they start at. On disk, each
  // page that fills is written through at once; the partial page stays
  // resident until Flush() or until it fills.
  uint64_t Append(const uint8_t* data, size_t len);

  // Reads `len` bytes at `offset` into `out`, which has room for them.
  // False when the range is outside the log or the file read fails.
  bool Read(uint64_t offset, size_t len, uint8_t* out) const;
  // As above, replacing the contents of `out`.
  bool Read(uint64_t offset, size_t len, Bytes* out) const;

  // Writes the partial page through to the backing file. No-op in memory
  // mode and when nothing changed since the last write.
  Status Flush();

  // Closes the backing file WITHOUT flushing the partial page — simulating
  // a fail-stop crash that tears off everything since the last Flush().
  // Pages already written through survive in the file; the instance is left
  // an empty memory log and should be discarded.
  void Abandon();

  // Drops everything at and after `offset` (recovery truncating a torn
  // tail). Requires offset <= end_offset().
  Status TruncateTo(uint64_t offset);

  // Bytes in the backing file (0 in memory mode): the "archive bytes on
  // disk" number the benches report.
  uint64_t DiskBytes() const;

  // Accounted resident footprint: every page (memory mode) or the page
  // being filled (disk mode). Charged to obs MemSubsystem::kArchivePages.
  size_t ResidentBytes() const { return resident_bytes_; }

  ArchiveIo TakeIo() const {
    ArchiveIo out = io_;
    io_ = ArchiveIo{};
    return out;
  }

 private:
  // Resident pages are charged to kArchivePages when added and released
  // when dropped.
  void AddPage();
  void DropLastPage();
  void DropPages();
  // Disk mode: writes the last resident page (log page first_page_).
  Status WritePage();
  // Disk mode: makes the file's partial last page the only resident one.
  Status LoadLastPage();

  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t end_offset_ = 0;

  // Resident pages, all full except the last; pages_[0] is log page
  // first_page_. Memory mode keeps every page (first_page_ stays 0); disk
  // mode keeps at most the page being filled.
  std::vector<Bytes> pages_;
  uint64_t first_page_ = 0;
  bool dirty_ = false;  // disk mode: the partial page is not yet in the file

  mutable ArchiveIo io_;
  size_t resident_bytes_ = 0;
};

}  // namespace provnet::store

#endif  // PROVNET_STORE_PAGEFILE_H_
