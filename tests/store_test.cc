// Durable provenance store (ISSUE 9): the paged byte log, the framed
// archive on top of it, the hash-consed derivation arena, and the engine's
// end-to-end crash recovery.
//
// The oracles:
//   * byte-log     - PageFile round-trips appended bytes through the page
//     boundary, survives a reopen byte-for-byte, and truncates; a disk log
//     keeps only the page being filled, writing each full page once and
//     reading written pages back from the file;
//   * archive      - ProvArchive decodes records identical (serialized
//     bytes) to what was added, replays every record on reopen,
//     truncates a torn tail instead of failing recovery (a checksummed
//     frame that is not exactly one record is torn too), and refuses a log
//     of another format version without touching it;
//   * online       - after a cold pointer-provenance fixpoint, every node's
//     online records decode to exactly the records its archive holds, and
//     both stores keep the same bytes for every digest;
//   * arena        - Canonical() interns structurally-equal derivations to
//     one id, the expression/count/wire/annotation/decode caches answer
//     what was put in them and nothing else;
//   * crash        - a full-provenance engine restarted over its archive
//     directory answers the same distributed provenance query with
//     byte-identical ProofDag CanonicalBytes, without re-running the
//     protocol — even when the log tail was torn mid-frame.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "apps/programs.h"
#include "core/engine.h"
#include "net/topology.h"
#include "obs/mem.h"
#include "provenance/derivation.h"
#include "provenance/semiring.h"
#include "provenance/store.h"
#include "query/provquery.h"
#include "store/archive.h"
#include "store/arena.h"
#include "store/pagefile.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/random.h"

namespace provnet {
namespace {

namespace fs = std::filesystem;

// Fresh scratch directory per test, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() /
              ("provnet_store_test_" + name + "_" +
               std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string File(const std::string& leaf) const {
    return (path_ / leaf).string();
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

Bytes Payload(uint8_t tag, size_t len) {
  Bytes out(len);
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>(tag + i * 7);
  }
  return out;
}

// --- PageFile ---------------------------------------------------------------

constexpr size_t kPageBytes = store::PageFile::kPageBytes;

TEST(PageFileTest, MemoryModeRoundTripsAcrossPageBoundaries) {
  store::PageFile file;
  ASSERT_TRUE(file.Open("").ok());
  EXPECT_FALSE(file.on_disk());

  std::vector<std::pair<uint64_t, Bytes>> written;
  for (uint8_t i = 0; i < 10; ++i) {
    // Lengths straddle the pages: 0.6 to 1.3 pages each.
    Bytes b = Payload(i, kPageBytes / 2 + 400 + i * 331);
    written.emplace_back(file.Append(b.data(), b.size()), b);
  }
  EXPECT_EQ(file.end_offset(), written.back().first + written.back().second.size());

  for (const auto& [off, bytes] : written) {
    Bytes back;
    ASSERT_TRUE(file.Read(off, bytes.size(), &back));
    EXPECT_EQ(back, bytes);
  }
  // Out-of-range reads fail instead of fabricating bytes.
  Bytes back;
  EXPECT_FALSE(file.Read(file.end_offset(), 1, &back));
  EXPECT_EQ(file.DiskBytes(), 0u);  // memory mode never touches disk
}

TEST(PageFileTest, DiskModePersistsAcrossReopen) {
  TempDir dir("pagefile_reopen");
  const std::string path = dir.File("log.pages");
  // a ends inside page 0; b straddles pages 0-2.
  Bytes a = Payload(1, kPageBytes - 500), b = Payload(2, 2 * kPageBytes);
  uint64_t off_a, off_b, end;
  {
    store::PageFile file;
    ASSERT_TRUE(file.Open(path).ok());
    EXPECT_TRUE(file.on_disk());
    off_a = file.Append(a.data(), a.size());
    off_b = file.Append(b.data(), b.size());
    end = file.end_offset();
    ASSERT_TRUE(file.Flush().ok());
    EXPECT_GT(file.DiskBytes(), 0u);
  }
  store::PageFile file;
  ASSERT_TRUE(file.Open(path).ok());
  EXPECT_EQ(file.end_offset(), end);  // resumes exactly where it stopped
  Bytes back;
  ASSERT_TRUE(file.Read(off_a, a.size(), &back));
  EXPECT_EQ(back, a);
  ASSERT_TRUE(file.Read(off_b, b.size(), &back));
  EXPECT_EQ(back, b);
  // And appending after a reopen keeps the log consistent, across the next
  // page boundary too.
  Bytes c = Payload(3, kPageBytes);
  uint64_t off_c = file.Append(c.data(), c.size());
  ASSERT_TRUE(file.Read(off_c, c.size(), &back));
  EXPECT_EQ(back, c);
}

// A disk log keeps only the page being filled: each page is written through
// once as it fills, leaves memory, and is read back from the file — before
// and after a reopen.
TEST(PageFileTest, DiskLogKeepsOnlyThePageBeingFilled) {
  // One page's charge: what a memory log holding a single page accounts.
  store::PageFile one;
  ASSERT_TRUE(one.Open("").ok());
  const uint8_t byte = 0;
  one.Append(&byte, 1);
  const size_t one_page = one.ResidentBytes();
  ASSERT_GT(one_page, 0u);

  TempDir dir("pagefile_one_page");
  const std::string path = dir.File("log.pages");
  std::vector<std::pair<uint64_t, Bytes>> written;
  // Appends `count` payloads of 777 bytes (straddling the page boundaries),
  // expecting one page write per page filled.
  auto append = [&](store::PageFile& file, int count) {
    uint64_t full_before = file.end_offset() / kPageBytes;
    for (int i = 0; i < count; ++i) {
      Bytes b = Payload(static_cast<uint8_t>(written.size()), 777);
      written.emplace_back(file.Append(b.data(), b.size()), b);
      EXPECT_LE(file.ResidentBytes(), one_page);
    }
    EXPECT_EQ(file.TakeIo().page_writes,
              file.end_offset() / kPageBytes - full_before);
  };
  // Reads every range appended so far back, from the file or the page
  // being filled.
  auto read_all = [&](const store::PageFile& file) {
    for (const auto& [off, bytes] : written) {
      Bytes back;
      ASSERT_TRUE(file.Read(off, bytes.size(), &back));
      EXPECT_EQ(back, bytes);
      EXPECT_LE(file.ResidentBytes(), one_page);
    }
    EXPECT_GT(file.TakeIo().page_reads, 0u);
  };

  {
    store::PageFile file;
    ASSERT_TRUE(file.Open(path).ok());
    append(file, 30);
    ASSERT_GE(file.end_offset(), 5 * kPageBytes);
    read_all(file);
    ASSERT_TRUE(file.Flush().ok());
    EXPECT_EQ(file.TakeIo().page_writes, 1u);  // the partial page
  }
  store::PageFile file;
  ASSERT_TRUE(file.Open(path).ok());
  EXPECT_LE(file.ResidentBytes(), one_page);
  read_all(file);
  append(file, 20);
  read_all(file);
}

TEST(PageFileTest, TruncateToDropsTail) {
  store::PageFile file;
  ASSERT_TRUE(file.Open("").ok());
  // a straddles pages 0-1; b straddles pages 1-2.
  Bytes a = Payload(1, kPageBytes + 500), b = Payload(2, kPageBytes + 500);
  uint64_t off_a = file.Append(a.data(), a.size());
  uint64_t off_b = file.Append(b.data(), b.size());
  ASSERT_TRUE(file.TruncateTo(off_b).ok());
  EXPECT_EQ(file.end_offset(), off_b);
  Bytes back;
  ASSERT_TRUE(file.Read(off_a, a.size(), &back));
  EXPECT_EQ(back, a);
  EXPECT_FALSE(file.Read(off_b, b.size(), &back));  // gone
  // The truncated region is reusable.
  Bytes c = Payload(3, kPageBytes);
  uint64_t off_c = file.Append(c.data(), c.size());
  EXPECT_EQ(off_c, off_b);
  ASSERT_TRUE(file.Read(off_c, c.size(), &back));
  EXPECT_EQ(back, c);
}

// --- ProvArchive ------------------------------------------------------------

ProvRecord MakeRecord(const Tuple& t, const std::string& rule, NodeId loc,
                      const Principal& who, double created) {
  ProvRecord rec;
  rec.tuple = t;
  rec.rule = rule;
  rec.location = loc;
  rec.asserted_by = who;
  rec.created_at = created;
  return rec;
}

Bytes RecordBytes(const ProvRecord& rec) {
  ByteWriter w;
  rec.Serialize(w);
  return w.bytes();
}

// The archive must reproduce records *byte-for-byte*, not just field-wise:
// ProofDag identity across restarts depends on it.
void ExpectSameRecords(const std::vector<ProvRecord>& got,
                       const std::vector<ProvRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(RecordBytes(got[i]), RecordBytes(want[i])) << "record " << i;
  }
}

// Records the reopen and torn-tail tests write: about 6 KB of frames, so
// each log spans at least two pages and replay crosses a page boundary.
constexpr size_t kLogRecords = 150;

// Asserts the log at `path` spans at least two pages.
void ExpectSpansTwoPages(const std::string& path) {
  EXPECT_GT(fs::file_size(path), kPageBytes);
}

TEST(ProvArchiveTest, RoundTripsAllQueryAxes) {
  store::ProvArchive archive;
  ASSERT_TRUE(archive.Open("").ok());

  Tuple ta("link", {Value::Address(0), Value::Address(1)});
  Tuple tb("bestPath", {Value::Address(0), Value::Address(2)});
  ProvRecord ra = MakeRecord(ta, "base", 0, "n0", 1.0);
  ProvRecord rb1 = MakeRecord(tb, "sp2", 0, "n0", 2.0);
  ProvRecord rb2 = MakeRecord(tb, "sp2", 0, "n1", 3.0);
  // One record with a remote child ref, to exercise child encoding.
  ProvChildRef ref;
  ref.node = 1;
  ref.digest = DigestOf(ta);
  ref.asserted_by = "n1";
  rb2.children.push_back(ref);

  archive.Add(ra, DigestOf(ta));
  archive.Add(rb1, DigestOf(tb));
  archive.Add(rb2, DigestOf(tb));
  EXPECT_EQ(archive.size(), 3u);

  ExpectSameRecords(archive.FindByDigest(DigestOf(ta)), {ra});
  ExpectSameRecords(archive.FindByDigest(DigestOf(tb)), {rb1, rb2});
  ExpectSameRecords(archive.FindInWindow(1.5, 2.5), {rb1});
  EXPECT_TRUE(archive.FindByDigest(0xdeadbeef).empty());
}

TEST(ProvArchiveTest, ReopenReplaysRecords) {
  TempDir dir("archive_reopen");
  const std::string path = dir.File("node0.prov");
  Tuple early("early", {Value::Int(2)});
  Tuple late("late", {Value::Int(1)});
  Tuple other("other", {Value::Int(3)});
  std::vector<ProvRecord> want_early, want_late;
  {
    store::ProvArchive archive;
    ASSERT_TRUE(archive.Open(path).ok());
    archive.Add(MakeRecord(early, "r", 0, "a", 1.0), DigestOf(early));
    archive.Add(MakeRecord(other, "r", 0, "a", 1.5), DigestOf(other));
    // Filler records after the query window, so `late` lands pages after
    // `early`.
    for (size_t i = 0; i < kLogRecords; ++i) {
      Tuple filler("filler", {Value::Int(static_cast<int64_t>(i))});
      archive.Add(MakeRecord(filler, "r", 0, "a", 10.0 + i), DigestOf(filler));
    }
    archive.Add(MakeRecord(late, "r", 0, "a", 9.0), DigestOf(late));
    ASSERT_TRUE(archive.Flush().ok());
    // Fingerprint what the live archive answers: replay must reproduce
    // exactly this.
    want_early = archive.FindByDigest(DigestOf(early));
    want_late = archive.FindByDigest(DigestOf(late));
    EXPECT_EQ(archive.size(), 3u + kLogRecords);
  }
  ExpectSpansTwoPages(path);
  store::ProvArchive archive;
  ASSERT_TRUE(archive.Open(path).ok());
  EXPECT_EQ(archive.size(), 3u + kLogRecords);
  ExpectSameRecords(archive.FindByDigest(DigestOf(late)), want_late);
  ExpectSameRecords(archive.FindByDigest(DigestOf(early)), want_early);
  EXPECT_EQ(archive.FindInWindow(0.0, 5.0).size(), 2u);  // times replayed too
}

TEST(ProvArchiveTest, ReplayReadsEachWrittenPageOnce) {
  TempDir dir("archive_replay_reads");
  const std::string path = dir.File("node0.prov");
  constexpr size_t kRecords = 800;
  {
    store::ProvArchive archive;
    ASSERT_TRUE(archive.Open(path).ok());
    for (size_t i = 0; i < kRecords; ++i) {
      Tuple t("filler", {Value::Int(static_cast<int64_t>(i))});
      archive.Add(MakeRecord(t, "r", 0, "a", 1.0 + i), DigestOf(t));
    }
    ASSERT_TRUE(archive.Flush().ok());
  }
  const uint64_t full_pages = fs::file_size(path) / kPageBytes;
  ASSERT_GE(full_pages, 5u);

  store::ProvArchive archive;
  ASSERT_TRUE(archive.Open(path).ok());
  EXPECT_LE(archive.TakeIo().page_reads, full_pages);
  EXPECT_EQ(archive.size(), kRecords);
  EXPECT_EQ(archive.FindInWindow(0.0, 1.0e9).size(), kRecords);
}

// The slot index and digest chains are charged to archive_index while the
// archive lives, and released with it.
TEST(ProvArchiveTest, IndexIsChargedToTheLedgerUntilDestroyed) {
  obs::MemAccounting& mem = obs::MemAccounting::Global();
  mem.Reset();
  mem.Enable();
  const obs::MemSubsystem kIndex = obs::MemSubsystem::kArchiveIndex;
  {
    store::ProvArchive archive;
    ASSERT_TRUE(archive.Open("").ok());
    uint64_t charged = 0;
    for (size_t i = 0; i < kLogRecords; ++i) {
      Tuple t("x", {Value::Int(static_cast<int64_t>(i % 10))});
      archive.Add(MakeRecord(t, "r", 0, "a", 1.0), DigestOf(t));
      EXPECT_GE(mem.CurrentBytes(kIndex), charged);  // grows, never shrinks
      charged = mem.CurrentBytes(kIndex);
    }
    EXPECT_GT(charged, 0u);
  }
  EXPECT_EQ(mem.CurrentBytes(kIndex), 0u);
  EXPECT_GT(mem.PeakBytes(kIndex), 0u);
  mem.Reset();
  mem.Disable();
}

// Append raw garbage to a finished log: a crash mid-frame leaves exactly
// this shape (intact prefix + partial frame).
void TearTail(const std::string& path, const Bytes& garbage) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(garbage.data(), 1, garbage.size(), f), garbage.size());
  std::fclose(f);
}

TEST(ProvArchiveTest, TornTailGarbageIsTruncatedOnRecovery) {
  TempDir dir("archive_torn_garbage");
  const std::string path = dir.File("node0.prov");
  Tuple t("x", {Value::Int(7)});
  std::vector<ProvRecord> want;
  {
    store::ProvArchive archive;
    ASSERT_TRUE(archive.Open(path).ok());
    for (size_t i = 0; i < kLogRecords; ++i) {
      ProvRecord rec = MakeRecord(t, "r", 0, "a", 1.0 + i);
      archive.Add(rec, DigestOf(t));
      want.push_back(rec);
    }
    ASSERT_TRUE(archive.Flush().ok());
  }
  ExpectSpansTwoPages(path);
  TearTail(path, Payload(0xEE, 11));  // half-written frame at the tail

  store::ProvArchive archive;
  ASSERT_TRUE(archive.Open(path).ok());            // recovery, not error
  EXPECT_EQ(archive.size(), kLogRecords);          // intact prefix whole
  ExpectSameRecords(archive.FindByDigest(DigestOf(t)), want);
  // The archive is writable again after recovery.
  archive.Add(MakeRecord(t, "r", 0, "a", 9.0), DigestOf(t));
  EXPECT_EQ(archive.size(), kLogRecords + 1);
}

TEST(ProvArchiveTest, TornFinalRecordIsDroppedNotFatal) {
  TempDir dir("archive_torn_record");
  const std::string path = dir.File("node0.prov");
  Tuple t("x", {Value::Int(7)});
  {
    store::ProvArchive archive;
    ASSERT_TRUE(archive.Open(path).ok());
    for (size_t i = 0; i < kLogRecords; ++i) {
      archive.Add(MakeRecord(t, "r", 0, "a", 1.0 + i), DigestOf(t));
    }
    ASSERT_TRUE(archive.Flush().ok());
  }
  ExpectSpansTwoPages(path);
  // Chop bytes off the last frame's checksum: the record is torn.
  fs::resize_file(path, fs::file_size(path) - 3);

  store::ProvArchive archive;
  ASSERT_TRUE(archive.Open(path).ok());
  EXPECT_EQ(archive.size(), kLogRecords - 1);  // every intact record survives
  EXPECT_EQ(archive.FindByDigest(DigestOf(t)).size(), kLogRecords - 1);
}

TEST(ProvArchiveTest, FrameLengthPastTheEndOfTheLogIsATornTail) {
  TempDir dir("archive_huge_length");
  const std::string path = dir.File("node0.prov");
  Tuple t("x", {Value::Int(7)});
  {
    store::ProvArchive archive;
    ASSERT_TRUE(archive.Open(path).ok());
    archive.Add(MakeRecord(t, "r", 0, "a", 1.0), DigestOf(t));
    ASSERT_TRUE(archive.Flush().ok());
  }
  const uint64_t intact = fs::file_size(path);
  // A frame whose length varint is so large that its end offset wraps past
  // 2^64 back into the log.
  ByteWriter torn;
  torn.PutU8(1);
  torn.PutVarint(~uint64_t{0} - 8 - intact);
  torn.PutRaw(Payload(0x11, 32).data(), 32);
  TearTail(path, torn.bytes());

  store::ProvArchive archive;
  ASSERT_TRUE(archive.Open(path).ok());
  EXPECT_EQ(archive.size(), 1u);
  EXPECT_EQ(fs::file_size(path), intact);
}

// One archive frame, `[u8 type][varint len][payload][u64 checksum]`, with a
// checksum that verifies.
Bytes Frame(uint8_t type, const Bytes& payload) {
  ByteWriter frame;
  frame.PutU8(type);
  frame.PutVarint(payload.size());
  frame.PutRaw(payload.data(), payload.size());
  frame.PutU64(Fnv1a64(payload) ^ (0x9E3779B97F4A7C15ull * (type + 1)));
  return frame.bytes();
}

TEST(ProvArchiveTest, LogOfAnotherVersionIsRefusedAndKeptIntact) {
  TempDir dir("archive_other_version");
  const std::string path = dir.File("node0.prov");
  // Version 2 is the format that interned names in string frames.
  for (uint64_t version : {1, 2}) {
    SCOPED_TRACE(::testing::Message() << "version " << version);
    // An intact header frame — right magic, good checksum — naming another
    // format version.
    ByteWriter payload;
    payload.PutString("provarch");
    payload.PutVarint(version);
    const Bytes log = Frame(0, payload.bytes());
    ASSERT_EQ(log.size(), 20u);
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(log.data(), 1, log.size(), f), log.size());
      std::fclose(f);
    }

    {
      store::ProvArchive archive;
      Status opened = archive.Open(path);
      EXPECT_EQ(opened.code(), StatusCode::kFailedPrecondition) << opened;
    }
    // Refused, not recovered: the log keeps every byte it had.
    ASSERT_EQ(fs::file_size(path), log.size());
    Bytes kept(log.size());
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(std::fread(kept.data(), 1, kept.size(), f), kept.size());
    std::fclose(f);
    EXPECT_EQ(kept, log);
  }
}

// A record frame whose checksum verifies but whose payload is not exactly
// one ProvRecord encoding — cut short, followed by trailing bytes, claiming
// more children than it holds, or nesting lists past the decoder's bound —
// ends replay as a torn tail: the log is truncated there and every earlier
// record stays readable.
TEST(ProvArchiveTest, UndecodableRecordFrameIsATornTail) {
  TempDir dir("archive_undecodable");
  const std::string path = dir.File("node0.prov");
  Tuple t("x", {Value::Int(7)});
  std::vector<ProvRecord> want;
  {
    store::ProvArchive archive;
    ASSERT_TRUE(archive.Open(path).ok());
    for (size_t i = 0; i < kLogRecords; ++i) {
      ProvRecord rec = MakeRecord(t, "r", 0, "a", 1.0 + i);
      archive.Add(rec, DigestOf(t));
      want.push_back(rec);
    }
    ASSERT_TRUE(archive.Flush().ok());
  }
  ExpectSpansTwoPages(path);
  const uint64_t intact = fs::file_size(path);

  const Bytes record = RecordBytes(MakeRecord(t, "r", 0, "a", 99.0));
  ASSERT_EQ(record.back(), 0u);  // the last byte is the children count
  ProvChildRef child;
  child.node = 1;
  child.digest = DigestOf(t);
  child.asserted_by = "b";
  // The record with its children count raised to 3 and one child after it.
  ByteWriter too_many;
  too_many.PutRaw(record.data(), record.size() - 1);
  too_many.PutVarint(3);
  child.Serialize(too_many);
  Bytes trailing = record;
  trailing.push_back(0);
  // The record with its tuple's one value replaced by lists nested 100,000
  // deep.
  ByteWriter deep;
  deep.PutString("x");
  deep.PutVarint(1);
  for (size_t i = 0; i < 100000; ++i) {
    deep.PutU8(static_cast<uint8_t>(ValueKind::kList));
    deep.PutVarint(1);
  }
  deep.PutU8(static_cast<uint8_t>(ValueKind::kNull));
  deep.PutRaw(record.data() + t.WireSize(), record.size() - t.WireSize());
  const std::pair<const char*, Bytes> hostile[] = {
      {"truncated", Bytes(record.begin(), record.end() - 5)},
      {"trailing bytes", trailing},
      {"too many children", too_many.bytes()},
      {"lists nested too deep", deep.bytes()},
  };
  for (const auto& [what, payload] : hostile) {
    SCOPED_TRACE(what);
    TearTail(path, Frame(2, payload));
    store::ProvArchive archive;
    ASSERT_TRUE(archive.Open(path).ok());
    EXPECT_EQ(archive.size(), kLogRecords);
    EXPECT_EQ(fs::file_size(path), intact);
    ExpectSameRecords(archive.FindByDigest(DigestOf(t)), want);
  }
}

// --- ProvArena --------------------------------------------------------------

// Two structurally-identical trees built from distinct allocations.
DerivationPtr BuildTree(double base_time) {
  Tuple link("link", {Value::Address(0), Value::Address(1)});
  Tuple path("path", {Value::Address(0), Value::Address(1)});
  DerivationPtr leaf = MakeBaseDerivation(link, 0, "n0", base_time, -1.0);
  return MakeRuleDerivation(path, "sp1", 0, "n0", base_time, -1.0, {leaf});
}

TEST(ProvArenaTest, CanonicalInternsStructurallyEqualTrees) {
  store::ProvArena arena;
  DerivationPtr first = BuildTree(1.0);
  DerivationPtr second = BuildTree(1.0);  // equal content, different nodes
  ASSERT_NE(first.get(), second.get());

  store::DerivId id1 = 0, id2 = 0;
  DerivationPtr canon1 = arena.Canonical(first, &id1);
  DerivationPtr canon2 = arena.Canonical(second, &id2);
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(canon1.get(), canon2.get());  // one owned copy, process-wide
  EXPECT_EQ(arena.NodeCount(), 2u);       // leaf + rule node

  store::ProvArena::Stats stats = arena.TakeStats();
  EXPECT_EQ(stats.interned_nodes, 2u);
  EXPECT_GE(stats.interned_hits, 2u);  // the whole second tree deduped

  // All three id lookups agree.
  EXPECT_EQ(arena.Lookup(id1).get(), canon1.get());
  EXPECT_EQ(arena.IdOf(first->ContentDigest()), id1);
  EXPECT_EQ(arena.IdOfOwned(canon1.get()), id1);
  // `first` was adopted wholesale (its nodes ARE the arena's); the deduped
  // second tree stays foreign to the identity map.
  EXPECT_EQ(arena.IdOfOwned(second.get()), 0u);
  EXPECT_EQ(arena.Lookup(0), nullptr);

  // A different tree gets a different id.
  store::DerivId id3 = 0;
  arena.Canonical(BuildTree(2.0), &id3);
  EXPECT_NE(id3, id1);
}

TEST(ProvArenaTest, CanonicalRebuildsParentsAroundOwnedChildren) {
  store::ProvArena arena;
  DerivationPtr child = BuildTree(1.0);
  store::DerivId child_id = 0;
  DerivationPtr owned_child = arena.Canonical(child, &child_id);

  // A parent built over the *non-canonical* child must come out holding the
  // arena's copy.
  Tuple best("bestPath", {Value::Address(0), Value::Address(1)});
  DerivationPtr parent =
      MakeRuleDerivation(best, "sp3", 0, "n0", 2.0, -1.0, {child});
  store::DerivId parent_id = 0;
  DerivationPtr canon_parent = arena.Canonical(parent, &parent_id);
  ASSERT_EQ(canon_parent->children.size(), 1u);
  EXPECT_EQ(canon_parent->children[0].get(), owned_child.get());
  // Rebuilding preserved content: digests match the original.
  EXPECT_EQ(arena.IdOf(parent->ContentDigest()), parent_id);
}

TEST(ProvArenaTest, ExpressionInterningSharesNodes) {
  store::ProvArena arena;
  ProvExpr a = arena.InternVar(1);
  ProvExpr b = arena.InternVar(1);
  EXPECT_EQ(a.NodeIdentity(), b.NodeIdentity());

  // Same structure from separate constructions -> same physical node.
  ProvExpr e1 = arena.InternTimes(arena.InternVar(1), arena.InternVar(2));
  ProvExpr e2 = arena.InternTimes(arena.InternVar(1), arena.InternVar(2));
  EXPECT_EQ(e1.NodeIdentity(), e2.NodeIdentity());

  // InternExpr rebuilds an outside expression onto the arena's nodes.
  ProvExpr outside = ProvExpr::Times(ProvExpr::Var(1), ProvExpr::Var(2));
  EXPECT_EQ(arena.InternExpr(outside).NodeIdentity(), e1.NodeIdentity());

  // Semiring shortcuts match the ProvExpr factories.
  EXPECT_TRUE(arena.InternPlus(ProvExpr::Zero(), a).Equals(a));
  EXPECT_TRUE(arena.InternTimes(ProvExpr::One(), a).Equals(a));
  EXPECT_TRUE(arena.InternTimes(ProvExpr::Zero(), a).IsZero());
}

TEST(ProvArenaTest, CountExactMatchesUnmemoizedCount) {
  store::ProvArena arena;
  // (v1 * v2) + (v1 * v3): two derivations.
  ProvExpr e = ProvExpr::Plus(ProvExpr::Times(ProvExpr::Var(1), ProvExpr::Var(2)),
                              ProvExpr::Times(ProvExpr::Var(1), ProvExpr::Var(3)));
  BigInt direct = DerivationCountExact(e);
  EXPECT_TRUE(arena.CountExact(e) == direct);
  // Second count hits the persistent memo and still agrees.
  EXPECT_TRUE(arena.CountExact(e) == direct);
}

TEST(ProvArenaTest, DecodeCacheMapsShippedBytesBackToRoot) {
  store::ProvArena arena;
  store::DerivId id = 0;
  DerivationPtr canon = arena.Canonical(BuildTree(1.0), &id);

  // SendTuple's priming: the exact serialized bytes of the canonical node.
  ByteWriter w;
  canon->Serialize(w);
  const Bytes& wire = w.bytes();
  EXPECT_EQ(arena.CachedDecode(wire.data(), wire.size()), 0u);  // not yet
  arena.CacheDecode(wire.data(), wire.size(), id);
  EXPECT_EQ(arena.CachedDecode(wire.data(), wire.size()), id);

  // A forged payload (different bytes) misses and must take the slow path.
  Bytes forged = wire;
  forged.back() ^= 0x01;
  EXPECT_EQ(arena.CachedDecode(forged.data(), forged.size()), 0u);
}

TEST(ProvArenaTest, WireAndAnnotationCachesRoundTrip) {
  store::ProvArena arena;
  store::DerivId id = 0;
  arena.Canonical(BuildTree(1.0), &id);

  EXPECT_EQ(arena.CachedWire(id), nullptr);
  arena.CacheWire(id, Payload(5, 32));
  ASSERT_NE(arena.CachedWire(id), nullptr);
  EXPECT_EQ(*arena.CachedWire(id), Payload(5, 32));

  ProvExpr ann = arena.InternVar(7);
  EXPECT_EQ(arena.CachedAnnotation(id), nullptr);
  arena.CacheAnnotation(id, ann);
  ASSERT_NE(arena.CachedAnnotation(id), nullptr);
  EXPECT_TRUE(arena.CachedAnnotation(id)->Equals(ann));

  EXPECT_GT(arena.ResidentBytes(), 0u);  // caches are accounted
}

// --- Online store against the archive --------------------------------------

// Pointer provenance files every record in both stores. After a cold
// fixpoint each node's online records, decoded, equal its archive's for
// every digest, field for field (Serialize writes every field), at one lane
// and at four.
TEST(OnlineArchiveTest, OnlineRecordsEqualTheArchiveAfterAColdFixpoint) {
  for (size_t threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    EngineOptions opts;
    opts.authenticate = true;
    opts.says_level = SaysLevel::kHmac;
    opts.prov_mode = ProvMode::kPointers;
    opts.record_offline = true;
    opts.threads = threads;
    Rng rng(20080407);
    Topology topo = Topology::RingPlusRandom(16, 3, rng);
    auto engine_or = Engine::Create(topo, BestPathSendlogProgram(), opts);
    ASSERT_TRUE(engine_or.ok());
    std::unique_ptr<Engine> engine = std::move(engine_or).value();
    ASSERT_TRUE(engine->InsertLinkFacts().ok());
    ASSERT_TRUE(engine->Run().ok());

    for (NodeId n = 0; n < engine->num_nodes(); ++n) {
      SCOPED_TRACE(::testing::Message() << "node " << n);
      const OnlineProvStore& online = engine->node(n).online_store();
      const store::ProvArchive& archive = engine->node(n).offline_store();
      ASSERT_GT(online.size(), 0u);
      ASSERT_EQ(online.size(), archive.size());
      std::set<TupleDigest> digests;
      for (const ProvRecord& rec : archive.FindInWindow(0.0, 1e18)) {
        digests.insert(DigestOf(rec.tuple));
      }
      size_t compared = 0;
      for (TupleDigest d : digests) {
        std::vector<ProvRecord> got = online.Lookup(d);
        ExpectSameRecords(got, archive.FindByDigest(d));
        compared += got.size();
        // Both stores keep the bytes the engine encoded once.
        const OnlineProvStore::Entry* entry = online.Encoded(d);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(archive.CountOf(d), entry->count);
        ByteWriter stored;
        archive.AppendEncoded(d, stored);
        EXPECT_EQ(stored.bytes(), entry->bytes);
      }
      EXPECT_EQ(compared, online.size());  // every online record was checked
    }
  }
}

// --- Engine crash recovery --------------------------------------------------

// Full-provenance engine over an on-disk archive directory: run the
// protocol once, fingerprint a distributed proof, "crash", restart over the
// same directory, and demand the byte-identical proof without re-running.
class DurableEngineTest : public ::testing::Test {
 protected:
  EngineOptions DurableOptions(const std::string& dir) {
    EngineOptions opts;
    opts.prov_mode = ProvMode::kFull;
    opts.record_offline = true;
    opts.archive_dir = dir;
    return opts;
  }

  // Runs the fixpoint, picks node 0's longest bestPath, and returns the
  // canonical bytes of its distributed proof DAG.
  Bytes RunAndFingerprint(const Topology& topo, const EngineOptions& opts,
                          Tuple* suspect) {
    auto engine_or = Engine::Create(topo, BestPathNdlogProgram(), opts);
    EXPECT_TRUE(engine_or.ok());
    std::unique_ptr<Engine> engine = std::move(engine_or).value();
    EXPECT_TRUE(engine->InsertLinkFacts().ok());
    EXPECT_TRUE(engine->Run().ok());

    size_t longest = 0;
    for (const Tuple& t : engine->TuplesAt(0, "bestPath")) {
      if (t.arg(2).AsList().size() > longest) {
        longest = t.arg(2).AsList().size();
        *suspect = t;
      }
    }
    auto q = ProvQueryBuilder(*engine)
                 .At(0)
                 .Of(*suspect)
                 .WithScope(QueryScope::kDistributed)
                 .Run();
    EXPECT_TRUE(q.ok());
    return q.value().dag.CanonicalBytes();
  }

  // Restarts an engine over `dir` WITHOUT inserting facts or running, and
  // re-issues the distributed query against the replayed archives.
  void ExpectRecoveredProof(const Topology& topo, const EngineOptions& opts,
                            const Tuple& suspect, const Bytes& want) {
    auto engine_or = Engine::Create(topo, BestPathNdlogProgram(), opts);
    ASSERT_TRUE(engine_or.ok());
    std::unique_ptr<Engine> engine = std::move(engine_or).value();

    size_t recovered = 0;
    for (NodeId n = 0; n < engine->num_nodes(); ++n) {
      recovered += engine->node(n).offline_store().size();
    }
    EXPECT_GT(recovered, 0u);  // the logs actually replayed

    auto q = ProvQueryBuilder(*engine)
                 .At(0)
                 .Of(suspect)
                 .WithScope(QueryScope::kDistributed)
                 .Run();
    ASSERT_TRUE(q.ok());
    EXPECT_GT(q.value().stats.offline_hits, 0u);  // served from archives
    EXPECT_EQ(q.value().dag.CanonicalBytes(), want);
  }
};

TEST_F(DurableEngineTest, ProofDagIsByteIdenticalAcrossRestart) {
  TempDir dir("engine_restart");
  EngineOptions opts = DurableOptions(dir.File("archives"));
  Rng rng(20080407);
  Topology topo = Topology::RingPlusRandom(12, 2, rng);

  Tuple suspect;
  Bytes before = RunAndFingerprint(topo, opts, &suspect);
  ASSERT_FALSE(before.empty());
  // First engine destroyed here: the crash. Archives were flushed by Run.
  ExpectRecoveredProof(topo, opts, suspect, before);
}

TEST_F(DurableEngineTest, TornArchiveTailRecoversToIdenticalProof) {
  TempDir dir("engine_torn");
  const std::string archives = dir.File("archives");
  EngineOptions opts = DurableOptions(archives);
  Rng rng(20080407);
  Topology topo = Topology::RingPlusRandom(12, 2, rng);

  Tuple suspect;
  Bytes before = RunAndFingerprint(topo, opts, &suspect);
  ASSERT_FALSE(before.empty());

  // Tear every node's log: a partial frame after the flushed prefix, as a
  // crash mid-append would leave. Recovery must truncate the garbage and
  // keep every intact record.
  size_t torn = 0;
  for (const auto& entry : fs::directory_iterator(archives)) {
    TearTail(entry.path().string(), Payload(0xAB, 7));
    ++torn;
  }
  ASSERT_EQ(torn, 12u);  // one log per node

  ExpectRecoveredProof(topo, opts, suspect, before);
}

}  // namespace
}  // namespace provnet
