// Provenance records and the online store, realizing the Section 4.1 / 4.2
// taxonomy axes:
//
//  * OnlineProvStore - provenance of *live* soft-state tuples, expiring with
//    them; supports the "react at runtime" use case (delete all routes that
//    depend on a malicious node).
//  * The offline archive (store::ProvArchive, store/archive.h) outlives
//    tuple expiry: an append-only log of every record the run kept.
//    Section 5's reactive retention (keep little until an anomaly) is
//    EngineOptions::recording_enabled, which records nothing until it is
//    switched on.
//  * Distributed provenance - records store *references* to their immediate
//    children; a child is either local (same node) or remote (node id +
//    content digest). Reconstruction walks these pointers with network
//    queries (the ProvQuery API, query/provquery.h), the paper's
//    IP-traceback analogy.
//
// ProvRecord::Serialize is the one encoding of a record. The engine encodes
// each record once, and both stores keep those bytes: the online store
// concatenates them per tuple digest, the archive appends them to its log.
// They are exactly the bytes a records response ships, so a responder copies
// them without decoding; and a record costs its ~120 encoded bytes instead
// of a heap object graph (tuple values, a children vector, copied base
// tuples) several times that size. Local readers decode on lookup, through
// the same codec that guards hostile wire input.
#ifndef PROVNET_PROVENANCE_STORE_H_
#define PROVNET_PROVENANCE_STORE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/keystore.h"
#include "datalog/tuple.h"
#include "util/bytes.h"
#include "util/status.h"

namespace provnet {

// Stable identifier of a tuple instance for cross-node pointers: the hash of
// its content. (Distinct tuples colliding is harmless for the simulation;
// digests are 64-bit.)
using TupleDigest = uint64_t;

TupleDigest DigestOf(const Tuple& tuple);

struct ProvChildRef {
  NodeId node = 0;          // where the child's record lives
  TupleDigest digest = 0;   // which tuple it refers to
  bool is_base = false;     // leaf marker (no further resolution needed)
  Tuple base_tuple;         // the leaf itself when is_base
  Principal asserted_by;    // who asserted the child (for trust decisions)

  void Serialize(ByteWriter& out) const;
  static Result<ProvChildRef> Deserialize(ByteReader& in);
};

struct ProvRecord {
  Tuple tuple;
  std::string rule;        // deriving rule label (kBaseRule for leaves)
  NodeId location = 0;
  Principal asserted_by;
  double created_at = 0.0;
  double expires_at = -1.0;  // -1 = never
  std::vector<ProvChildRef> children;

  void Serialize(ByteWriter& out) const;
  static Result<ProvRecord> Deserialize(ByteReader& in);
  std::string ToString() const;
};

// Online store: the records of each live tuple digest, in append order.
// Multiple records per digest capture alternative derivations. Memory is
// charged to obs::MemSubsystem::kOnlineRecords (each entry's byte capacity
// plus a fixed per-entry estimate) and released as records leave the store.
class OnlineProvStore {
 public:
  // One digest's records: their concatenated ProvRecord::Serialize bytes and
  // how many there are.
  struct Entry {
    Bytes bytes;
    uint32_t count = 0;
    bool expiring = false;  // some record has expires_at >= 0
  };

  OnlineProvStore() = default;
  ~OnlineProvStore() { Clear(); }

  OnlineProvStore(const OnlineProvStore&) = delete;
  OnlineProvStore& operator=(const OnlineProvStore&) = delete;

  // Appends one record's ProvRecord::Serialize bytes under `digest`, the
  // caller's DigestOf of the record's tuple; `expiring` when its
  // expires_at >= 0.
  void AddEncoded(const uint8_t* data, size_t len, bool expiring,
                  TupleDigest digest);
  // Serializes `record` and appends it as AddEncoded does.
  void Add(const ProvRecord& record, TupleDigest digest);

  // All current derivations of a tuple, decoded; empty when unknown.
  std::vector<ProvRecord> Lookup(TupleDigest digest) const;

  // The stored encoding of a digest's records, as a records response ships
  // it; nullptr when unknown.
  const Entry* Encoded(TupleDigest digest) const;

  // Drops records whose tuples expired before `now` (online provenance only
  // covers currently-valid state). Returns the number dropped.
  size_t ExpireBefore(double now);

  // Removes every record of `digest` (e.g. the tuple was deleted after a
  // trust revocation). Returns the number removed.
  size_t Remove(TupleDigest digest);

  // Digests of all records that (transitively at this node) depend on a
  // child asserted by `principal` — the "delete all routing entries
  // associated with the malicious node" query of Section 4.2.
  std::vector<TupleDigest> DependentsOf(const Principal& principal) const;

  // Drops every record (e.g. simulating fully aged-out online state before
  // an archive-only forensic query).
  void Clear();

  size_t size() const { return count_; }
  // Bytes held: every entry's byte capacity plus the per-entry estimate.
  uint64_t bytes() const { return bytes_; }

 private:
  // Keeps bytes_ and the memory ledger in step with one entry's size.
  void Charge(uint64_t b);
  void Release(uint64_t b);

  std::unordered_map<TupleDigest, Entry> records_;
  size_t count_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace provnet

#endif  // PROVNET_PROVENANCE_STORE_H_
