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

// Online store: one entry set per live tuple digest. Multiple records per
// digest capture alternative derivations.
class OnlineProvStore {
 public:
  void Add(ProvRecord record);

  // All current derivations of a tuple; nullptr when unknown.
  const std::vector<ProvRecord>* Lookup(TupleDigest digest) const;

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
  void Clear() {
    records_.clear();
    count_ = 0;
  }

  size_t size() const { return count_; }

 private:
  std::unordered_map<TupleDigest, std::vector<ProvRecord>> records_;
  size_t count_ = 0;
};

}  // namespace provnet

#endif  // PROVNET_PROVENANCE_STORE_H_
