// Byte-level serialization used for every message on the simulated wire.
//
// Bandwidth in the Figure 4 reproduction is *defined* as the total number of
// bytes produced by ByteWriter for delivered messages, so this module is the
// single source of truth for message sizes.
#ifndef PROVNET_UTIL_BYTES_H_
#define PROVNET_UTIL_BYTES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace provnet {

using Bytes = std::vector<uint8_t>;

// Append-only encoder. Integers use little-endian fixed width; varints use
// LEB128; strings/blobs are length-prefixed with a varint.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v);
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);  // zigzag varint
  void PutVarint(uint64_t v);
  void PutDouble(double v);
  void PutString(const std::string& s);
  void PutBlob(const Bytes& b);
  void PutRaw(const uint8_t* data, size_t len);
  // Appends `len` zero bytes and returns where they start, for a caller that
  // fills them in place. Valid until the next Put.
  uint8_t* Extend(size_t len);
  void Reserve(size_t n) { buf_.reserve(n); }
  // Empties the buffer, keeping its capacity for reuse.
  void Clear() { buf_.clear(); }

  size_t size() const { return buf_.size(); }
  const Bytes& bytes() const { return buf_; }
  Bytes Take() && { return std::move(buf_); }

 private:
  Bytes buf_;
};

// Sequential decoder over a borrowed buffer. All getters report malformed or
// truncated input via Status instead of crashing, since messages may arrive
// from untrusted peers.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : data_(buf.data()), len_(buf.size()) {}
  ByteReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  Result<uint8_t> GetU8();
  Result<uint16_t> GetU16();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<uint64_t> GetVarint();
  Result<double> GetDouble();
  Result<std::string> GetString();
  Result<Bytes> GetBlob();

  size_t remaining() const { return len_ - pos_; }
  bool AtEnd() const { return pos_ == len_; }
  size_t position() const { return pos_; }

 private:
  Status Need(size_t n) const;

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

// Hex helpers (used by digests and test goldens).
std::string BytesToHex(const Bytes& bytes);
Result<Bytes> HexToBytes(const std::string& hex);

}  // namespace provnet

#endif  // PROVNET_UTIL_BYTES_H_
