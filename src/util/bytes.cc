#include "util/bytes.h"

#include <bit>
#include <cstring>

namespace provnet {

void ByteWriter::PutU8(uint8_t v) { buf_.push_back(v); }

void ByteWriter::PutU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void ByteWriter::PutI64(int64_t v) {
  // Zigzag encoding keeps small negative numbers short.
  uint64_t encoded =
      (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
  PutVarint(encoded);
}

void ByteWriter::PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void ByteWriter::PutString(const std::string& s) {
  PutVarint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::PutBlob(const Bytes& b) {
  PutVarint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void ByteWriter::PutRaw(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

uint8_t* ByteWriter::Extend(size_t len) {
  buf_.resize(buf_.size() + len);
  return buf_.data() + buf_.size() - len;
}

Status ByteReader::Need(size_t n) const {
  if (len_ - pos_ < n) {
    return OutOfRangeError("truncated buffer: need " + std::to_string(n) +
                           " bytes, have " + std::to_string(len_ - pos_));
  }
  return OkStatus();
}

Result<uint8_t> ByteReader::GetU8() {
  PROVNET_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> ByteReader::GetU16() {
  PROVNET_RETURN_IF_ERROR(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::GetU32() {
  PROVNET_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::GetU64() {
  PROVNET_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<uint64_t> ByteReader::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    PROVNET_RETURN_IF_ERROR(Need(1));
    uint8_t byte = data_[pos_++];
    if (shift >= 64) return InvalidArgumentError("varint too long");
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<int64_t> ByteReader::GetI64() {
  PROVNET_ASSIGN_OR_RETURN(uint64_t encoded, GetVarint());
  return static_cast<int64_t>((encoded >> 1) ^ (~(encoded & 1) + 1));
}

Result<double> ByteReader::GetDouble() {
  PROVNET_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  return std::bit_cast<double>(bits);
}

Result<std::string> ByteReader::GetString() {
  PROVNET_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  PROVNET_RETURN_IF_ERROR(Need(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<Bytes> ByteReader::GetBlob() {
  PROVNET_ASSIGN_OR_RETURN(uint64_t n, GetVarint());
  PROVNET_RETURN_IF_ERROR(Need(n));
  Bytes b(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return b;
}

std::string BytesToHex(const Bytes& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

Result<Bytes> HexToBytes(const std::string& hex) {
  if (hex.size() % 2 != 0) return InvalidArgumentError("odd hex length");
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return InvalidArgumentError("bad hex digit");
    out.push_back(static_cast<uint8_t>(hi << 4 | lo));
  }
  return out;
}

}  // namespace provnet
