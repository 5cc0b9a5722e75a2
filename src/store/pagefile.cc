#include "store/pagefile.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "obs/mem.h"

namespace provnet::store {

namespace {

// Each resident page is charged its capacity plus a fixed container
// overhead, symmetric on release so the gauge cannot drift.
constexpr size_t kPageCharge = PageFile::kPageBytes + 64;

}  // namespace

PageFile::~PageFile() {
  if (file_ != nullptr) {
    (void)Flush();
    std::fclose(file_);
  }
  DropPages();
}

void PageFile::Abandon() {
  if (file_ != nullptr) {
    std::fclose(file_);  // no Flush(): the partial page dies with us
    file_ = nullptr;
  }
  DropPages();
  end_offset_ = 0;
  first_page_ = 0;
  dirty_ = false;
}

void PageFile::AddPage() {
  pages_.emplace_back();
  pages_.back().reserve(kPageBytes);
  resident_bytes_ += kPageCharge;
  obs::MemAccounting::Global().Add(obs::MemSubsystem::kArchivePages,
                                   kPageCharge);
}

void PageFile::DropLastPage() {
  pages_.pop_back();
  resident_bytes_ -= kPageCharge;
  obs::MemAccounting::Global().Sub(obs::MemSubsystem::kArchivePages,
                                   kPageCharge);
}

void PageFile::DropPages() {
  while (!pages_.empty()) DropLastPage();
}

Status PageFile::Open(const std::string& path) {
  path_ = path;
  if (path.empty()) return OkStatus();  // memory mode

  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) {
      return InternalError("cannot create archive directory: " + ec.message());
    }
  }
  // Resume an existing log byte-for-byte, else start fresh.
  file_ = std::fopen(path.c_str(), "rb+");
  if (file_ == nullptr) file_ = std::fopen(path.c_str(), "wb+");
  if (file_ == nullptr) {
    return InternalError("cannot open archive file: " + path);
  }
  std::fseek(file_, 0, SEEK_END);
  long size = std::ftell(file_);
  if (size < 0) return InternalError("cannot size archive file: " + path);
  end_offset_ = static_cast<uint64_t>(size);
  return LoadLastPage();
}

Status PageFile::LoadLastPage() {
  DropPages();
  dirty_ = false;
  first_page_ = end_offset_ / kPageBytes;
  size_t len = static_cast<size_t>(end_offset_ % kPageBytes);
  if (len == 0) return OkStatus();
  AddPage();
  Bytes& page = pages_.back();
  page.resize(len);
  std::fseek(file_, static_cast<long>(first_page_ * kPageBytes), SEEK_SET);
  if (std::fread(page.data(), 1, len, file_) != len) {
    return InternalError("cannot read archive tail: " + path_);
  }
  return OkStatus();
}

uint64_t PageFile::Append(const uint8_t* data, size_t len) {
  uint64_t at = end_offset_;
  size_t pos = 0;
  while (pos < len) {
    if (pages_.empty() || pages_.back().size() == kPageBytes) AddPage();
    Bytes& page = pages_.back();
    size_t take = std::min(kPageBytes - page.size(), len - pos);
    page.insert(page.end(), data + pos, data + pos + take);
    pos += take;
    if (file_ == nullptr) continue;
    dirty_ = true;
    if (page.size() == kPageBytes) {
      // A full page is written through and leaves memory.
      (void)WritePage();
      DropLastPage();
      ++first_page_;
      dirty_ = false;
    }
  }
  end_offset_ += len;
  return at;
}

Status PageFile::WritePage() {
  const Bytes& page = pages_.back();
  std::fseek(file_, static_cast<long>(first_page_ * kPageBytes), SEEK_SET);
  if (std::fwrite(page.data(), 1, page.size(), file_) != page.size()) {
    return InternalError("archive page write failed: " + path_);
  }
  ++io_.page_writes;
  return OkStatus();
}

Status PageFile::Flush() {
  if (file_ == nullptr) return OkStatus();
  if (dirty_) {
    PROVNET_RETURN_IF_ERROR(WritePage());
    dirty_ = false;
  }
  if (std::fflush(file_) != 0) {
    return InternalError("archive flush failed: " + path_);
  }
  return OkStatus();
}

bool PageFile::Read(uint64_t offset, size_t len, uint8_t* out) const {
  if (offset + len > end_offset_) return false;
  uint64_t page = offset / kPageBytes;
  size_t at = static_cast<size_t>(offset % kPageBytes);
  for (size_t done = 0; done < len; ++page, at = 0) {
    size_t take = std::min(len - done, kPageBytes - at);
    if (page >= first_page_) {
      const Bytes& src = pages_[static_cast<size_t>(page - first_page_)];
      std::memcpy(out + done, src.data() + at, take);
    } else {
      // A written page: read the range back from the file.
      std::fseek(file_, static_cast<long>(page * kPageBytes + at), SEEK_SET);
      if (std::fread(out + done, 1, take, file_) != take) return false;
      ++io_.page_reads;
    }
    done += take;
  }
  return true;
}

bool PageFile::Read(uint64_t offset, size_t len, Bytes* out) const {
  if (offset + len > end_offset_) return false;
  out->resize(len);
  return Read(offset, len, out->data());
}

Status PageFile::TruncateTo(uint64_t offset) {
  if (offset > end_offset_) {
    return InvalidArgumentError("TruncateTo beyond end of log");
  }
  if (offset == end_offset_) return OkStatus();
  if (file_ == nullptr) {
    size_t keep_pages =
        static_cast<size_t>((offset + kPageBytes - 1) / kPageBytes);
    while (pages_.size() > keep_pages) DropLastPage();
    if (!pages_.empty()) {
      pages_.back().resize(
          static_cast<size_t>(offset - (pages_.size() - 1) * kPageBytes));
    }
    end_offset_ = offset;
    return OkStatus();
  }
  // Disk mode: resize the file, then reload its partial last page.
  PROVNET_RETURN_IF_ERROR(Flush());
  std::error_code ec;
  std::filesystem::resize_file(path_, offset, ec);
  if (ec) return InternalError("archive truncate failed: " + ec.message());
  std::fclose(file_);
  file_ = std::fopen(path_.c_str(), "rb+");
  if (file_ == nullptr) {
    return InternalError("cannot reopen archive file: " + path_);
  }
  end_offset_ = offset;
  return LoadLastPage();
}

uint64_t PageFile::DiskBytes() const {
  return file_ == nullptr ? 0 : end_offset_;
}

}  // namespace provnet::store
