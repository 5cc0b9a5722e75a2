#include "store/pagefile.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "obs/mem.h"

namespace provnet::store {

namespace {

// Each cached/resident page is charged its capacity plus a fixed container
// overhead, symmetric on release so the gauge cannot drift.
constexpr size_t kPageOverhead = 64;

}  // namespace

PageFile::~PageFile() {
  if (file_ != nullptr) {
    (void)Flush();
    std::fclose(file_);
  }
  ReleaseResident(resident_bytes_);
}

void PageFile::Abandon() {
  if (file_ != nullptr) {
    std::fclose(file_);  // no Flush(): the buffered tail dies with us
    file_ = nullptr;
  }
}

void PageFile::ChargeResident(size_t bytes) const {
  resident_bytes_ += bytes;
  obs::MemAccounting::Global().Add(obs::MemSubsystem::kArchivePages, bytes);
}

void PageFile::ReleaseResident(size_t bytes) const {
  resident_bytes_ -= std::min(bytes, resident_bytes_);
  obs::MemAccounting::Global().Sub(obs::MemSubsystem::kArchivePages, bytes);
}

Status PageFile::Open(const std::string& path, PageFileOptions options) {
  if (options.page_bytes < 64) {
    return InvalidArgumentError("page_bytes must be >= 64");
  }
  options_ = options;
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
  // Load the partial tail page so appends continue where the log left off.
  tail_index_ = end_offset_ / options_.page_bytes;
  size_t tail_len = end_offset_ % options_.page_bytes;
  tail_.assign(tail_len, 0);
  if (tail_len > 0) {
    std::fseek(file_,
               static_cast<long>(tail_index_ * options_.page_bytes), SEEK_SET);
    if (std::fread(tail_.data(), 1, tail_len, file_) != tail_len) {
      return InternalError("cannot read archive tail: " + path);
    }
  }
  ChargeResident(options_.page_bytes + kPageOverhead);
  tail_dirty_ = false;
  return OkStatus();
}

uint64_t PageFile::Append(const uint8_t* data, size_t len) {
  uint64_t at = end_offset_;
  if (file_ == nullptr) {
    // Memory mode: fill the page vector directly.
    size_t pos = 0;
    while (pos < len) {
      if (pages_.empty() || pages_.back().size() == options_.page_bytes) {
        pages_.emplace_back();
        pages_.back().reserve(options_.page_bytes);
        ChargeResident(options_.page_bytes + kPageOverhead);
      }
      Bytes& page = pages_.back();
      size_t room = options_.page_bytes - page.size();
      size_t take = std::min(room, len - pos);
      page.insert(page.end(), data + pos, data + pos + take);
      pos += take;
    }
    end_offset_ += len;
    return at;
  }
  size_t pos = 0;
  while (pos < len) {
    size_t room = options_.page_bytes - tail_.size();
    size_t take = std::min(room, len - pos);
    tail_.insert(tail_.end(), data + pos, data + pos + take);
    tail_dirty_ = true;
    pos += take;
    if (tail_.size() == options_.page_bytes) {
      // Completed page: write it through and start the next tail.
      (void)WritePage(tail_index_, tail_);
      tail_.clear();
      ++tail_index_;
      tail_dirty_ = false;
    }
  }
  end_offset_ += len;
  return at;
}

Status PageFile::WritePage(uint64_t index, const Bytes& page) {
  std::fseek(file_, static_cast<long>(index * options_.page_bytes), SEEK_SET);
  if (std::fwrite(page.data(), 1, page.size(), file_) != page.size()) {
    return InternalError("archive page write failed: " + path_);
  }
  ++io_.page_writes;
  // The cache may hold a stale copy of a page we just extended (the tail
  // page is written once partially on Flush, then again when it fills).
  auto it = cache_.find(index);
  if (it != cache_.end()) {
    ReleaseResident(options_.page_bytes + kPageOverhead);
    lru_.erase(lru_pos_[index]);
    lru_pos_.erase(index);
    cache_.erase(it);
  }
  return OkStatus();
}

Status PageFile::Flush() {
  if (file_ == nullptr) return OkStatus();
  if (tail_dirty_ && !tail_.empty()) {
    PROVNET_RETURN_IF_ERROR(WritePage(tail_index_, tail_));
    tail_dirty_ = false;
  }
  if (std::fflush(file_) != 0) {
    return InternalError("archive flush failed: " + path_);
  }
  return OkStatus();
}

const Bytes* PageFile::CachedPage(uint64_t index) const {
  auto it = cache_.find(index);
  if (it != cache_.end()) {
    lru_.erase(lru_pos_[index]);
    lru_.push_front(index);
    lru_pos_[index] = lru_.begin();
    return &it->second;
  }
  // Miss: read the page from the file.
  size_t want = options_.page_bytes;
  uint64_t start = index * options_.page_bytes;
  if (start >= end_offset_) return nullptr;
  want = static_cast<size_t>(
      std::min<uint64_t>(want, end_offset_ - start));
  Bytes page(want, 0);
  std::fseek(file_, static_cast<long>(start), SEEK_SET);
  if (std::fread(page.data(), 1, want, file_) != want) return nullptr;
  ++io_.page_reads;
  ChargeResident(options_.page_bytes + kPageOverhead);
  auto [pos, inserted] = cache_.emplace(index, std::move(page));
  (void)inserted;
  lru_.push_front(index);
  lru_pos_[index] = lru_.begin();
  while (cache_.size() > options_.cache_pages) {
    uint64_t victim = lru_.back();
    lru_.pop_back();
    lru_pos_.erase(victim);
    cache_.erase(victim);
    ReleaseResident(options_.page_bytes + kPageOverhead);
  }
  return &pos->second;
}

bool PageFile::Read(uint64_t offset, size_t len, Bytes* out) const {
  if (offset + len > end_offset_) return false;
  out->clear();
  out->reserve(len);
  if (file_ == nullptr) {
    uint64_t page = PageOf(offset);
    size_t at = static_cast<size_t>(offset % options_.page_bytes);
    while (out->size() < len) {
      if (page >= pages_.size()) return false;
      const Bytes& src = pages_[static_cast<size_t>(page)];
      size_t take = std::min(len - out->size(), src.size() - at);
      out->insert(out->end(), src.begin() + static_cast<long>(at),
                  src.begin() + static_cast<long>(at + take));
      ++page;
      at = 0;
    }
    return true;
  }
  uint64_t page = PageOf(offset);
  size_t at = static_cast<size_t>(offset % options_.page_bytes);
  while (out->size() < len) {
    const Bytes* src = nullptr;
    // The unflushed tail is only resident here; serve it directly.
    if (page == tail_index_) {
      src = &tail_;
    } else {
      src = CachedPage(page);
    }
    if (src == nullptr || at >= src->size()) return false;
    size_t take = std::min(len - out->size(), src->size() - at);
    out->insert(out->end(), src->begin() + static_cast<long>(at),
                src->begin() + static_cast<long>(at + take));
    ++page;
    at = 0;
  }
  return true;
}

Status PageFile::TruncateTo(uint64_t offset) {
  if (offset > end_offset_) {
    return InvalidArgumentError("TruncateTo beyond end of log");
  }
  if (offset == end_offset_) return OkStatus();
  if (file_ == nullptr) {
    size_t keep_pages = static_cast<size_t>(
        (offset + options_.page_bytes - 1) / options_.page_bytes);
    while (pages_.size() > keep_pages) {
      pages_.pop_back();
      ReleaseResident(options_.page_bytes + kPageOverhead);
    }
    if (!pages_.empty()) {
      size_t last_len = static_cast<size_t>(
          offset - (pages_.size() - 1) * options_.page_bytes);
      pages_.back().resize(last_len);
    }
    end_offset_ = offset;
    return OkStatus();
  }
  // Disk mode: rewrite via the filesystem resize, reload the tail.
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
  tail_index_ = end_offset_ / options_.page_bytes;
  size_t tail_len = static_cast<size_t>(end_offset_ % options_.page_bytes);
  tail_.assign(tail_len, 0);
  if (tail_len > 0) {
    std::fseek(file_,
               static_cast<long>(tail_index_ * options_.page_bytes), SEEK_SET);
    if (std::fread(tail_.data(), 1, tail_len, file_) != tail_len) {
      return InternalError("cannot read archive tail: " + path_);
    }
  }
  tail_dirty_ = false;
  DropCache();
  return OkStatus();
}

void PageFile::DropCache() const {
  ReleaseResident(cache_.size() * (options_.page_bytes + kPageOverhead));
  cache_.clear();
  lru_.clear();
  lru_pos_.clear();
}

uint64_t PageFile::DiskBytes() const {
  return file_ == nullptr ? 0 : end_offset_;
}

}  // namespace provnet::store
