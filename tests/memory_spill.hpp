// Heap-backed SpillBackend shared by the spill test suites: drives the
// engine's spill protocol without touching disk, and hands segments back
// in small chunks (97 bytes by default) so the decoder's cursor has to
// stitch values across chunk boundaries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "engine/spill.hpp"

namespace dias::tests {

class MemorySpill final : public engine::SpillBackend {
 public:
  explicit MemorySpill(std::size_t chunk_bytes = 97) : chunk_bytes_(chunk_bytes) {}

  std::uint64_t write(const std::string& bytes) override {
    std::lock_guard lock(mu_);
    const std::uint64_t id = next_id_++;
    segments_[id] = bytes;
    ++stats_.segments_written;
    stats_.bytes_written += bytes.size();
    return id;
  }

  std::unique_ptr<engine::SpillReader> open(std::uint64_t handle) override {
    std::lock_guard lock(mu_);
    const auto it = segments_.find(handle);
    if (it == segments_.end()) throw error("spill segment not found");
    ++stats_.segments_read;
    stats_.bytes_read += it->second.size();
    return std::make_unique<Reader>(it->second, chunk_bytes_);
  }

  void release(std::uint64_t handle) override {
    std::lock_guard lock(mu_);
    segments_.erase(handle);
  }

  engine::SpillStats stats() const override {
    std::lock_guard lock(mu_);
    return stats_;
  }

  std::size_t live_segments() const {
    std::lock_guard lock(mu_);
    return segments_.size();
  }

 private:
  class Reader final : public engine::SpillReader {
   public:
    Reader(std::string bytes, std::size_t chunk) : bytes_(std::move(bytes)), chunk_(chunk) {}
    bool next(std::string& out) override {
      if (off_ >= bytes_.size()) return false;
      const std::size_t n = std::min(chunk_, bytes_.size() - off_);
      out.assign(bytes_, off_, n);
      off_ += n;
      return true;
    }

   private:
    std::string bytes_;
    std::size_t chunk_;
    std::size_t off_ = 0;
  };

  const std::size_t chunk_bytes_;
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::string> segments_;
  engine::SpillStats stats_;
};

}  // namespace dias::tests
