#include "storage/spill_store.hpp"

#include <utility>

#include "chaos/chaos.hpp"
#include "common/hash.hpp"

namespace dias::storage {
namespace {

// Adapts BlockStore::Reader to the engine's chunk-stream interface,
// counting streamed bytes into the owning backend's stats. Every chunk
// passes the spill.read chaos point (throw/stall); a raised ChaosError
// reaches the shuffle merge's read guard exactly like a real I/O error.
class BlockSpillReader final : public engine::SpillReader {
 public:
  BlockSpillReader(BlockStore::Reader reader, std::uint64_t handle,
                   std::atomic<std::uint64_t>& bytes_read)
      : reader_(std::move(reader)), handle_(handle), bytes_read_(bytes_read) {}

  bool next(std::string& chunk) override {
    static chaos::InjectionPoint& chaos_read =
        chaos::ChaosPlane::instance().point(chaos::points::kSpillRead);
    if (chaos_read.armed()) chaos_read.inject(handle_, chunk_index_);
    ++chunk_index_;
    if (!reader_.next(chunk)) return false;
    bytes_read_.fetch_add(chunk.size(), std::memory_order_relaxed);
    return true;
  }

 private:
  BlockStore::Reader reader_;
  const std::uint64_t handle_;
  std::uint64_t chunk_index_ = 0;
  std::atomic<std::uint64_t>& bytes_read_;
};

}  // namespace

BlockStoreSpill::BlockStoreSpill(BlockStore& store, std::string prefix)
    : store_(store), prefix_(std::move(prefix)) {}

std::string BlockStoreSpill::segment_name(std::uint64_t handle) const {
  return prefix_ + "-" + std::to_string(handle);
}

std::uint64_t BlockStoreSpill::write(const std::string& bytes) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // spill.write chaos point, keyed by a content hash so the decision is
  // independent of which worker spills which segment when. kThrow feeds
  // the spill circuit breaker; kCorrupt mangles a payload byte past the
  // header so the decode path (not this write) detects it on read-back.
  static chaos::InjectionPoint& chaos_write =
      chaos::ChaosPlane::instance().point(chaos::points::kSpillWrite);
  if (chaos_write.armed() && !bytes.empty() &&
      chaos_write.inject(fnv1a(bytes), bytes.size())) {
    std::string mangled = bytes;
    mangled[mangled.size() / 2] ^= std::string::value_type{0x5A};
    store_.write_bytes(segment_name(id), mangled);
    segments_written_.fetch_add(1, std::memory_order_relaxed);
    bytes_written_.fetch_add(mangled.size(), std::memory_order_relaxed);
    return id;
  }
  store_.write_bytes(segment_name(id), bytes);
  segments_written_.fetch_add(1, std::memory_order_relaxed);
  bytes_written_.fetch_add(bytes.size(), std::memory_order_relaxed);
  return id;
}

std::unique_ptr<engine::SpillReader> BlockStoreSpill::open(std::uint64_t handle) {
  static chaos::InjectionPoint& chaos_open =
      chaos::ChaosPlane::instance().point(chaos::points::kSpillOpen);
  if (chaos_open.armed()) chaos_open.inject(handle);
  auto reader = store_.open_reader(segment_name(handle));
  segments_read_.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<BlockSpillReader>(std::move(reader), handle, bytes_read_);
}

void BlockStoreSpill::release(std::uint64_t handle) {
  store_.remove(segment_name(handle));
}

engine::SpillStats BlockStoreSpill::stats() const {
  engine::SpillStats s;
  s.segments_written = segments_written_.load(std::memory_order_relaxed);
  s.bytes_written = bytes_written_.load(std::memory_order_relaxed);
  s.segments_read = segments_read_.load(std::memory_order_relaxed);
  s.bytes_read = bytes_read_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dias::storage
