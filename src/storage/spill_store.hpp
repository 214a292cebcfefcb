// BlockStore-backed spill destination for the memory-elastic shuffle.
//
// Each spilled shuffle segment becomes one block-store file named
// "<prefix>-<id>" (binary blocks via BlockStore::write_bytes, so spilled
// bytes get the store's checksums and replication for free): on disk, one
// data file per replica plus one meta file, and no directory. Reading back
// streams the file block by block through BlockStore::Reader — the merge
// phase never holds more than one block of a spilled segment in memory —
// and release() unlinks the segment's files.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "engine/spill.hpp"
#include "storage/block_store.hpp"

namespace dias::storage {

class BlockStoreSpill final : public engine::SpillBackend {
 public:
  // The store must outlive this backend. `prefix` namespaces the segment
  // files so several backends (or spill generations) can share one store.
  explicit BlockStoreSpill(BlockStore& store, std::string prefix = "spill");

  std::uint64_t write(const std::string& bytes) override;
  std::unique_ptr<engine::SpillReader> open(std::uint64_t handle) override;
  void release(std::uint64_t handle) override;
  engine::SpillStats stats() const override;

  // The block-store file name backing `handle`; exposed for tests that
  // inject corruption underneath the engine.
  std::string segment_name(std::uint64_t handle) const;

 private:
  BlockStore& store_;
  const std::string prefix_;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> segments_written_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
  std::atomic<std::uint64_t> segments_read_{0};
  std::atomic<std::uint64_t> bytes_read_{0};
};

}  // namespace dias::storage
