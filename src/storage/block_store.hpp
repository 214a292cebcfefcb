// HDFS-like block storage (paper Section 2.4).
//
// The paper's jobs read XML dumps from HDFS: files are split into blocks
// spread over datanodes, each map task processes one block, and dropping a
// task "saves the overhead of fetching data". This scaled-down stand-in
// stores line-oriented files as fixed-size blocks on the local filesystem
// with per-block checksums and optional replication, and counts I/O so
// experiments can measure the fetch savings of dropped tasks.
//
// On-disk layout, flat under the root: a file `name` is one data file per
// replica, `name.r<k>`, holding the blocks back to back, plus one text
// meta file, `name.meta`, holding the sizes and, per block, its end
// offset in the data files and its FNV-1a checksum. A write is one write
// per data file plus the meta, written last so a new file's meta never
// describes data not yet written; a block read is one positioned read of
// that block's byte range; `remove` unlinks the files. A meta that does
// not parse, whose offsets do not increase or do not end at the file
// size, is a corrupt file: reads throw dias::error, never read out of
// range.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace dias::storage {

struct BlockStoreOptions {
  std::filesystem::path root;         // created if missing
  std::size_t block_bytes = 64 * 1024;  // block size (HDFS: 128 MB; scaled)
  int replication = 1;                // copies written per block
};

struct FileMetadata {
  std::string name;
  std::size_t bytes = 0;
  std::size_t blocks = 0;
  std::size_t lines = 0;
};

struct IoStats {
  std::uint64_t blocks_read = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t blocks_written = 0;
  std::uint64_t bytes_written = 0;
};

class BlockStore {
 public:
  explicit BlockStore(BlockStoreOptions options);

  const BlockStoreOptions& options() const { return options_; }

  // Writes `lines` as a block file; lines are never split across blocks
  // (a block may exceed block_bytes by one line). Overwrites an existing
  // file of the same name.
  FileMetadata write_lines(const std::string& name, const std::vector<std::string>& lines);

  // Writes raw bytes as fixed-size binary blocks (exactly block_bytes each
  // except possibly the last) with the same checksum/replication scheme as
  // line files; meta.lines is 0. This is the on-disk shape of spilled
  // shuffle segments.
  FileMetadata write_bytes(const std::string& name, const std::string& data);

  // Reads the lines of one block (0-based), verifying its checksum. Falls
  // back to a replica when the primary copy is corrupt or missing; throws
  // if every copy fails.
  std::vector<std::string> read_block_lines(const std::string& name,
                                            std::size_t block) const;

  // Reads the raw bytes of one block, with the same checksum verification
  // and replica fallback as read_block_lines.
  std::string read_block_bytes(const std::string& name, std::size_t block) const;

  // Reads the whole file in block order.
  std::vector<std::string> read_all_lines(const std::string& name) const;

  // Streaming block reader: parses the file's meta — sizes, block
  // offsets and checksums — once at open, then yields verified blocks in
  // order. Unlike per-block reads it never re-opens the meta file, which
  // is what the merge phase wants when streaming spilled segments back.
  class Reader;
  Reader open_reader(const std::string& name) const;

  FileMetadata stat(const std::string& name) const;
  bool exists(const std::string& name) const;
  std::vector<std::string> list() const;
  void remove(const std::string& name);

  // Verifies every block checksum; returns the number of healthy blocks.
  std::size_t verify(const std::string& name) const;

  // Cumulative I/O counters (thread-safe; map tasks read concurrently).
  IoStats io_stats() const;
  void reset_io_stats();

 private:
  // A file's parsed meta: sizes, each block's end offset in the data
  // files, and each block's checksum.
  struct Index {
    FileMetadata meta;
    std::vector<std::uint64_t> ends;
    std::vector<std::uint64_t> checksums;
  };

  std::filesystem::path meta_path(const std::string& name) const;
  std::filesystem::path data_path(const std::string& name, int replica) const;
  // Writes every replica's data file, then the meta; `ends` are the block
  // end offsets into `data`.
  FileMetadata write_blocks(const std::string& name, const std::string& data,
                            const std::vector<std::uint64_t>& ends, std::size_t lines);
  // Reads and validates the meta file (one read). Throws
  // precondition_error when the file does not exist and dias::error when
  // the meta is corrupt.
  Index load_index(const std::string& name) const;
  // One block's raw bytes, verified against its checksum, with replica
  // fallback; updates the read counters.
  std::string read_block_raw(const Index& index, std::size_t block) const;

  BlockStoreOptions options_;
  mutable std::atomic<std::uint64_t> blocks_read_{0};
  mutable std::atomic<std::uint64_t> bytes_read_{0};
  std::atomic<std::uint64_t> blocks_written_{0};
  std::atomic<std::uint64_t> bytes_written_{0};
};

class BlockStore::Reader {
 public:
  // Replaces `chunk` with the next block's bytes; false after the last
  // block. Throws when every replica of a block is missing or corrupt.
  bool next(std::string& chunk);
  const FileMetadata& meta() const { return index_.meta; }

 private:
  friend class BlockStore;
  Reader(const BlockStore* store, Index index) : store_(store), index_(std::move(index)) {}

  const BlockStore* store_;
  Index index_;
  std::size_t next_block_ = 0;
};

}  // namespace dias::storage
