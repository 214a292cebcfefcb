#include "storage/block_store.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "chaos/chaos.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"

namespace dias::storage {
namespace {

constexpr const char* kMetaFile = ".meta";

void check_name(const std::string& name) {
  DIAS_EXPECTS(!name.empty(), "file name must be non-empty");
  DIAS_EXPECTS(name.find('/') == std::string::npos && name.find("..") == std::string::npos,
               "file name must be a plain identifier");
}

}  // namespace

BlockStore::BlockStore(BlockStoreOptions options) : options_(std::move(options)) {
  DIAS_EXPECTS(!options_.root.empty(), "block store needs a root directory");
  DIAS_EXPECTS(options_.block_bytes >= 64, "block size too small");
  DIAS_EXPECTS(options_.replication >= 1, "replication must be >= 1");
  std::filesystem::create_directories(options_.root);
}

std::filesystem::path BlockStore::file_dir(const std::string& name) const {
  return options_.root / name;
}

std::filesystem::path BlockStore::block_path(const std::string& name, std::size_t block,
                                             int replica) const {
  std::ostringstream os;
  os << "block-" << block << ".r" << replica;
  return file_dir(name) / os.str();
}

namespace {

// storage.write / storage.read chaos points, shared by every BlockStore
// method of that class. Coordinates: the file-name hash plus a block (or
// op) index, so a given (seed, file, block) decision is stable however
// the work is scheduled. kCorrupt is a spill-writer concern; here it is
// ignored (the checksum/replica machinery is exercised by the dedicated
// corruption tests).
chaos::InjectionPoint& storage_write_point() {
  static chaos::InjectionPoint& p =
      chaos::ChaosPlane::instance().point(chaos::points::kStorageWrite);
  return p;
}

chaos::InjectionPoint& storage_read_point() {
  static chaos::InjectionPoint& p =
      chaos::ChaosPlane::instance().point(chaos::points::kStorageRead);
  return p;
}

}  // namespace

FileMetadata BlockStore::write_lines(const std::string& name,
                                     const std::vector<std::string>& lines) {
  check_name(name);
  if (storage_write_point().armed()) {
    storage_write_point().inject(fnv1a(name), lines.size());
  }
  const auto dir = file_dir(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FileMetadata meta;
  meta.name = name;
  meta.lines = lines.size();

  std::vector<std::uint64_t> checksums;
  std::string block_data;
  const auto flush_block = [&] {
    if (block_data.empty()) return;
    for (int r = 0; r < options_.replication; ++r) {
      std::ofstream out(block_path(name, meta.blocks, r), std::ios::binary);
      DIAS_EXPECTS(out.good(), "cannot open block file for writing");
      out << block_data;
    }
    checksums.push_back(fnv1a(block_data));
    blocks_written_ += static_cast<std::uint64_t>(options_.replication);
    bytes_written_ +=
        static_cast<std::uint64_t>(block_data.size()) * options_.replication;
    meta.bytes += block_data.size();
    ++meta.blocks;
    block_data.clear();
  };

  for (const auto& line : lines) {
    block_data += line;
    block_data += '\n';
    if (block_data.size() >= options_.block_bytes) flush_block();
  }
  flush_block();

  std::ofstream metaf(dir / kMetaFile);
  DIAS_EXPECTS(metaf.good(), "cannot write file metadata");
  metaf << meta.bytes << ' ' << meta.blocks << ' ' << meta.lines << '\n';
  for (std::uint64_t c : checksums) metaf << c << '\n';
  return meta;
}

FileMetadata BlockStore::write_bytes(const std::string& name, const std::string& data) {
  check_name(name);
  if (storage_write_point().armed()) {
    storage_write_point().inject(fnv1a(name), data.size());
  }
  const auto dir = file_dir(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  FileMetadata meta;
  meta.name = name;

  std::vector<std::uint64_t> checksums;
  for (std::size_t off = 0; off < data.size(); off += options_.block_bytes) {
    const std::string block_data = data.substr(off, options_.block_bytes);
    for (int r = 0; r < options_.replication; ++r) {
      std::ofstream out(block_path(name, meta.blocks, r), std::ios::binary);
      DIAS_EXPECTS(out.good(), "cannot open block file for writing");
      out << block_data;
    }
    checksums.push_back(fnv1a(block_data));
    blocks_written_ += static_cast<std::uint64_t>(options_.replication);
    bytes_written_ +=
        static_cast<std::uint64_t>(block_data.size()) * options_.replication;
    meta.bytes += block_data.size();
    ++meta.blocks;
  }

  std::ofstream metaf(dir / kMetaFile);
  DIAS_EXPECTS(metaf.good(), "cannot write file metadata");
  metaf << meta.bytes << ' ' << meta.blocks << ' ' << meta.lines << '\n';
  for (std::uint64_t c : checksums) metaf << c << '\n';
  return meta;
}

FileMetadata BlockStore::stat(const std::string& name) const {
  check_name(name);
  std::ifstream metaf(file_dir(name) / kMetaFile);
  DIAS_EXPECTS(metaf.good(), "file does not exist in block store");
  FileMetadata meta;
  meta.name = name;
  metaf >> meta.bytes >> meta.blocks >> meta.lines;
  return meta;
}

bool BlockStore::exists(const std::string& name) const {
  return std::filesystem::exists(file_dir(name) / kMetaFile);
}

std::vector<std::string> BlockStore::list() const {
  std::vector<std::string> names;
  if (!std::filesystem::exists(options_.root)) return names;
  for (const auto& entry : std::filesystem::directory_iterator(options_.root)) {
    if (entry.is_directory() &&
        std::filesystem::exists(entry.path() / kMetaFile)) {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

void BlockStore::remove(const std::string& name) {
  check_name(name);
  std::filesystem::remove_all(file_dir(name));
}

std::vector<std::uint64_t> BlockStore::load_checksums(const std::string& name,
                                                      std::size_t blocks) const {
  std::ifstream metaf(file_dir(name) / kMetaFile);
  DIAS_EXPECTS(metaf.good(), "file does not exist in block store");
  FileMetadata ignored;
  metaf >> ignored.bytes >> ignored.blocks >> ignored.lines;
  std::vector<std::uint64_t> checksums(blocks, 0);
  for (auto& c : checksums) metaf >> c;
  DIAS_EXPECTS(metaf.good() || metaf.eof(), "corrupt metadata");
  return checksums;
}

std::string BlockStore::read_block_raw(const std::string& name, std::size_t block,
                                       std::uint64_t expected) const {
  if (storage_read_point().armed()) {
    storage_read_point().inject(fnv1a(name), block);
  }
  for (int r = 0; r < options_.replication; ++r) {
    std::ifstream in(block_path(name, block, r), std::ios::binary);
    if (!in.good()) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string data = buffer.str();
    if (fnv1a(data) != expected) continue;  // corrupt copy: try a replica
    ++blocks_read_;
    bytes_read_ += data.size();
    return data;
  }
  throw error("all replicas of block are missing or corrupt: " + name);
}

std::vector<std::string> BlockStore::read_block_lines(const std::string& name,
                                                      std::size_t block) const {
  const std::string data = read_block_bytes(name, block);
  std::vector<std::string> lines;
  std::istringstream stream(data);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(std::move(line));
  return lines;
}

std::string BlockStore::read_block_bytes(const std::string& name, std::size_t block) const {
  check_name(name);
  const auto meta = stat(name);
  DIAS_EXPECTS(block < meta.blocks, "block index out of range");
  const auto checksums = load_checksums(name, meta.blocks);
  return read_block_raw(name, block, checksums[block]);
}

BlockStore::Reader BlockStore::open_reader(const std::string& name) const {
  check_name(name);
  auto meta = stat(name);
  auto checksums = load_checksums(name, meta.blocks);
  return Reader(this, std::move(meta), std::move(checksums));
}

bool BlockStore::Reader::next(std::string& chunk) {
  if (next_block_ >= meta_.blocks) return false;
  chunk = store_->read_block_raw(meta_.name, next_block_, checksums_[next_block_]);
  ++next_block_;
  return true;
}

std::vector<std::string> BlockStore::read_all_lines(const std::string& name) const {
  const auto meta = stat(name);
  std::vector<std::string> lines;
  lines.reserve(meta.lines);
  for (std::size_t b = 0; b < meta.blocks; ++b) {
    auto block = read_block_lines(name, b);
    lines.insert(lines.end(), std::make_move_iterator(block.begin()),
                 std::make_move_iterator(block.end()));
  }
  return lines;
}

std::size_t BlockStore::verify(const std::string& name) const {
  const auto meta = stat(name);
  std::size_t healthy = 0;
  for (std::size_t b = 0; b < meta.blocks; ++b) {
    try {
      read_block_lines(name, b);
      ++healthy;
    } catch (const error&) {
      // corrupt block: not healthy
    }
  }
  return healthy;
}

IoStats BlockStore::io_stats() const {
  return IoStats{blocks_read_.load(), bytes_read_.load(), blocks_written_.load(),
                 bytes_written_.load()};
}

void BlockStore::reset_io_stats() {
  blocks_read_ = 0;
  bytes_read_ = 0;
  blocks_written_ = 0;
  bytes_written_ = 0;
}

}  // namespace dias::storage
