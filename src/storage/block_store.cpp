#include "storage/block_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <sstream>
#include <string_view>

#include "chaos/chaos.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"

namespace dias::storage {
namespace {

constexpr std::string_view kMetaSuffix = ".meta";

void check_name(const std::string& name) {
  DIAS_EXPECTS(!name.empty(), "file name must be non-empty");
  DIAS_EXPECTS(name.find('/') == std::string::npos && name.find("..") == std::string::npos,
               "file name must be a plain identifier");
}

// An open file descriptor, closed on scope exit.
class Fd {
 public:
  explicit Fd(int fd) : fd_(fd) {}
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  int get() const { return fd_; }
  bool ok() const { return fd_ >= 0; }

 private:
  int fd_;
};

// Replaces the content of `path` with `data` (created if missing).
void write_file(const std::filesystem::path& path, std::string_view data) {
  const Fd fd(::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  DIAS_EXPECTS(fd.ok(), "cannot open block store file for writing");
  while (!data.empty()) {
    const ssize_t n = ::write(fd.get(), data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw error("block store write failed: " + path.string());
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

// Reads `size` bytes at `offset` of `path` into `out`, resized to `size`.
// False when the file is missing or does not hold the whole range.
bool read_range(const std::filesystem::path& path, std::uint64_t offset, std::size_t size,
                std::string& out) {
  const Fd fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  struct stat st {};
  if (!fd.ok() || ::fstat(fd.get(), &st) != 0 ||
      static_cast<std::uint64_t>(st.st_size) < offset + size) {
    return false;
  }
  out.resize(size);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::pread(fd.get(), out.data() + done, size - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

void append_number(std::string& out, std::uint64_t v, char sep) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  out += sep;
}

// Whitespace-separated unsigned integers out of a meta file's text.
class MetaTokens {
 public:
  explicit MetaTokens(std::string_view text) : text_(text) {}

  bool next(std::uint64_t& v) {
    skip_space();
    const auto [end, ec] = std::from_chars(text_.data(), text_.data() + text_.size(), v);
    if (ec != std::errc{}) return false;
    text_.remove_prefix(static_cast<std::size_t>(end - text_.data()));
    return true;
  }

  bool at_end() {
    skip_space();
    return text_.empty();
  }

  std::size_t remaining() const { return text_.size(); }

 private:
  void skip_space() {
    while (!text_.empty() && (text_.front() == ' ' || text_.front() == '\n')) {
      text_.remove_prefix(1);
    }
  }

  std::string_view text_;
};

// Appends the '\n'-terminated lines of one line block to `lines`.
void append_lines(const std::string& block, std::vector<std::string>& lines) {
  std::istringstream stream(block);
  std::string line;
  while (std::getline(stream, line)) lines.push_back(std::move(line));
}

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

BlockStore::BlockStore(BlockStoreOptions options) : options_(std::move(options)) {
  DIAS_EXPECTS(!options_.root.empty(), "block store needs a root directory");
  DIAS_EXPECTS(options_.block_bytes >= 64, "block size too small");
  DIAS_EXPECTS(options_.replication >= 1, "replication must be >= 1");
  std::filesystem::create_directories(options_.root);
}

std::filesystem::path BlockStore::meta_path(const std::string& name) const {
  return options_.root / (name + std::string(kMetaSuffix));
}

std::filesystem::path BlockStore::data_path(const std::string& name, int replica) const {
  return options_.root / (name + ".r" + std::to_string(replica));
}

FileMetadata BlockStore::write_lines(const std::string& name,
                                     const std::vector<std::string>& lines) {
  check_name(name);
  if (storage_write_point().armed()) {
    storage_write_point().inject(fnv1a(name), lines.size());
  }
  std::string data;
  std::vector<std::uint64_t> ends;
  std::size_t block_start = 0;
  for (const auto& line : lines) {
    data += line;
    data += '\n';
    if (data.size() - block_start >= options_.block_bytes) {
      block_start = data.size();
      ends.push_back(block_start);
    }
  }
  if (data.size() > block_start) ends.push_back(data.size());
  return write_blocks(name, data, ends, lines.size());
}

FileMetadata BlockStore::write_bytes(const std::string& name, const std::string& data) {
  check_name(name);
  if (storage_write_point().armed()) {
    storage_write_point().inject(fnv1a(name), data.size());
  }
  std::vector<std::uint64_t> ends;
  for (std::size_t off = 0; off < data.size(); off += options_.block_bytes) {
    ends.push_back(std::min(off + options_.block_bytes, data.size()));
  }
  return write_blocks(name, data, ends, 0);
}

FileMetadata BlockStore::write_blocks(const std::string& name, const std::string& data,
                                      const std::vector<std::uint64_t>& ends,
                                      std::size_t lines) {
  for (int r = 0; r < options_.replication; ++r) write_file(data_path(name, r), data);

  FileMetadata meta;
  meta.name = name;
  meta.bytes = data.size();
  meta.blocks = ends.size();
  meta.lines = lines;
  std::string text;
  append_number(text, meta.bytes, ' ');
  append_number(text, meta.blocks, ' ');
  append_number(text, meta.lines, '\n');
  std::uint64_t begin = 0;
  for (const std::uint64_t end : ends) {
    append_number(text, end, ' ');
    append_number(text, fnv1a(std::string_view(data).substr(begin, end - begin)), '\n');
    begin = end;
  }
  write_file(meta_path(name), text);

  blocks_written_ += static_cast<std::uint64_t>(meta.blocks) * options_.replication;
  bytes_written_ += static_cast<std::uint64_t>(meta.bytes) * options_.replication;
  return meta;
}

BlockStore::Index BlockStore::load_index(const std::string& name) const {
  check_name(name);
  std::string text;
  {
    const Fd fd(::open(meta_path(name).c_str(), O_RDONLY | O_CLOEXEC));
    DIAS_EXPECTS(fd.ok(), "file does not exist in block store");
    char buf[4096];
    for (;;) {
      const ssize_t n = ::read(fd.get(), buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) throw error("cannot read block store metadata: " + name);
      if (n == 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    }
  }
  const auto corrupt = [&name](const char* what) {
    return error("corrupt block store metadata (" + std::string(what) + "): " + name);
  };

  Index index;
  index.meta.name = name;
  MetaTokens tokens(text);
  std::uint64_t bytes = 0;
  std::uint64_t blocks = 0;
  std::uint64_t lines = 0;
  if (!tokens.next(bytes) || !tokens.next(blocks) || !tokens.next(lines)) {
    throw corrupt("truncated header");
  }
  // Each block entry takes at least four characters ("1 1\n"), so a
  // block count the text cannot hold is a lie, not an allocation size.
  if (blocks > tokens.remaining() / 4) throw corrupt("truncated block list");
  index.ends.reserve(blocks);
  index.checksums.reserve(blocks);
  std::uint64_t prev_end = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    std::uint64_t end = 0;
    std::uint64_t checksum = 0;
    if (!tokens.next(end) || !tokens.next(checksum)) throw corrupt("truncated block list");
    if (end <= prev_end) throw corrupt("block offsets not increasing");
    index.ends.push_back(end);
    index.checksums.push_back(checksum);
    prev_end = end;
  }
  if (prev_end != bytes) throw corrupt("block offsets do not end at the file size");
  if (!tokens.at_end()) throw corrupt("trailing bytes");
  index.meta.bytes = static_cast<std::size_t>(bytes);
  index.meta.blocks = static_cast<std::size_t>(blocks);
  index.meta.lines = static_cast<std::size_t>(lines);
  return index;
}

FileMetadata BlockStore::stat(const std::string& name) const {
  return load_index(name).meta;
}

bool BlockStore::exists(const std::string& name) const {
  return std::filesystem::exists(meta_path(name));
}

std::vector<std::string> BlockStore::list() const {
  std::vector<std::string> names;
  if (!std::filesystem::exists(options_.root)) return names;
  for (const auto& entry : std::filesystem::directory_iterator(options_.root)) {
    const std::string file = entry.path().filename().string();
    if (entry.is_regular_file() && file.size() > kMetaSuffix.size() &&
        file.ends_with(kMetaSuffix)) {
      names.push_back(file.substr(0, file.size() - kMetaSuffix.size()));
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

void BlockStore::remove(const std::string& name) {
  check_name(name);
  std::filesystem::remove(meta_path(name));
  for (int r = 0; r < options_.replication; ++r) std::filesystem::remove(data_path(name, r));
}

std::string BlockStore::read_block_raw(const Index& index, std::size_t block) const {
  const std::string& name = index.meta.name;
  if (storage_read_point().armed()) {
    storage_read_point().inject(fnv1a(name), block);
  }
  const std::uint64_t begin = block == 0 ? 0 : index.ends[block - 1];
  const auto size = static_cast<std::size_t>(index.ends[block] - begin);
  std::string data;
  for (int r = 0; r < options_.replication; ++r) {
    if (!read_range(data_path(name, r), begin, size, data)) continue;
    if (fnv1a(data) != index.checksums[block]) continue;  // corrupt copy: try a replica
    ++blocks_read_;
    bytes_read_ += data.size();
    return data;
  }
  throw error("all replicas of block are missing or corrupt: " + name);
}

std::vector<std::string> BlockStore::read_block_lines(const std::string& name,
                                                      std::size_t block) const {
  std::vector<std::string> lines;
  append_lines(read_block_bytes(name, block), lines);
  return lines;
}

std::string BlockStore::read_block_bytes(const std::string& name, std::size_t block) const {
  const Index index = load_index(name);
  DIAS_EXPECTS(block < index.meta.blocks, "block index out of range");
  return read_block_raw(index, block);
}

BlockStore::Reader BlockStore::open_reader(const std::string& name) const {
  return Reader(this, load_index(name));
}

bool BlockStore::Reader::next(std::string& chunk) {
  if (next_block_ >= index_.meta.blocks) return false;
  chunk = store_->read_block_raw(index_, next_block_);
  ++next_block_;
  return true;
}

std::vector<std::string> BlockStore::read_all_lines(const std::string& name) const {
  auto reader = open_reader(name);
  std::vector<std::string> lines;
  lines.reserve(reader.meta().lines);
  std::string block;
  while (reader.next(block)) append_lines(block, lines);
  return lines;
}

std::size_t BlockStore::verify(const std::string& name) const {
  const Index index = load_index(name);
  std::size_t healthy = 0;
  for (std::size_t b = 0; b < index.meta.blocks; ++b) {
    try {
      read_block_raw(index, b);
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
