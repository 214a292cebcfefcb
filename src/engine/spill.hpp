// Spill substrate for the memory-elastic shuffle (ISSUE 6).
//
// The two-phase shuffle keeps every segment resident between the write
// and merge phases, so dataset size — not theta — bounds what the engine
// can process. This header defines the engine-side half of the fix:
//
//   * SpillBackend — where encoded segments go when the shuffle's
//     estimated resident footprint crosses ShuffleOptions::
//     memory_budget_bytes. The interface is deliberately opaque (write
//     bytes -> handle, open handle -> chunk stream) so the engine never
//     learns about storage; the BlockStore-backed implementation lives in
//     src/storage/spill_store.hpp, respecting the dias_storage ->
//     dias_engine dependency direction.
//   * SpillCodec — a binary serde for the key/aggregate types the engine
//     actually shuffles (arithmetic types, strings, pairs, vectors).
//     Types without a codec still compile and shuffle in memory; asking
//     them to spill is a config_error at shuffle entry.
//   * encode/decode_spill_segment — the segment wire format: a 4-byte
//     magic, a 64-bit entry count, the entries back to back, then a
//     trailing 64-bit FNV-1a checksum over everything before it. The
//     decoder streams entries out of bounded chunks (never materializing
//     the segment) and treats any mismatch — bad magic, truncation,
//     trailing bytes, an entry-count lie, a checksum miss — as a corrupt
//     segment. The checksum is what turns a flipped payload byte (which
//     framing alone can decode into plausible-but-wrong entries) into a
//     detected fault; the chaos plane's corrupt-on-write shape is the
//     regression test for exactly that.
//
// Spilling never changes *what* segments exist, only *where* they live:
// segment boundaries stay a pure function of the input and
// target_buffer_bytes, and the merge phase visits spilled and resident
// segments in the same (src, seq) order. That is the invariant that keeps
// results bitwise identical with or without spill (see DESIGN.md §13).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace dias::engine {

// Sequential chunk stream over one spilled segment. Chunk sizing is the
// backend's choice (the block-store backend yields one block per call);
// callers only assume chunks arrive in order and concatenate to the
// written bytes.
class SpillReader {
 public:
  virtual ~SpillReader() = default;
  // Replaces `chunk` with the next run of bytes; false at end of segment.
  virtual bool next(std::string& chunk) = 0;
};

struct SpillStats {
  std::uint64_t segments_written = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t segments_read = 0;
  std::uint64_t bytes_read = 0;
};

// Destination for spilled shuffle segments. Implementations must be
// thread-safe: shuffle write tasks spill concurrently from every worker
// slot, and merge tasks stream segments back concurrently per bucket.
class SpillBackend {
 public:
  virtual ~SpillBackend() = default;
  // Persists one encoded segment; the returned handle is opaque to the
  // engine and unique within this backend.
  virtual std::uint64_t write(const std::string& bytes) = 0;
  // Opens a previously written segment for streaming. Throws dias::error
  // when the segment is missing or unreadable.
  virtual std::unique_ptr<SpillReader> open(std::uint64_t handle) = 0;
  // Frees the segment's storage; called once per consumed segment and for
  // leftovers when the shuffle is torn down. Must tolerate a handle whose
  // storage already vanished.
  virtual void release(std::uint64_t handle) = 0;
  virtual SpillStats stats() const = 0;
};

namespace detail {

// Pull cursor over a SpillReader: bounds-checked reads across chunk
// boundaries, so decoders never hold more than one backend chunk. Keeps a
// running FNV-1a over every byte it hands out, so the segment decoder can
// verify the trailing checksum without a second pass.
class SpillCursor {
 public:
  explicit SpillCursor(std::unique_ptr<SpillReader> reader)
      : reader_(std::move(reader)) {}

  // Copies exactly `n` bytes into `dst`; truncation is corruption.
  void read(void* dst, std::size_t n) {
    auto* out = static_cast<char*>(dst);
    while (n > 0) {
      if (pos_ == chunk_.size() && !refill()) {
        throw error("corrupt spill segment: truncated");
      }
      const std::size_t take = std::min(n, chunk_.size() - pos_);
      std::memcpy(out, chunk_.data() + pos_, take);
      hash_ = fnv1a({chunk_.data() + pos_, take}, hash_);
      pos_ += take;
      out += take;
      n -= take;
    }
  }

  // Appends exactly `n` bytes to `dst`, chunk by chunk — a corrupt length
  // prefix can only make this allocate as many bytes as the segment
  // actually holds before the truncation check fires.
  void read_append(std::string& dst, std::size_t n) {
    while (n > 0) {
      if (pos_ == chunk_.size() && !refill()) {
        throw error("corrupt spill segment: truncated");
      }
      const std::size_t take = std::min(n, chunk_.size() - pos_);
      dst.append(chunk_.data() + pos_, take);
      hash_ = fnv1a({chunk_.data() + pos_, take}, hash_);
      pos_ += take;
      n -= take;
    }
  }

  // FNV-1a over all bytes consumed so far. Snapshot *before* reading a
  // stored checksum so the checksum bytes themselves stay out of the hash.
  std::uint64_t hash() const { return hash_; }

  // True when no bytes remain (pulls the next chunk to find out).
  bool exhausted() {
    while (pos_ == chunk_.size()) {
      if (!refill()) return true;
    }
    return false;
  }

  // Bytes pulled from the backend so far (consumed or buffered).
  std::size_t bytes_streamed() const { return bytes_streamed_; }

 private:
  bool refill() {
    chunk_.clear();
    pos_ = 0;
    while (reader_ != nullptr && reader_->next(chunk_)) {
      if (!chunk_.empty()) {
        bytes_streamed_ += chunk_.size();
        return true;
      }
    }
    reader_.reset();
    return false;
  }

  std::unique_ptr<SpillReader> reader_;
  std::string chunk_;
  std::size_t pos_ = 0;
  std::size_t bytes_streamed_ = 0;
  std::uint64_t hash_ = kFnvOffset;
};

// Binary serde for spillable types. The primary template is left
// undefined: a type is spillable exactly when a specialization below (or
// a user-provided one) applies, which is_spillable<T> detects.
template <typename T, typename Enable = void>
struct SpillCodec;

template <typename T, typename = void>
struct is_spillable : std::false_type {};
template <typename T>
struct is_spillable<T, std::void_t<decltype(SpillCodec<std::remove_cv_t<T>>::encode(
                           std::declval<const std::remove_cv_t<T>&>(),
                           std::declval<std::string&>()))>> : std::true_type {};

// Fixed-width little-endian-as-stored encoding for arithmetic types. The
// spill file never outlives the process, so native byte order is fine.
template <typename T>
struct SpillCodec<T, std::enable_if_t<std::is_arithmetic_v<T>>> {
  static void encode(const T& v, std::string& out) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  static T decode(SpillCursor& in) {
    T v;
    in.read(&v, sizeof(T));
    return v;
  }
};

template <>
struct SpillCodec<std::string, void> {
  static void encode(const std::string& v, std::string& out) {
    const std::uint64_t len = v.size();
    out.append(reinterpret_cast<const char*>(&len), sizeof(len));
    out.append(v);
  }
  static std::string decode(SpillCursor& in) {
    std::uint64_t len = 0;
    in.read(&len, sizeof(len));
    std::string v;
    in.read_append(v, static_cast<std::size_t>(len));
    return v;
  }
};

template <typename A, typename B>
struct SpillCodec<std::pair<A, B>,
                  std::enable_if_t<is_spillable<A>::value && is_spillable<B>::value>> {
  static void encode(const std::pair<A, B>& v, std::string& out) {
    SpillCodec<std::remove_cv_t<A>>::encode(v.first, out);
    SpillCodec<std::remove_cv_t<B>>::encode(v.second, out);
  }
  static std::pair<A, B> decode(SpillCursor& in) {
    auto first = SpillCodec<std::remove_cv_t<A>>::decode(in);
    auto second = SpillCodec<std::remove_cv_t<B>>::decode(in);
    return {std::move(first), std::move(second)};
  }
};

// Vectors of arithmetic types (bool aside: std::vector<bool> is packed)
// move their elements with one append on encode and one cursor read per
// batch on decode; the bytes are the same as element-by-element encoding.
template <typename T>
inline constexpr bool kBulkSpillVector = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

// Elements a bulk vector decode adds per read. Growing by bounded batches
// keeps the vector at most one batch ahead of the bytes actually read, so
// a corrupt length prefix hits the truncation check instead of allocating
// what it claims.
inline constexpr std::size_t kSpillVectorBatch = 4096;

template <typename T>
struct SpillCodec<std::vector<T>, std::enable_if_t<is_spillable<T>::value>> {
  static void encode(const std::vector<T>& v, std::string& out) {
    const std::uint64_t len = v.size();
    out.append(reinterpret_cast<const char*>(&len), sizeof(len));
    if constexpr (kBulkSpillVector<T>) {
      out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
    } else {
      for (const auto& x : v) SpillCodec<std::remove_cv_t<T>>::encode(x, out);
    }
  }
  static std::vector<T> decode(SpillCursor& in) {
    std::uint64_t len = 0;
    in.read(&len, sizeof(len));
    std::vector<T> v;
    if constexpr (kBulkSpillVector<T>) {
      while (v.size() < len) {
        const std::size_t done = v.size();
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(len - done, kSpillVectorBatch));
        v.resize(done + n);
        in.read(v.data() + done, n * sizeof(T));
      }
    } else {
      // No blind reserve: a corrupt length must hit the truncation check,
      // not bulk-allocate.
      for (std::uint64_t i = 0; i < len; ++i) {
        v.push_back(SpillCodec<std::remove_cv_t<T>>::decode(in));
      }
    }
    return v;
  }
};

inline constexpr std::uint32_t kSpillMagic = 0x44535032;  // "DSP2": checksummed

// Accepts any contiguous Entry container (std::vector with any allocator —
// arena-backed segment vectors encode the same bytes as heap ones).
template <typename EntryVec>
std::string encode_spill_segment(const EntryVec& entries) {
  using Entry = typename EntryVec::value_type;
  std::string out;
  out.append(reinterpret_cast<const char*>(&kSpillMagic), sizeof(kSpillMagic));
  const std::uint64_t count = entries.size();
  out.append(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const auto& e : entries) SpillCodec<Entry>::encode(e, out);
  const std::uint64_t checksum = fnv1a(out);
  out.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return out;
}

// Streams the segment's entries into `fn(Entry&&)` in stored order and
// returns the entry count. Every framing or checksum violation throws
// dias::error. The decoder is single-pass, so `fn` may see entries from a
// segment whose checksum later fails; callers must discard the attempt's
// partial state on throw — the shuffle merge does (a failed merge attempt
// drops its accumulator, and resident segments are copied, not consumed,
// whenever a backend is attached).
template <typename Entry, typename Fn>
std::size_t decode_spill_segment(SpillCursor& in, Fn&& fn) {
  std::uint32_t magic = 0;
  in.read(&magic, sizeof(magic));
  if (magic != kSpillMagic) {
    char msg[80];
    std::snprintf(msg, sizeof(msg),
                  "corrupt spill segment: bad magic 0x%08x (expected 0x%08x)",
                  magic, kSpillMagic);
    throw error(msg);
  }
  std::uint64_t count = 0;
  in.read(&count, sizeof(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    fn(SpillCodec<Entry>::decode(in));
  }
  const std::uint64_t computed = in.hash();
  std::uint64_t stored = 0;
  in.read(&stored, sizeof(stored));
  if (stored != computed) {
    throw error("corrupt spill segment: checksum mismatch");
  }
  if (!in.exhausted()) {
    throw error("corrupt spill segment: trailing bytes");
  }
  return static_cast<std::size_t>(count);
}

}  // namespace detail
}  // namespace dias::engine
