// Two-phase shuffle internals for the mini MapReduce engine.
//
// The old shuffle pushed every record through a per-bucket std::mutex,
// which serializes the whole write side as soon as keys are skewed (every
// hot key hashes to the same lock). The two-phase design removes locks
// from the write path entirely:
//
//   Phase 1 (shuffle write, one task per input partition): each task
//     appends hash-partitioned Segments into buffers owned by its worker
//     slot (ThreadPool::current_slot()), so no two threads ever write the
//     same vector (stage bodies only run on slotted pool workers). With
//     ShuffleOptions::combine the task first folds its records through an
//     open-addressing FlatMap (the map-side combiner), flushing to
//     segments whenever the scratch exceeds target_buffer_bytes.
//
//   Phase 2 (merge, one task per output bucket): each task walks that
//     bucket's segments in (src partition, flush seq) order and merges
//     them into an insertion-ordered FlatMap. Because the visit order is a
//     pure function of the input (never of thread scheduling), the merged
//     output — including floating-point accumulation order and the final
//     entry order — is deterministic for a fixed engine seed.
//
// Memory elasticity: with a finite ShuffleOptions::memory_budget_bytes
// and a SpillBackend attached, the sink tracks the estimated resident
// footprint of all segments (plus combiner scratch, reported by the write
// tasks through adjust_scratch) and, when it crosses the budget, encodes
// the spilling slot's resident segments and hands them to the backend.
// The merge phase streams spilled segments back through consume() in the
// same (src, seq) position they would have occupied resident. With a
// backend attached consume() is non-destructive and the merge body frees
// its bucket through commit_bucket() only after the whole body succeeded,
// so a spill I/O error (or user functor throw) mid-bucket leaves every
// segment intact for the fault-tolerant retry — merge bodies really are
// idempotent, not just assumed to be.
//
// The determinism contract: spilling is content-preserving. It never
// changes segment boundaries, entry order within a segment, or the merge
// visit order — only where the bytes live between the phases. Segment
// boundaries are a pure function of the input and target_buffer_bytes
// (never of the budget, the worker count, or runtime state), which is why
// outputs stay bitwise identical with or without spill at any worker
// count. The spill *trigger* may race across slots — that is fine,
// because triggering only relocates bytes. See DESIGN.md §13.
//
// The stage barrier between the phases (the wave joined in run_stage)
// provides the happens-before edge that lets merge tasks read every
// slot's buffers without synchronization.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "engine/arena.hpp"
#include "engine/breaker.hpp"
#include "engine/spill.hpp"
#include "obs/metrics.hpp"

namespace dias::engine {

namespace detail {
// Budget resolved from DIAS_SHUFFLE_BUDGET_BYTES if set (parsed once),
// else 0 (unbounded). The env hook is how CI's low-memory leg forces
// every `-L spill` test through the spill path without per-test
// plumbing.
std::size_t default_shuffle_budget();
}  // namespace detail

// Tuning knobs for the shuffle in reduce_by_key / group_by_key /
// combine_by_key / distinct. The defaults are right for almost every
// workload; combine = false is mainly useful for benchmarking the raw
// shuffle.
struct ShuffleOptions {
  // Run the map-side combiner: fold records into a per-task
  // open-addressing hash map before they cross the shuffle, so each
  // distinct key ships once per flush instead of once per record.
  bool combine = true;
  // Soft budget for the combiner scratch map — and, symmetrically, the
  // chunk size for raw (combine = false) ships. When the scratch footprint
  // exceeds this the task flushes the map into its shuffle buffers and
  // starts over. The estimate counts entry and slot storage only (heap
  // payload of K/V is invisible to sizeof), so treat it as a knob, not a
  // hard memory bound. Segment boundaries — and therefore shuffle output
  // — depend on this value, never on memory_budget_bytes.
  std::size_t target_buffer_bytes = std::size_t{1} << 20;
  // Sentinel for memory_budget_bytes: resolve the budget from
  // DIAS_SHUFFLE_BUDGET_BYTES at shuffle entry (unbounded when unset).
  static constexpr std::size_t kBudgetFromEnv = static_cast<std::size_t>(-1);
  // Hard budget for resident shuffle state (segments awaiting merge plus
  // combiner scratch, estimated as entry storage). 0 means unbounded.
  // An *explicit* finite budget requires a spill backend
  // (Engine::set_spill_backend) and spillable key/aggregate types, and
  // must be at least the size of one shuffled record; violations are
  // config_error at shuffle entry. The kBudgetFromEnv default is lenient instead: a process-wide
  // env budget applies only to shuffles that can actually spill and is
  // silently ignored otherwise, so exporting the variable never breaks
  // programs that never opted into spilling.
  std::size_t memory_budget_bytes = kBudgetFromEnv;
};

namespace detail {

// Open-addressing (linear probing) hash map with insertion-ordered,
// movable entry storage. No erase, power-of-two slot table, indices into a
// dense entries vector — the shape used by both the map-side combiner and
// the merge accumulator, where iteration order must be deterministic and
// the entries are handed off wholesale at the end. Integer keys are
// mixed through splitmix64 before masking: libstdc++'s std::hash of an
// integer is the identity, so dense, low-biased ids (R-MAT vertices) would
// otherwise fill long contiguous slot runs that every later id probes to
// the end of. String hashes are already mixed and are masked as they are.
// Slots only index `entries_`, so the hash never changes entry order.
template <typename K, typename A, typename Hash = std::hash<K>>
class FlatMap {
 public:
  using Entry = std::pair<K, A>;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  std::vector<Entry>& entries() { return entries_; }
  const std::vector<Entry>& entries() const { return entries_; }

  // Estimated footprint of entry + slot storage (heap payload excluded).
  std::size_t approx_bytes() const {
    return entries_.capacity() * sizeof(Entry) + slots_.capacity() * sizeof(std::uint32_t);
  }

  // Returns the aggregate for `key`; `make()` is invoked to create it only
  // when the key is new, and `*created` reports which case happened.
  template <typename Make>
  A& find_or_emplace(const K& key, Make make, bool* created) {
    if ((entries_.size() + 1) * 8 > slots_.size() * 5) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = slot_of(key, mask);
    for (;;) {
      const std::uint32_t s = slots_[i];
      if (s == kEmpty) {
        DIAS_EXPECTS(entries_.size() < kEmpty, "FlatMap entry count overflow");
        entries_.emplace_back(key, make());
        slots_[i] = static_cast<std::uint32_t>(entries_.size() - 1);
        *created = true;
        return entries_.back().second;
      }
      if (entries_[s].first == key) {
        *created = false;
        return entries_[s].second;
      }
      i = (i + 1) & mask;
    }
  }

  // Drops the entries but keeps the slot capacity, so a combiner reuses
  // its table across flushes.
  void clear() {
    entries_.clear();
    std::fill(slots_.begin(), slots_.end(), kEmpty);
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;

  static std::size_t slot_of(const K& key, std::size_t mask) {
    const std::size_t h = Hash{}(key);
    if constexpr (std::is_integral_v<K>) {
      return static_cast<std::size_t>(splitmix64(h)) & mask;
    } else {
      return h & mask;
    }
  }

  void grow() {
    const std::size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
    slots_.assign(capacity, kEmpty);
    const std::size_t mask = capacity - 1;
    for (std::size_t e = 0; e < entries_.size(); ++e) {
      std::size_t i = slot_of(entries_[e].first, mask);
      while (slots_[i] != kEmpty) i = (i + 1) & mask;
      slots_[i] = static_cast<std::uint32_t>(e);
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;
};

// One batch of (key, aggregate) entries produced by a single shuffle-write
// task (or one combiner flush of it) for a single output bucket. `src` is
// the input partition and `seq` the flush index within that task; together
// they give the merge phase its deterministic visit order. A segment that
// was pushed over budget has `spilled` set: its entries live in the spill
// backend under `spill_id` (encoded as `spill_bytes` bytes holding
// `spill_entries` entries) and `entries` stays empty while spilled.
// `consumed` marks a segment whose entries are gone for good (moved out by
// a destructive consume() or freed by commit_bucket()); consuming it again
// is a loud error, never a silent zero-entry merge.
template <typename K, typename A>
struct ShuffleSegment {
  using EntryVec = ArenaVector<std::pair<K, A>>;

  std::size_t src = 0;
  std::size_t seq = 0;
  // Arena-backed when the write task ran on a slot with a SegmentArena
  // (heap-backed otherwise, e.g. default construction); either way the
  // bytes, boundaries and order are identical.
  EntryVec entries;
  std::uint64_t spill_id = 0;
  std::size_t spill_entries = 0;
  std::size_t spill_bytes = 0;
  bool spilled = false;
  bool consumed = false;
};

// Reusable scratch for radix_split: one bucket id per entry plus a bucket
// histogram. Owned per write task, reused across its combiner flushes so
// the pass-1 buffers are allocated once per stage, not once per flush.
struct RadixScratch {
  std::vector<std::uint32_t> bucket_of;
  std::vector<std::size_t> counts;
};

// Radix-style two-pass hash partitioner for the shuffle write path
// (ISSUE 9 tentpole d). Pass 1 is a tight hash-only loop that writes each
// entry's bucket id into flat scratch and builds the per-bucket histogram
// (no data movement, SIMD/prefetch friendly); pass 2 reserves each bucket
// segment at its exact final size — from `arena` when one is supplied —
// and scatters entries in input order. The scatter is stable, and the
// bucket assignment is the same `hasher(key) % buckets` the old push_back
// loop used, so every emitted segment is byte-for-byte what the one-pass
// code produced; only allocation traffic changes (one exact-sized
// allocation per non-empty bucket instead of geometric growth).
// `emit(bucket, ArenaVector<Entry>&&)` is called in ascending bucket order
// for non-empty buckets only.
template <typename Entry, typename Hasher, typename Emit>
void radix_split(std::vector<Entry>&& entries, std::size_t buckets, const Hasher& hasher,
                 RadixScratch& scratch, SegmentArena* arena, Emit&& emit) {
  const std::size_t n = entries.size();
  scratch.bucket_of.resize(n);
  scratch.counts.assign(buckets, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = static_cast<std::uint32_t>(hasher(entries[i].first) % buckets);
    scratch.bucket_of[i] = b;
    ++scratch.counts[b];
  }
  std::vector<ArenaVector<Entry>> split;
  split.reserve(buckets);
  for (std::size_t b = 0; b < buckets; ++b) {
    split.emplace_back(ArenaAllocator<Entry>(arena));
    if (scratch.counts[b] != 0) split.back().reserve(scratch.counts[b]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    split[scratch.bucket_of[i]].push_back(std::move(entries[i]));
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    if (!split[b].empty()) emit(b, std::move(split[b]));
  }
}

// Sink configuration resolved by the Engine for one shuffle: the
// effective budget and the backend to spill through. Default-constructed
// means unbounded / never spill.
struct SpillPolicy {
  std::size_t budget_bytes = 0;  // 0 = unbounded
  SpillBackend* backend = nullptr;
  // Circuit breaker governing spill WRITES; required whenever `backend`
  // is set. A failed or breaker-denied write keeps the segment resident
  // (spilling is pure relocation, so in-memory is always a sound
  // fallback) and feeds the breaker; reads are never denied but their
  // failures feed it too.
  SpillBreaker* breaker = nullptr;
};

// Collection point between the two phases. Writers append segments to
// per-(slot, bucket) vectors without synchronization; every writer must
// hold a worker slot of the engine's pool (a slotless push is a
// precondition error). Readers may only call bucket_segments() /
// consume() after every writer finished (the stage barrier).
//
// With a finite SpillPolicy, each push updates a global resident-bytes
// estimate; when it crosses the budget, the pushing slot encodes and
// spills every resident segment it owns. Only the pushing slot's segments
// are touched — no cross-slot access, so the write path stays
// synchronization-free.
template <typename K, typename A>
class ShuffleSink {
 public:
  using Segment = ShuffleSegment<K, A>;
  using Entry = std::pair<K, A>;
  static constexpr bool kSpillable = is_spillable<Entry>::value;

  ShuffleSink(std::size_t slots, std::size_t buckets, SpillPolicy policy = {})
      : policy_(policy), slots_(slots, SlotState(buckets)), buckets_(buckets) {
    DIAS_EXPECTS(policy.backend == nullptr || policy.breaker != nullptr,
                 "a spill backend needs a circuit breaker");
  }

  ~ShuffleSink() {
    // Segments the merge phase never consumed (dropped buckets, aborted
    // stages) would otherwise leak backend storage.
    if (policy_.backend == nullptr) return;
    for (auto& state : slots_) {
      for (auto& bucket : state.buckets) {
        for (auto& segment : bucket) {
          if (!segment.spilled) continue;
          try {
            policy_.backend->release(segment.spill_id);
          } catch (...) {  // NOLINT(bugprone-empty-catch): teardown best effort
          }
        }
      }
    }
  }

  ShuffleSink(const ShuffleSink&) = delete;
  ShuffleSink& operator=(const ShuffleSink&) = delete;

  std::size_t buckets() const { return buckets_; }

  void push(std::size_t slot, std::size_t bucket, Segment&& segment) {
    DIAS_EXPECTS(slot < slots_.size(), "shuffle write from a thread without a worker slot");
    DIAS_EXPECTS(bucket < buckets_, "shuffle bucket out of range");
    const std::size_t bytes = segment.entries.size() * sizeof(Entry);
    auto& state = slots_[slot];
    state.buckets[bucket].push_back(std::move(segment));
    state.resident_bytes += bytes;
    resident_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    if (policy_.budget_bytes != 0) maybe_spill(slot);
  }

  // Write tasks report combiner-scratch growth/shrink here so scratch
  // counts against the budget. A positive delta may trigger the slot's
  // resident segments to spill; the scratch itself never spills (it flushes
  // through push() at target_buffer_bytes like always), so scratch bytes
  // influence *when* segments relocate but never *what* they contain.
  void adjust_scratch(std::size_t slot, std::ptrdiff_t delta) {
    DIAS_EXPECTS(slot < slots_.size(), "shuffle write from a thread without a worker slot");
    if (delta == 0) return;
    resident_bytes_.fetch_add(static_cast<std::size_t>(delta), std::memory_order_relaxed);
    if (delta > 0 && policy_.budget_bytes != 0) maybe_spill(slot);
  }

  // Every segment destined for `bucket`, sorted by (src, seq). Pointers
  // stay valid until the sink is destroyed; the caller may move from the
  // segments it receives. A retried write task can leave duplicate
  // (src, seq) segments behind — complete and identical by the
  // determinism contract, since segment boundaries are a pure function of
  // the input — so equal positions collapse to one copy (preferring a
  // resident one) instead of double-counting records.
  std::vector<Segment*> bucket_segments(std::size_t bucket) {
    DIAS_EXPECTS(bucket < buckets_, "shuffle bucket out of range");
    std::vector<Segment*> out;
    for (auto& state : slots_) {
      for (auto& segment : state.buckets[bucket]) out.push_back(&segment);
    }
    std::sort(out.begin(), out.end(), [](const Segment* a, const Segment* b) {
      if (a->src != b->src) return a->src < b->src;
      if (a->seq != b->seq) return a->seq < b->seq;
      return a->spilled < b->spilled;
    });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const Segment* a, const Segment* b) {
                            return a->src == b->src && a->seq == b->seq;
                          }),
              out.end());
    return out;
  }

  // Feeds the segment's entries to `fn(Entry&&)` in stored order — straight
  // from memory for resident segments, streamed back from the backend for
  // spilled ones — and returns the entry count.
  //
  // With a spill backend attached, consume() is NON-destructive so the
  // merge body stays idempotent for the retry path: resident entries are
  // fed as copies and spilled segments keep their backend storage. The
  // body frees the bucket with commit_bucket() after it fully succeeded;
  // a failed attempt (spill I/O error, user functor throw) leaves every
  // segment intact for the next attempt. Without a backend nothing inside
  // consume() can throw mid-bucket except the user functor, so the legacy
  // destructive fast path stands — guarded by `consumed` so a re-entered
  // body fails loudly instead of merging silently empty segments.
  template <typename Fn>
  std::size_t consume(Segment& segment, Fn&& fn) {
    if (segment.consumed) {
      throw error(
          "shuffle merge re-entered a consumed segment (non-idempotent retry "
          "after a mid-bucket failure); its entries are gone");
    }
    if (!segment.spilled) {
      // Move-only entry types are never spillable, so they never see an
      // attached backend; compiling the copy lane out keeps them building.
      if constexpr (std::is_copy_constructible_v<Entry>) {
        if (policy_.backend != nullptr) {
          for (auto& entry : segment.entries) fn(Entry(entry));
          return segment.entries.size();
        }
      }
      segment.consumed = true;
      const std::size_t count = segment.entries.size();
      for (auto& entry : segment.entries) fn(std::move(entry));
      release_entries(segment);
      return count;
    }
    if constexpr (kSpillable) {
      // Stream-back feeds the breaker: reads are never denied (the data
      // lives only on the backend), but their failures count — a disk
      // that cannot be read should stop taking writes. A user-functor
      // throw mid-stream is indistinguishable here and counts too; that
      // only makes the breaker trip conservatively, and it gates nothing
      // but writes.
      std::size_t count = 0;
      try {
        SpillCursor cursor(policy_.backend->open(segment.spill_id));
        count = decode_spill_segment<Entry>(cursor, fn);
        if (count != segment.spill_entries) {
          throw error("corrupt spill segment: entry count mismatch");
        }
      } catch (const error&) {
        policy_.breaker->record_failure();
        throw;
      }
      policy_.breaker->record_success();
      restored_segments_.fetch_add(1, std::memory_order_relaxed);
      return count;
    } else {
      // A segment can only be marked spilled through spill paths that are
      // compiled out for non-spillable entries.
      throw error("spilled segment of non-spillable entry type");
    }
  }

  // Post-body step of the merge phase: after a bucket's body completed,
  // frees its resident entries and releases its spilled segments' backend
  // storage. Runs at most once per bucket (the stage layer guarantees a
  // body never *completes* twice) and never throws — release failures are
  // swallowed like the destructor's, so a completed bucket can never be
  // retried into a half-freed state. Skipped buckets (dropped merge
  // tasks) keep their storage until the destructor.
  void commit_bucket(std::size_t bucket) {
    if (policy_.backend == nullptr) return;  // destructive consume already freed
    DIAS_EXPECTS(bucket < buckets_, "shuffle bucket out of range");
    auto commit = [this](Segment& segment) {
      if (segment.spilled) {
        try {
          policy_.backend->release(segment.spill_id);
        } catch (...) {  // NOLINT(bugprone-empty-catch): best effort, like teardown
        }
        segment.spilled = false;
      }
      release_entries(segment);
      segment.consumed = true;
    };
    for (auto& state : slots_) {
      for (auto& segment : state.buckets[bucket]) commit(segment);
    }
  }

  std::size_t resident_bytes() const {
    return resident_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t spilled_segments() const {
    return spilled_segments_.load(std::memory_order_relaxed);
  }
  std::uint64_t spilled_bytes() const {
    return spilled_bytes_.load(std::memory_order_relaxed);
  }
  std::uint64_t restored_segments() const {
    return restored_segments_.load(std::memory_order_relaxed);
  }
  // Segments that stayed resident because the breaker denied the write or
  // the backend failed it ("degraded to in-memory", vs "retried clean").
  std::uint64_t fallback_segments() const {
    return fallback_segments_.load(std::memory_order_relaxed);
  }
  std::uint64_t write_failures() const {
    return write_failures_.load(std::memory_order_relaxed);
  }

 private:
  // Frees a segment's entry storage through ITS OWN allocator: swapping in
  // a plain std::vector would be UB once entries are arena-backed (unequal
  // allocators), and for arena memory "free" is a no-op anyway — the bytes
  // come back at the engine's epoch reset.
  static void release_entries(Segment& segment) {
    typename Segment::EntryVec(segment.entries.get_allocator()).swap(segment.entries);
  }

  // Cache-line aligned: each slot's state is written only by its owning
  // worker during the write phase; without the padding, neighboring slots'
  // push bookkeeping would false-share one line.
  struct alignas(obs::kCacheLineBytes) SlotState {
    explicit SlotState(std::size_t buckets) : buckets(buckets) {}
    std::vector<std::vector<Segment>> buckets;
    // Bytes of this slot's resident segment entries — lets maybe_spill
    // skip the O(buckets) sweep when this slot has nothing left to spill
    // (e.g. scratch growth alone keeps re-crossing the budget).
    std::size_t resident_bytes = 0;
  };

  void maybe_spill(std::size_t slot) {
    if constexpr (kSpillable) {
      if (resident_bytes_.load(std::memory_order_relaxed) <= policy_.budget_bytes) return;
      auto& state = slots_[slot];
      if (state.resident_bytes == 0) return;
      for (auto& bucket : state.buckets) {
        for (auto& segment : bucket) {
          if (!segment.spilled && !segment.entries.empty()) spill_segment(state, segment);
        }
      }
    }
  }

  void spill_segment(SlotState& state, Segment& segment) {
    if constexpr (kSpillable) {
      // Breaker-governed write: an open breaker keeps the segment resident
      // without touching the dead backend; a failed write does the same
      // and records the failure. Either way the shuffle degrades to the
      // in-memory path it already supports bit-for-bit — the budget is
      // overshot, the bytes are intact.
      if (!policy_.breaker->allow()) {
        fallback_segments_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const std::size_t bytes = segment.entries.size() * sizeof(Entry);
      const std::string encoded = encode_spill_segment(segment.entries);
      try {
        segment.spill_id = policy_.backend->write(encoded);
      } catch (const error&) {
        policy_.breaker->record_failure();
        write_failures_.fetch_add(1, std::memory_order_relaxed);
        fallback_segments_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      policy_.breaker->record_success();
      segment.spill_entries = segment.entries.size();
      segment.spill_bytes = encoded.size();
      segment.spilled = true;
      release_entries(segment);
      state.resident_bytes -= bytes;
      resident_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      spilled_segments_.fetch_add(1, std::memory_order_relaxed);
      spilled_bytes_.fetch_add(segment.spill_bytes, std::memory_order_relaxed);
    }
  }

  SpillPolicy policy_;
  std::vector<SlotState> slots_;
  std::size_t buckets_;
  // Estimated resident footprint: segment entry storage across all slots
  // plus reported combiner scratch. Relaxed is fine — the value only
  // decides when to relocate bytes, never what they are. Every slot's
  // budgeted push RMWs this word, so it gets its own cache line away from
  // the colder spill counters (and the members above).
  alignas(obs::kCacheLineBytes) std::atomic<std::size_t> resident_bytes_{0};
  alignas(obs::kCacheLineBytes) std::atomic<std::uint64_t> spilled_segments_{0};
  std::atomic<std::uint64_t> spilled_bytes_{0};
  std::atomic<std::uint64_t> restored_segments_{0};
  std::atomic<std::uint64_t> fallback_segments_{0};
  std::atomic<std::uint64_t> write_failures_{0};
};

}  // namespace detail
}  // namespace dias::engine
