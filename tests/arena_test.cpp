// SegmentArena lifecycle battery (ISSUE 9).
//
// The arena's contract has three load-bearing clauses, each pinned here:
//   * epoch discipline — reset() recycles every chunk, bumps the epoch,
//     and (in Debug) scribbles recycled memory so stale segment reads
//     fail loudly instead of returning previous-epoch bytes. Under the
//     asan CI leg recycled chunks are re-poisoned, so ANY use of a
//     segment that outlived its epoch is a hard stop, not a flake.
//   * allocator semantics — ArenaAllocator with a null arena is the
//     global heap (default-constructed segments in tests keep working);
//     equality is by arena identity, which is what makes the
//     get_allocator()-preserving swap in ShuffleSink::release_entries
//     well-defined.
//   * determinism — arena-backed shuffles must not change a single result
//     bit, checked through the Engine over randomized stage sequences
//     against a plain fold (the property leg), with the engine's own arena
//     telemetry proving the arenas actually cycled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "engine/arena.hpp"
#include "engine/engine.hpp"
#include "obs/metrics.hpp"

namespace dias::engine {
namespace {

using detail::ArenaAllocator;
using detail::ArenaVector;
using detail::SegmentArena;

TEST(SegmentArenaTest, BumpAllocationStaysInsideOneChunk) {
  SegmentArena arena(/*chunk_bytes=*/1024);
  void* a = arena.allocate(100, 8);
  void* b = arena.allocate(100, 8);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(arena.chunk_count(), 1u);
  // Bump pointers advance monotonically within the chunk.
  EXPECT_GT(static_cast<std::byte*>(b), static_cast<std::byte*>(a));
  EXPECT_GE(arena.used_bytes(), 200u);
  arena.deallocate(a, 100);
  arena.deallocate(b, 100);
}

TEST(SegmentArenaTest, AlignmentIsRespected) {
  SegmentArena arena(/*chunk_bytes=*/4096);
  for (const std::size_t align : {std::size_t{8}, std::size_t{16}, std::size_t{64}}) {
    arena.allocate(3, 8);  // misalign the bump offset
    void* p = arena.allocate(32, align);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u) << "align " << align;
  }
  arena.reset();
}

TEST(SegmentArenaTest, ResetRecyclesChunksAndBumpsEpoch) {
  SegmentArena arena(/*chunk_bytes=*/1024);  // ctor floor: smaller is clamped up
  EXPECT_EQ(arena.epoch(), 0u);
  // Force several chunks in epoch 0 (two 400-byte allocations per chunk).
  for (int i = 0; i < 8; ++i) arena.allocate(400, 8);
  const std::size_t chunks = arena.chunk_count();
  EXPECT_GE(chunks, 4u);
  const std::size_t reserved = arena.reserved_bytes();

  arena.reset();
  EXPECT_EQ(arena.epoch(), 1u);
  EXPECT_EQ(arena.recycled_chunks(), chunks);
  EXPECT_EQ(arena.used_bytes(), 0u);
  // Chunks are recycled, not freed: same capacity, no new reservation
  // when the next epoch allocates the same footprint.
  EXPECT_EQ(arena.reserved_bytes(), reserved);
  for (int i = 0; i < 8; ++i) arena.allocate(400, 8);
  EXPECT_EQ(arena.chunk_count(), chunks);
  EXPECT_EQ(arena.reserved_bytes(), reserved);
  arena.reset();
  EXPECT_EQ(arena.recycled_chunks(), 2 * chunks);
}

TEST(SegmentArenaTest, UntouchedChunksAreNotCountedRecycled) {
  SegmentArena arena(/*chunk_bytes=*/512);
  arena.reset();
  EXPECT_EQ(arena.epoch(), 1u);
  EXPECT_EQ(arena.recycled_chunks(), 0u);  // nothing was ever allocated
}

TEST(SegmentArenaTest, OversizeAllocationGetsDedicatedChunk) {
  SegmentArena arena(/*chunk_bytes=*/256);
  void* small = arena.allocate(64, 8);
  void* big = arena.allocate(10 * 1024, 8);
  ASSERT_NE(small, nullptr);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.oversize_allocs(), 1u);
  EXPECT_GE(arena.reserved_bytes(), 10 * 1024u);
  // The oversize chunk is recycled like any other.
  arena.reset();
  EXPECT_GE(arena.recycled_chunks(), 2u);
}

#ifndef NDEBUG
TEST(SegmentArenaTest, RecycledMemoryIsScribbledNotStale) {
  SegmentArena arena(/*chunk_bytes=*/512);
  auto* p = static_cast<unsigned char*>(arena.allocate(64, 8));
  std::memset(p, 0x5A, 64);
  arena.deallocate(p, 64);
  arena.reset();
  // Same chunk, same offset — but the bytes must be the debug scribble,
  // never the previous epoch's 0x5A payload.
  auto* q = static_cast<unsigned char*>(arena.allocate(64, 8));
  ASSERT_EQ(q, p);
  for (int i = 0; i < 64; ++i) ASSERT_EQ(q[i], 0xAB) << "offset " << i;
}
#endif

TEST(ArenaAllocatorTest, NullArenaIsTheHeap) {
  ArenaVector<int> v;  // default allocator: arena == nullptr
  v.assign({1, 2, 3});
  EXPECT_EQ(v.get_allocator().arena(), nullptr);
  EXPECT_EQ(v[2], 3);
}

TEST(ArenaAllocatorTest, EqualityIsArenaIdentity) {
  SegmentArena a;
  SegmentArena b;
  EXPECT_EQ(ArenaAllocator<int>(&a), ArenaAllocator<int>(&a));
  EXPECT_NE(ArenaAllocator<int>(&a), ArenaAllocator<int>(&b));
  EXPECT_NE(ArenaAllocator<int>(&a), ArenaAllocator<int>());
  // Rebound copies keep the arena.
  ArenaAllocator<long> rebound{ArenaAllocator<int>(&a)};
  EXPECT_EQ(rebound.arena(), &a);
}

TEST(ArenaAllocatorTest, VectorGrowthAndMoveStayInsideArena) {
  SegmentArena arena;
  {
    ArenaVector<std::uint64_t> v{ArenaAllocator<std::uint64_t>(&arena)};
    for (std::uint64_t i = 0; i < 1000; ++i) v.push_back(i);
    // Move propagates the allocator (POCMA), so the target frees into the
    // arena too — no cross-allocator UB.
    ArenaVector<std::uint64_t> w = std::move(v);
    ASSERT_EQ(w.size(), 1000u);
    EXPECT_EQ(w.get_allocator().arena(), &arena);
    EXPECT_EQ(w[999], 999u);
  }
  EXPECT_GT(arena.used_bytes(), 1000 * sizeof(std::uint64_t) - 1);
  arena.reset();
}

// Randomized stage-sequence property: a random mix of shuffle stages
// (varying sizes, partition counts, buffer budgets) run through one
// engine must match a plain std::map fold of the same records on every
// stage, and the engine's arena telemetry must show the chunks actually
// cycling (one epoch per shuffle, recycled counts growing). Under the asan
// leg this doubles as the use-after-recycle detector: any segment read
// after its epoch ended hits poisoned memory.
TEST(ArenaEngineTest, RandomizedStageSequencesMatchReferenceFold) {
  Rng rng(2024);
  struct StageSpec {
    std::size_t records;
    std::size_t in_parts;
    std::size_t out_parts;
    std::size_t buffer_bytes;
  };
  std::vector<StageSpec> stages;
  for (int i = 0; i < 10; ++i) {
    stages.push_back({500 + rng.uniform_int(3000), 1 + rng.uniform_int(8),
                      1 + rng.uniform_int(12), 256u << rng.uniform_int(6)});
  }

  obs::Registry registry;
  Engine::Options o;
  o.workers = 4;
  o.seed = 321;
  Engine eng(o);
  eng.attach_observability(&registry, nullptr);
  std::uint64_t seed = 50;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageSpec& spec = stages[i];
    Rng data_rng(++seed);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> records(spec.records);
    for (auto& [k, v] : records) {
      k = data_rng.uniform_int(200);
      v = data_rng.uniform_int(1000);
    }
    ShuffleOptions shuffle;
    shuffle.target_buffer_bytes = spec.buffer_bytes;
    const auto ds = eng.parallelize(records, spec.in_parts);
    const auto out = eng.reduce_by_key(
        ds, [](std::uint64_t a, std::uint64_t b) { return a + b; }, spec.out_parts, {},
        shuffle);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> flat;
    for (std::size_t p = 0; p < out.partitions(); ++p) {
      const auto& part = out.partition(p);
      flat.insert(flat.end(), part.begin(), part.end());
    }
    std::sort(flat.begin(), flat.end());

    std::map<std::uint64_t, std::uint64_t> fold;
    for (const auto& [k, v] : records) fold[k] += v;
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> expected(fold.begin(),
                                                                       fold.end());
    EXPECT_EQ(flat, expected) << "stage " << i;
  }
  eng.attach_observability(nullptr, nullptr);

  // The arenas really cycled: chunks were reserved and recycled at least
  // once per shuffle after the first.
  const obs::Gauge* chunks = registry.find_gauge("engine.shuffle.arena_chunks");
  ASSERT_NE(chunks, nullptr);
  EXPECT_GT(chunks->value(), 0.0);
  EXPECT_GE(registry.counter("engine.shuffle.arena_recycled_chunks").value(),
            stages.size() - 1);
}

}  // namespace
}  // namespace dias::engine
