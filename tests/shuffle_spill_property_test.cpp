// Property tests for the memory-elastic shuffle (ISSUE 6 satellite 2):
// randomized budgets x skew x combine x workers must match an in-memory
// oracle exactly; degenerate budgets must fail fast with a clear
// config_error (never deadlock or OOM); and a writer with no worker slot
// is a precondition error.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "engine/spill.hpp"
#include "memory_spill.hpp"
#include "obs/metrics.hpp"

namespace dias::engine {
namespace {

using KV = std::pair<std::uint64_t, std::int64_t>;
using tests::MemorySpill;

std::vector<KV> make_records(std::uint64_t seed, std::size_t n, std::uint64_t key_space,
                             double skew) {
  Rng rng(seed);
  std::vector<KV> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform();
    const auto key = static_cast<std::uint64_t>(
        static_cast<double>(key_space - 1) * std::pow(u, 1.0 + skew));
    out.emplace_back(key, static_cast<std::int64_t>(rng.uniform_int(1000)) - 500);
  }
  return out;
}

std::vector<KV> reference_sums(const std::vector<KV>& records) {
  std::map<std::uint64_t, std::int64_t> acc;
  for (const auto& [k, v] : records) acc[k] += v;
  return {acc.begin(), acc.end()};
}

std::vector<KV> sorted_collect(const Dataset<KV>& ds) {
  auto all = ds.collect();
  std::sort(all.begin(), all.end());
  return all;
}

Engine::Options engine_opts(std::size_t workers, std::uint64_t seed) {
  Engine::Options o;
  o.workers = workers;
  o.seed = seed;
  return o;
}

TEST(ShuffleSpillPropertyTest, RandomBudgetsMatchOracleAcrossSkewAndCombine) {
  Rng rng(2024);
  std::size_t spilled_configs = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const double skew = rng.uniform() * 4.0;
    const bool combine = rng.uniform() < 0.5;
    const std::size_t workers = 1 + rng.uniform_int(8);
    // Every third trial runs unbounded as the in-band control group.
    const std::size_t budget =
        trial % 3 == 0 ? 0 : 512 + rng.uniform_int(64 * 1024 - 512);
    SCOPED_TRACE(testing::Message() << "trial=" << trial << " skew=" << skew
                                    << " combine=" << combine << " workers=" << workers
                                    << " budget=" << budget);
    const auto records =
        make_records(3000 + static_cast<std::uint64_t>(trial), 12000, 509, skew);
    const auto expected = reference_sums(records);

    MemorySpill spill;
    Engine eng(engine_opts(workers, 77));
    eng.set_spill_backend(&spill);
    const auto ds = eng.parallelize(records, 6);
    ShuffleOptions shuffle;
    shuffle.combine = combine;
    shuffle.target_buffer_bytes = 2048;
    shuffle.memory_budget_bytes = budget;
    eng.clear_stage_log();
    const auto reduced = eng.reduce_by_key(
        ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 7, {}, shuffle);
    EXPECT_EQ(sorted_collect(reduced), expected);
    // Nothing leaks: consumed segments are released as they stream back.
    EXPECT_EQ(spill.live_segments(), 0u);
    if (eng.stage_log()[0].shuffle_spill_segments > 0) ++spilled_configs;
  }
  // The budget range really straddles the working set: some configs spill.
  EXPECT_GT(spilled_configs, 0u);
}

TEST(ShuffleSpillPropertyTest, BudgetSmallerThanOneRecordFailsFast) {
  const auto records = make_records(5, 100, 17, 0.0);
  MemorySpill spill;
  Engine eng(engine_opts(2, 5));
  eng.set_spill_backend(&spill);
  const auto ds = eng.parallelize(records, 2);
  ShuffleOptions shuffle;
  shuffle.memory_budget_bytes = sizeof(KV) - 1;  // can't hold even one entry
  try {
    eng.reduce_by_key(ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 2, {},
                      shuffle);
    FAIL() << "expected config_error";
  } catch (const config_error& e) {
    EXPECT_NE(std::string(e.what()).find("single record"), std::string::npos)
        << e.what();
  }
}

TEST(ShuffleSpillPropertyTest, FiniteBudgetWithoutBackendFailsFast) {
  const auto records = make_records(6, 100, 17, 0.0);
  Engine eng(engine_opts(2, 6));  // no set_spill_backend
  const auto ds = eng.parallelize(records, 2);
  ShuffleOptions shuffle;
  shuffle.memory_budget_bytes = 1 << 20;
  try {
    eng.reduce_by_key(ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 2, {},
                      shuffle);
    FAIL() << "expected config_error";
  } catch (const config_error& e) {
    EXPECT_NE(std::string(e.what()).find("spill backend"), std::string::npos)
        << e.what();
  }
}

// A failed spill write falls back to memory only through the breaker, so a
// sink that can spill must carry one.
TEST(ShuffleSpillPropertyTest, SinkWithBackendRequiresBreaker) {
  MemorySpill spill;
  detail::SpillPolicy policy;
  policy.budget_bytes = 1024;
  policy.backend = &spill;
  EXPECT_THROW((detail::ShuffleSink<int, int>(2, 3, policy)), precondition_error);
  SpillBreaker breaker;
  policy.breaker = &breaker;
  EXPECT_NO_THROW((detail::ShuffleSink<int, int>(2, 3, policy)));
}

// A key type without a SpillCodec still compiles and runs unbounded, but a
// finite budget must be rejected up front rather than failing mid-spill.
struct OpaqueKey {
  int v = 0;
  bool operator==(const OpaqueKey& o) const { return v == o.v; }
};

}  // namespace
}  // namespace dias::engine

template <>
struct std::hash<dias::engine::OpaqueKey> {
  std::size_t operator()(const dias::engine::OpaqueKey& k) const {
    return std::hash<int>{}(k.v);
  }
};

namespace dias::engine {
namespace {

TEST(ShuffleSpillPropertyTest, NonSpillableTypeRejectsFiniteBudget) {
  static_assert(!detail::is_spillable<std::pair<OpaqueKey, std::int64_t>>::value);
  std::vector<std::pair<OpaqueKey, std::int64_t>> records;
  for (int i = 0; i < 200; ++i) records.push_back({{i % 13}, 1});
  MemorySpill spill;
  Engine eng(engine_opts(2, 7));
  eng.set_spill_backend(&spill);
  const auto ds = eng.parallelize(records, 2);

  // Unbounded: fine — spillability is only demanded when it would be used.
  // (Budget forced to 0 so the CI env override can't reach this call.)
  ShuffleOptions unbounded;
  unbounded.memory_budget_bytes = 0;
  const auto reduced = eng.reduce_by_key(
      ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 3, {}, unbounded);
  EXPECT_EQ(reduced.total_size(), 13u);

  ShuffleOptions shuffle;
  shuffle.memory_budget_bytes = 1 << 20;
  try {
    eng.reduce_by_key(ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 3, {},
                      shuffle);
    FAIL() << "expected config_error";
  } catch (const config_error& e) {
    EXPECT_NE(std::string(e.what()).find("spill codec"), std::string::npos)
        << e.what();
  }
}

TEST(ShuffleSpillPropertyTest, SpillCodecRoundTripsStringsAndVectors) {
  using Rec = std::pair<std::string, std::vector<std::uint32_t>>;
  static_assert(detail::is_spillable<Rec>::value);
  std::vector<Rec> entries;
  for (int i = 0; i < 50; ++i) {
    Rec r;
    r.first = std::string(static_cast<std::size_t>(i % 7) * 11, 'a' + (i % 26));
    for (int j = 0; j < i % 9; ++j) r.second.push_back(static_cast<std::uint32_t>(i * j));
    entries.push_back(std::move(r));
  }
  const std::string encoded = detail::encode_spill_segment(entries);

  MemorySpill spill(/*chunk_bytes=*/7);  // force many cursor refills
  const auto id = spill.write(encoded);
  detail::SpillCursor cursor(spill.open(id));
  std::vector<Rec> decoded;
  const std::size_t n = detail::decode_spill_segment<Rec>(
      cursor, [&](Rec&& r) { decoded.push_back(std::move(r)); });
  EXPECT_EQ(n, entries.size());
  EXPECT_EQ(decoded, entries);

  // Bulk-decoded vectors of doubles, also stitched from 7-byte chunks:
  // no element boundary lines up with a chunk boundary.
  using Ranks = std::pair<std::uint64_t, std::vector<double>>;
  std::vector<Ranks> ranks;
  for (std::uint64_t i = 0; i < 40; ++i) {
    Ranks r;
    r.first = i * 977;
    for (std::uint64_t j = 0; j < i % 6; ++j) {
      r.second.push_back(1.0 / static_cast<double>(i + j + 1));
    }
    ranks.push_back(std::move(r));
  }
  ranks.push_back({7, std::vector<double>(detail::kSpillVectorBatch + 3, 0.5)});
  const auto rid = spill.write(detail::encode_spill_segment(ranks));
  detail::SpillCursor rank_cursor(spill.open(rid));
  std::vector<Ranks> rank_decoded;
  EXPECT_EQ(detail::decode_spill_segment<Ranks>(
                rank_cursor, [&](Ranks&& r) { rank_decoded.push_back(std::move(r)); }),
            ranks.size());
  EXPECT_EQ(rank_decoded, ranks);
}

// The DSP2 bytes of two fixed segments, pinned by their FNV-1a. The
// expected values were taken from the element-by-element vector encoder;
// the bulk encoder must write the same bytes.
TEST(ShuffleSpillPropertyTest, SpillCodecBytesArePinned) {
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> adjacency;
  for (std::uint32_t i = 0; i < 64; ++i) {
    std::vector<std::uint32_t> v;
    for (std::uint32_t j = 0; j < i % 11; ++j) v.push_back(i * 2654435761u + j);
    adjacency.emplace_back(i * 7919u, std::move(v));
  }
  {
    std::vector<std::uint32_t> v;
    for (std::uint32_t j = 0; j < 5000; ++j) v.push_back(j * 3u);
    adjacency.emplace_back(0xFFFFFFFFu, std::move(v));
  }
  std::vector<std::pair<std::uint64_t, std::vector<double>>> ranks;
  for (std::uint64_t i = 0; i < 64; ++i) {
    std::vector<double> v;
    for (std::uint64_t j = 0; j < i % 13; ++j) {
      v.push_back(static_cast<double>(i) * 0.25 - static_cast<double>(j) / 3.0);
    }
    ranks.emplace_back(i << 33 | i, std::move(v));
  }
  {
    std::vector<double> v;
    for (std::uint64_t j = 0; j < 4100; ++j) v.push_back(static_cast<double>(j) * 1.5);
    ranks.emplace_back(~std::uint64_t{0}, std::move(v));
  }
  const std::string a = detail::encode_spill_segment(adjacency);
  const std::string b = detail::encode_spill_segment(ranks);
  EXPECT_EQ(a.size(), 22044u);
  EXPECT_EQ(fnv1a(a), 0xb7594c049b19ac7bULL);
  EXPECT_EQ(b.size(), 36884u);
  EXPECT_EQ(fnv1a(b), 0x59e2f88b60788b10ULL);
}

// A vector length prefix far beyond the segment's bytes is a truncated
// segment, found after at most one decode batch, never a 2^40-element
// allocation.
TEST(ShuffleSpillPropertyTest, HugeVectorLengthIsTruncated) {
  std::string bytes;
  const auto put = [&bytes](const auto& v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(detail::kSpillMagic);
  put(std::uint64_t{1});            // one entry
  put(std::uint32_t{42});           // its key
  put(std::uint64_t{1} << 40);      // a vector length the segment cannot hold
  put(std::uint32_t{7});            // and one element
  MemorySpill spill;
  detail::SpillCursor cursor(spill.open(spill.write(bytes)));
  using Rec = std::pair<std::uint32_t, std::vector<std::uint32_t>>;
  try {
    detail::decode_spill_segment<Rec>(cursor, [](Rec&&) {});
    FAIL() << "expected a truncated segment";
  } catch (const error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos) << e.what();
  }
}

// Budget accounting covers worker slots only, so under a finite spill
// policy a push or scratch report without a worker slot is a
// precondition error, never an unaccounted write.
TEST(ShuffleSpillPropertyTest, SlotlessWriterUnderBudgetIsPreconditionError) {
  MemorySpill spill;
  SpillBreaker breaker;
  detail::SpillPolicy policy;
  policy.budget_bytes = 64;
  policy.backend = &spill;
  policy.breaker = &breaker;
  detail::ShuffleSink<int, int> sink(2, 3, policy);
  EXPECT_THROW(sink.push(ThreadPool::kNoSlot, 1, {0, 0, {{5, 1}}}), precondition_error);
  EXPECT_THROW(sink.adjust_scratch(ThreadPool::kNoSlot, 128), precondition_error);
  EXPECT_EQ(sink.resident_bytes(), 0u);
  EXPECT_EQ(sink.spilled_segments(), 0u);
  // The same writes from a worker slot are accounted.
  sink.push(0, 1, {0, 0, {{5, 1}}});
  EXPECT_EQ(sink.resident_bytes(), sizeof(std::pair<int, int>));
}

// REVIEW fix regression: a process-wide DIAS_SHUFFLE_BUDGET_BYTES (the
// kBudgetFromEnv default) must not break shuffles that cannot spill — no
// backend attached, or key/aggregate types without a codec. Under the CI
// spill leg (env var exported) these ran config_error before the fix; an
// *explicit* finite budget on the same shuffles still fails fast (covered
// by the FailsFast tests above).
TEST(ShuffleSpillPropertyTest, EnvBudgetIsIgnoredByShufflesThatCannotSpill) {
  const auto records = make_records(9, 500, 17, 0.0);
  const auto expected = reference_sums(records);

  // No backend anywhere: default (env-inherited) options stay unbounded.
  Engine eng(engine_opts(2, 9));
  const auto ds = eng.parallelize(records, 2);
  const auto reduced = eng.reduce_by_key(
      ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 3, {}, ShuffleOptions{});
  EXPECT_EQ(sorted_collect(reduced), expected);

  // Backend attached but a non-spillable key type: same leniency.
  MemorySpill spill;
  Engine eng2(engine_opts(2, 10));
  eng2.set_spill_backend(&spill);
  std::vector<std::pair<OpaqueKey, std::int64_t>> opaque;
  for (int i = 0; i < 200; ++i) opaque.push_back({{i % 13}, 1});
  const auto opaque_ds = eng2.parallelize(opaque, 2);
  const auto opaque_reduced = eng2.reduce_by_key(
      opaque_ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 3, {},
      ShuffleOptions{});
  EXPECT_EQ(opaque_reduced.total_size(), 13u);
  EXPECT_EQ(spill.stats().segments_written, 0u);
}

}  // namespace
}  // namespace dias::engine
