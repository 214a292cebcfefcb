// Scale-sweep determinism battery for the hot-path scaling work (ISSUE 9).
//
// The oracle: every hot-path mechanism — wave submission, per-slot
// segment arenas, the radix split, spilling — must be a PURE RELOCATION
// under the (src, seq) merge-fold contract. So for every cell of
//
//   workers {1, 2, 8, 16, 32} x spill {on, off}
//
// the result must be bitwise identical to its reference. Shuffled uint64
// sums and word counts are order-insensitive, so their reference is a
// plain fold written here (std::map, no engine). Double sums and
// PageRank's floating-point rank vector are order-sensitive — a single
// reordered addition would flip a ULP and fail the bit compare — and the
// engine's (src, seq) contract is what defines their summation order, so
// their reference is the single-worker resident engine run. Results are
// compared in canonical form (sorted (key, value-bits)) because worker
// count legitimately moves entries between partitions; it must never
// change a result bit.
//
// Worker counts deliberately overshoot the host: 16 and 32 workers on a
// small core count maximize index-steal interleavings through the wave
// descriptor, which is exactly the surface these optimizations touch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analytics/page_rank.hpp"
#include "analytics/word_count.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "workload/graph_gen.hpp"
#include "workload/text_corpus.hpp"

namespace dias {
namespace {

using engine::Engine;
using engine::ShuffleOptions;
using engine::SpillBackend;
using engine::SpillReader;
using engine::SpillStats;
using engine::StageOptions;

constexpr std::size_t kInputPartitions = 6;
constexpr std::size_t kOutPartitions = 7;
const std::size_t kWorkerSweep[] = {1, 2, 8, 16, 32};

// Heap-backed SpillBackend (same protocol as the spill property suite's):
// lets the battery drive the spill path without touching disk, with small
// chunks so decode crosses chunk boundaries.
class MemorySpill final : public SpillBackend {
 public:
  std::uint64_t write(const std::string& bytes) override {
    std::lock_guard lock(mu_);
    const std::uint64_t id = next_id_++;
    segments_[id] = bytes;
    ++stats_.segments_written;
    stats_.bytes_written += bytes.size();
    return id;
  }

  std::unique_ptr<SpillReader> open(std::uint64_t handle) override {
    std::lock_guard lock(mu_);
    const auto it = segments_.find(handle);
    if (it == segments_.end()) throw error("spill segment not found");
    ++stats_.segments_read;
    stats_.bytes_read += it->second.size();
    return std::make_unique<Reader>(it->second);
  }

  void release(std::uint64_t handle) override {
    std::lock_guard lock(mu_);
    segments_.erase(handle);
  }

  SpillStats stats() const override {
    std::lock_guard lock(mu_);
    return stats_;
  }

 private:
  class Reader final : public SpillReader {
   public:
    explicit Reader(std::string bytes) : bytes_(std::move(bytes)) {}
    bool next(std::string& out) override {
      if (off_ >= bytes_.size()) return false;
      const std::size_t n = std::min<std::size_t>(97, bytes_.size() - off_);
      out.assign(bytes_, off_, n);
      off_ += n;
      return true;
    }

   private:
    std::string bytes_;
    std::size_t off_ = 0;
  };

  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::string> segments_;
  SpillStats stats_;
};

// One sweep cell. The engine reference is {1 worker, resident}.
struct Cell {
  std::size_t workers;
  bool spill;

  std::string label() const {
    return "workers=" + std::to_string(workers) + (spill ? " spill" : " resident");
  }
};

std::vector<Cell> sweep_cells() {
  std::vector<Cell> cells;
  for (const std::size_t workers : kWorkerSweep) {
    for (const bool spill : {false, true}) cells.push_back({workers, spill});
  }
  return cells;
}

Engine make_engine(const Cell& cell) {
  Engine::Options o;
  o.workers = cell.workers;
  o.seed = 4242;
  return Engine(o);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> make_records(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(4000);
  for (std::size_t i = 0; i < 4000; ++i) {
    const double u = rng.uniform();
    // Zipf-ish keys: buckets get uneven load, so waves actually steal.
    const auto key =
        static_cast<std::uint64_t>(400.0 * std::pow(u, 3.0));
    out.emplace_back(key, rng.uniform_int(1000) + 1);
  }
  return out;
}

// Canonical form: sorted (key, value-bits). Bitwise, not approximate.
template <typename V>
std::vector<std::pair<std::uint64_t, std::uint64_t>> canonical(
    const engine::Dataset<std::pair<std::uint64_t, V>>& ds) {
  static_assert(sizeof(V) == sizeof(std::uint64_t));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> entries;
  for (std::size_t p = 0; p < ds.partitions(); ++p) {
    for (const auto& [k, v] : ds.partition(p)) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      entries.emplace_back(k, bits);
    }
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(ScaleDeterminismTest, ShuffledSumsBitIdenticalAcrossSweep) {
  const auto records = make_records(17);
  const auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };

  const auto run = [&](const Cell& cell) {
    Engine eng = make_engine(cell);
    MemorySpill spill;
    ShuffleOptions shuffle;
    if (cell.spill) {
      eng.set_spill_backend(&spill);
      shuffle.memory_budget_bytes = 8 * 1024;  // well below the dataset
    }
    const auto ds = eng.parallelize(records, kInputPartitions);
    StageOptions opts;
    opts.name = "scale";
    auto result = canonical(eng.reduce_by_key(ds, sum, kOutPartitions, opts, shuffle));
    if (cell.spill) {
      EXPECT_GT(spill.stats().segments_written, 0u) << cell.label();
    }
    return result;
  };

  std::map<std::uint64_t, std::uint64_t> fold;
  for (const auto& [k, v] : records) fold[k] += v;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> reference(fold.begin(),
                                                                        fold.end());
  ASSERT_FALSE(reference.empty());
  for (const Cell& cell : sweep_cells()) {
    SCOPED_TRACE(cell.label());
    EXPECT_EQ(run(cell), reference);
  }
}

// Order-sensitive leg: double sums, where any change in per-key fold order
// (which (src, seq) fully determines) shows up as a ULP difference.
TEST(ScaleDeterminismTest, DoubleSumsBitIdenticalAcrossSweep) {
  std::vector<std::pair<std::uint64_t, double>> records;
  for (const auto& [k, v] : make_records(23)) {
    records.emplace_back(k, static_cast<double>(v) * 1.0e-3 + 0.1);
  }
  const auto sum = [](double a, double b) { return a + b; };

  const auto run = [&](const Cell& cell) {
    Engine eng = make_engine(cell);
    MemorySpill spill;
    ShuffleOptions shuffle;
    if (cell.spill) {
      eng.set_spill_backend(&spill);
      shuffle.memory_budget_bytes = 8 * 1024;
    }
    const auto ds = eng.parallelize(records, kInputPartitions);
    StageOptions opts;
    opts.name = "scale";
    return canonical(eng.reduce_by_key(ds, sum, kOutPartitions, opts, shuffle));
  };

  const auto reference = run({1, false});
  for (const Cell& cell : sweep_cells()) {
    SCOPED_TRACE(cell.label());
    EXPECT_EQ(run(cell), reference);
  }
}

TEST(ScaleDeterminismTest, WordCountIdenticalAcrossSweep) {
  workload::TextCorpusParams params;
  params.posts = 150;
  params.mean_words_per_post = 25;
  params.vocabulary = 300;
  params.seed = 31;
  const auto corpus = workload::generate_text_corpus("scale", params);

  const auto run = [&](const Cell& cell) {
    Engine eng = make_engine(cell);
    MemorySpill spill;
    ShuffleOptions shuffle;
    if (cell.spill) {
      eng.set_spill_backend(&spill);
      shuffle.memory_budget_bytes = 16 * 1024;
    }
    const auto rows = eng.parallelize(corpus.rows, kInputPartitions);
    const auto counts = analytics::word_count(eng, rows, 8, -1.0, shuffle).counts;
    return std::map<std::string, std::uint64_t>(counts.begin(), counts.end());
  };

  std::map<std::string, std::uint64_t> reference;
  for (const auto& row : corpus.rows) {
    for (const auto& word : workload::tokenize(workload::extract_post_body(row))) {
      ++reference[word];
    }
  }
  ASSERT_FALSE(reference.empty());
  for (const Cell& cell : sweep_cells()) {
    SCOPED_TRACE(cell.label());
    EXPECT_EQ(run(cell), reference);
  }
}

// PageRank: five shuffles per run (adjacency + one per iteration), all
// floating point. No spill dimension — page_rank doesn't thread shuffle
// options through — so this leg sweeps workers only.
TEST(ScaleDeterminismTest, PageRankBitwiseIdenticalAcrossSweep) {
  workload::GraphParams gp;
  gp.scale = 8;
  gp.edges = 2048;
  gp.seed = 47;
  const auto edges = workload::generate_rmat_graph(gp);

  const auto run = [&](const Cell& cell) {
    Engine eng = make_engine(cell);
    analytics::PageRankOptions opts;
    opts.iterations = 4;
    opts.partitions = kOutPartitions;
    return analytics::page_rank(eng, eng.parallelize(edges, kInputPartitions), opts).ranks;
  };

  const auto reference = run({1, false});
  ASSERT_FALSE(reference.empty());
  for (const std::size_t workers : kWorkerSweep) {
    const Cell cell{workers, false};
    SCOPED_TRACE(cell.label());
    const auto ranks = run(cell);
    ASSERT_EQ(ranks.size(), reference.size());
    for (const auto& [vertex, rank] : reference) {
      const auto it = ranks.find(vertex);
      ASSERT_NE(it, ranks.end()) << "vertex " << vertex;
      std::uint64_t expect_bits = 0;
      std::uint64_t got_bits = 0;
      std::memcpy(&expect_bits, &rank, sizeof(expect_bits));
      std::memcpy(&got_bits, &it->second, sizeof(got_bits));
      EXPECT_EQ(got_bits, expect_bits) << "vertex " << vertex;
    }
  }
}

}  // namespace
}  // namespace dias
