#include "storage/block_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "analytics/word_count.hpp"
#include "common/cancellation.hpp"
#include "common/error.hpp"
#include "engine/engine.hpp"
#include "engine/fault.hpp"
#include "storage/engine_io.hpp"
#include "storage/spill_store.hpp"
#include "workload/text_corpus.hpp"

namespace dias::storage {
namespace {

class BlockStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("dias_store_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  BlockStore make_store(std::size_t block_bytes = 256, int replication = 1) {
    BlockStoreOptions options;
    options.root = root_;
    options.block_bytes = block_bytes;
    options.replication = replication;
    return BlockStore(options);
  }

  static std::vector<std::string> numbered_lines(std::size_t n) {
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < n; ++i) {
      lines.push_back("line-" + std::to_string(i) + std::string(20, 'x'));
    }
    return lines;
  }

  // Overwrites bytes of one replica's data file in place, at `offset`, so
  // only the block holding that range goes bad.
  void corrupt_replica(const std::string& file, std::size_t offset) {
    std::fstream out(root_ / file, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(out.good()) << file;
    out.seekp(static_cast<std::streamoff>(offset));
    out << "garbage";
  }

  std::filesystem::path root_;
};

TEST_F(BlockStoreTest, WriteAndReadRoundTrip) {
  auto store = make_store();
  const auto lines = numbered_lines(50);
  const auto meta = store.write_lines("corpus", lines);
  EXPECT_EQ(meta.lines, 50u);
  EXPECT_GT(meta.blocks, 1u);  // 256-byte blocks force several
  EXPECT_TRUE(store.exists("corpus"));
  EXPECT_EQ(store.read_all_lines("corpus"), lines);
  const auto stat = store.stat("corpus");
  EXPECT_EQ(stat.blocks, meta.blocks);
  EXPECT_EQ(stat.bytes, meta.bytes);
}

TEST_F(BlockStoreTest, BlockBoundariesPreserveLines) {
  auto store = make_store(128);
  const auto lines = numbered_lines(30);
  const auto meta = store.write_lines("f", lines);
  std::vector<std::string> joined;
  for (std::size_t b = 0; b < meta.blocks; ++b) {
    for (auto& l : store.read_block_lines("f", b)) joined.push_back(std::move(l));
  }
  EXPECT_EQ(joined, lines);  // no line split across blocks
}

TEST_F(BlockStoreTest, IoCountersTrackReads) {
  auto store = make_store();
  store.write_lines("f", numbered_lines(40));
  store.reset_io_stats();
  store.read_block_lines("f", 0);
  store.read_block_lines("f", 1);
  const auto io = store.io_stats();
  EXPECT_EQ(io.blocks_read, 2u);
  EXPECT_GT(io.bytes_read, 0u);
}

TEST_F(BlockStoreTest, ChecksumDetectsCorruptionAndReplicaRecovers) {
  auto store = make_store(256, /*replication=*/2);
  const auto meta = store.write_lines("f", numbered_lines(40));
  ASSERT_GE(meta.blocks, 1u);
  // Corrupt the primary copy of block 0.
  corrupt_replica("f.r0", 0);
  // Read succeeds via replica 1; file verifies fully.
  EXPECT_NO_THROW(store.read_block_lines("f", 0));
  EXPECT_EQ(store.verify("f"), meta.blocks);
}

TEST_F(BlockStoreTest, AllReplicasCorruptThrows) {
  auto store = make_store(256, 1);
  store.write_lines("f", numbered_lines(40));
  corrupt_replica("f.r0", 0);
  EXPECT_THROW(store.read_block_lines("f", 0), dias::error);
  EXPECT_LT(store.verify("f"), store.stat("f").blocks);
}

TEST_F(BlockStoreTest, ListAndRemove) {
  auto store = make_store();
  store.write_lines("bbb", numbered_lines(5));
  store.write_lines("aaa", numbered_lines(5));
  EXPECT_EQ(store.list(), (std::vector<std::string>{"aaa", "bbb"}));
  store.remove("aaa");
  EXPECT_EQ(store.list(), (std::vector<std::string>{"bbb"}));
  EXPECT_FALSE(store.exists("aaa"));
  EXPECT_THROW(store.stat("aaa"), dias::precondition_error);
}

TEST_F(BlockStoreTest, NameValidation) {
  auto store = make_store();
  EXPECT_THROW(store.write_lines("", {}), dias::precondition_error);
  EXPECT_THROW(store.write_lines("a/b", {}), dias::precondition_error);
  EXPECT_THROW(store.write_lines("..", {}), dias::precondition_error);
}

TEST_F(BlockStoreTest, DroppedTasksSkipBlockFetches) {
  // The paper's point: early task dropping saves the data-fetch overhead.
  auto store = make_store(512);
  workload::TextCorpusParams params;
  params.posts = 400;
  params.seed = 31;
  const auto corpus = workload::generate_text_corpus("site", params);
  const auto meta = store.write_lines("site", corpus.rows);
  ASSERT_GE(meta.blocks, 10u);

  engine::Engine::Options eopts;
  eopts.workers = 4;
  engine::Engine eng(eopts);

  store.reset_io_stats();
  const auto full = read_lines_dataset(eng, store, "site", 0.0);
  const auto full_io = store.io_stats();
  EXPECT_EQ(full_io.blocks_read, meta.blocks);
  EXPECT_EQ(full.total_size(), corpus.rows.size());

  store.reset_io_stats();
  const auto half = read_lines_dataset(eng, store, "site", 0.5);
  const auto half_io = store.io_stats();
  EXPECT_EQ(half_io.blocks_read, (meta.blocks + 1) / 2);
  EXPECT_LT(half_io.bytes_read, full_io.bytes_read);
  EXPECT_LT(half.total_size(), corpus.rows.size());
}

TEST_F(BlockStoreTest, WordCountFromStorageMatchesInMemory) {
  auto store = make_store(1024);
  workload::TextCorpusParams params;
  params.posts = 300;
  params.seed = 37;
  const auto corpus = workload::generate_text_corpus("site", params);
  store.write_lines("site", corpus.rows);

  engine::Engine::Options eopts;
  eopts.workers = 4;
  engine::Engine eng(eopts);
  const auto ds = read_lines_dataset(eng, store, "site", 0.0);
  const auto from_storage = analytics::word_count(eng, ds, 8, 0.0);
  const auto exact = analytics::exact_word_count(corpus.rows);
  EXPECT_EQ(from_storage.counts.size(), exact.size());
  for (const auto& [word, count] : exact) {
    EXPECT_EQ(from_storage.counts.at(word), count);
  }
}

TEST_F(BlockStoreTest, WriteBytesAndReaderRoundTrip) {
  auto store = make_store(/*block_bytes=*/64);
  // Binary payload with embedded newlines and NULs: byte blocks must not
  // interpret content the way line blocks do.
  std::string data;
  for (int i = 0; i < 500; ++i) data.push_back(static_cast<char>(i % 251));
  const auto meta = store.write_bytes("seg", data);
  EXPECT_EQ(meta.bytes, data.size());
  EXPECT_EQ(meta.lines, 0u);
  EXPECT_EQ(meta.blocks, (data.size() + 63) / 64);

  // Random access...
  EXPECT_EQ(store.read_block_bytes("seg", 0), data.substr(0, 64));
  EXPECT_EQ(store.read_block_bytes("seg", meta.blocks - 1),
            data.substr((meta.blocks - 1) * 64));
  // ...and streaming: concatenated chunks reproduce the payload exactly.
  auto reader = store.open_reader("seg");
  std::string streamed;
  std::string chunk;
  while (reader.next(chunk)) streamed += chunk;
  EXPECT_EQ(streamed, data);
}

TEST_F(BlockStoreTest, ReaderSurfacesCorruptBlock) {
  auto store = make_store(/*block_bytes=*/64);
  store.write_bytes("seg", std::string(300, 'z'));
  corrupt_replica("seg.r0", 2 * 64);  // block 2
  auto reader = store.open_reader("seg");
  std::string chunk;
  EXPECT_TRUE(reader.next(chunk));  // blocks 0-1 are intact
  EXPECT_TRUE(reader.next(chunk));
  EXPECT_THROW(reader.next(chunk), dias::error);
}

// A meta file that lies about the data — offsets out of order, an end
// beyond the data, a cut-off text, an absurd block count — is a typed
// dias::error on open or on the block it describes, never a read outside
// the data file or an allocation the file cannot back.
TEST_F(BlockStoreTest, CorruptMetaIsTypedError) {
  auto store = make_store(/*block_bytes=*/64);
  store.write_bytes("seg", std::string(300, 'z'));  // blocks end at 64..256, 300
  std::vector<std::string> entries;  // "<end> <checksum>" per block
  std::string header;
  {
    std::ifstream in(root_ / "seg.meta");
    std::getline(in, header);
    for (std::string line; std::getline(in, line);) entries.push_back(line);
  }
  ASSERT_EQ(header, "300 5 0");
  ASSERT_EQ(entries.size(), 5u);
  const auto checksum_of = [&](std::size_t b) {
    return entries[b].substr(entries[b].find(' '));
  };
  const auto join = [](const std::string& head, const std::vector<std::string>& lines) {
    std::string text = head + "\n";
    for (const auto& l : lines) text += l + "\n";
    return text;
  };

  std::vector<std::pair<std::string, std::string>> cases;
  auto swapped = entries;
  std::swap(swapped[1], swapped[2]);
  cases.push_back({"offsets not increasing", join(header, swapped)});
  auto past_size = entries;
  past_size[4] = "400" + checksum_of(4);
  cases.push_back({"end offset past the file size", join(header, past_size)});
  cases.push_back({"end offset past the data", join("400 5 0", past_size)});
  const std::string whole = join(header, entries);
  cases.push_back({"truncated mid-list", whole.substr(0, whole.size() / 2)});
  cases.push_back({"truncated after the header", join(header, {})});
  cases.push_back({"truncated header", "300 5"});
  cases.push_back({"absurd block count", join("300 99999999999999 0", entries)});
  cases.push_back({"trailing bytes", join(header, entries) + "64 1\n"});

  for (const auto& [label, text] : cases) {
    SCOPED_TRACE(label);
    {
      std::ofstream out(root_ / "seg.meta", std::ios::binary | std::ios::trunc);
      out << text;
    }
    const auto read_all = [&] {
      auto reader = store.open_reader("seg");
      std::string chunk;
      while (reader.next(chunk)) {
      }
    };
    EXPECT_THROW(read_all(), dias::error);
    EXPECT_THROW(store.read_block_bytes("seg", 4), dias::error);
  }
}

// remove() takes every file of a name with it: data replicas and meta,
// for line files, byte files and released spill segments alike.
TEST_F(BlockStoreTest, RemoveLeavesRootEmpty) {
  auto store = make_store(/*block_bytes=*/64, /*replication=*/3);
  store.write_lines("lines", numbered_lines(20));
  store.write_bytes("bytes", std::string(200, 'b'));
  store.write_bytes("empty", "");
  BlockStoreSpill spill(store);
  const auto id = spill.write(std::string(150, 's'));
  EXPECT_EQ(store.list().size(), 4u);
  spill.release(id);
  for (const auto& name : store.list()) store.remove(name);
  EXPECT_TRUE(store.list().empty());
  EXPECT_TRUE(std::filesystem::is_empty(root_));
}

// --- spill I/O fault injection (ISSUE 6 satellite 3) -----------------------
//
// Storage faults under a spilled shuffle must surface as TaskFailedError —
// the typed failure PR-1 retry counts against max_attempts and PR-5
// cancellation outranks — never as a raw dias::error that would bypass
// both. Every mode here fails permanently, so fault-tolerant runs exhaust
// their retry budget instead of masking the fault with a lucky attempt.
class FaultySpill final : public engine::SpillBackend {
 public:
  enum class Mode { kShortWrite, kMissingBlock, kCorruptHeader, kFailWrite };

  FaultySpill(BlockStore& store, Mode mode) : inner_(store, "faulty"), mode_(mode) {}

  std::uint64_t write(const std::string& bytes) override {
    switch (mode_) {
      case Mode::kFailWrite:
        throw dias::error("injected fault: spill device full");
      case Mode::kShortWrite:
        // Persist only a prefix; the decoder hits end-of-stream mid-entry.
        return inner_.write(bytes.substr(0, bytes.size() / 2));
      case Mode::kCorruptHeader: {
        std::string mangled = bytes;
        mangled[0] = static_cast<char>(mangled[0] ^ 0x7F);  // break the magic
        return inner_.write(mangled);
      }
      case Mode::kMissingBlock: {
        const auto id = inner_.write(bytes);
        inner_.release(id);  // vanish underneath the engine
        return id;
      }
    }
    throw dias::error("unreachable");
  }

  std::unique_ptr<engine::SpillReader> open(std::uint64_t handle) override {
    return inner_.open(handle);
  }
  void release(std::uint64_t handle) override {
    if (mode_ != Mode::kMissingBlock) inner_.release(handle);
  }
  engine::SpillStats stats() const override { return inner_.stats(); }

 private:
  BlockStoreSpill inner_;
  Mode mode_;
};

class SpillFaultTest : public BlockStoreTest {
 protected:
  static std::vector<std::pair<std::uint64_t, std::int64_t>> records() {
    std::vector<std::pair<std::uint64_t, std::int64_t>> out;
    for (std::uint64_t i = 0; i < 10000; ++i) out.push_back({i % 701, 1});
    return out;
  }

  // A reduce_by_key whose working set dwarfs the 4 KiB budget, so every
  // run spills — and therefore has to read segments back through the
  // faulty backend during the merge. The merge runs non-droppable so a
  // fault-exhausted task is fatal rather than silently degrading the
  // answer (the droppable-degrade path gets its own test below).
  static void run_spilled_shuffle(engine::Engine& eng, engine::SpillBackend& spill,
                                  bool droppable = false) {
    eng.set_spill_backend(&spill);
    const auto ds = eng.parallelize(records(), 8);
    engine::StageOptions opts;
    opts.droppable = droppable;
    engine::ShuffleOptions shuffle;
    shuffle.target_buffer_bytes = 2048;
    shuffle.memory_budget_bytes = 4096;
    eng.reduce_by_key(
        ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 6, opts, shuffle);
  }
};

TEST_F(SpillFaultTest, ReadFaultsSurfaceAsTaskFailedError) {
  for (const auto mode : {FaultySpill::Mode::kShortWrite, FaultySpill::Mode::kMissingBlock,
                          FaultySpill::Mode::kCorruptHeader}) {
    SCOPED_TRACE(static_cast<int>(mode));
    auto store = make_store(/*block_bytes=*/4096);
    FaultySpill spill(store, mode);
    engine::Engine::Options opts;
    opts.workers = 4;
    engine::Engine eng(opts);  // legacy path: failures propagate directly
    EXPECT_THROW(run_spilled_shuffle(eng, spill), engine::TaskFailedError);
  }
}

// ISSUE 10 satellite (b): spilling is pure relocation, so a failed spill
// write is absorbable — the segment simply stays resident. The breaker
// trips after the consecutive-failure threshold and the shuffle degrades
// to in-memory with an exact answer, surfacing the event through StageInfo
// fault accounting instead of a TaskFailedError.
TEST_F(SpillFaultTest, WriteFaultTripsBreakerAndDegradesToInMemory) {
  auto store = make_store(4096);
  FaultySpill spill(store, FaultySpill::Mode::kFailWrite);
  engine::Engine::Options opts;
  opts.workers = 4;
  engine::Engine eng(opts);
  eng.set_spill_backend(&spill);
  const auto ds = eng.parallelize(records(), 8);
  engine::StageOptions sopts;
  sopts.droppable = false;
  engine::ShuffleOptions shuffle;
  shuffle.target_buffer_bytes = 2048;
  shuffle.memory_budget_bytes = 4096;
  const auto reduced = eng.reduce_by_key(
      ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 6, sopts, shuffle);

  auto all = reduced.collect();
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 701u);
  for (const auto& [key, count] : all) {
    EXPECT_EQ(count, 10000 / 701 + (key < 10000 % 701 ? 1 : 0)) << "key " << key;
  }
  EXPECT_EQ(eng.spill_breaker().state(), engine::SpillBreaker::State::kOpen);
  EXPECT_GE(eng.spill_breaker().trips(), 1u);
  // StageInfo distinguishes "degraded to in-memory" (fallback segments,
  // breaker open) from "retried clean" (retries with no fallback).
  std::size_t fallback = 0;
  std::size_t write_failures = 0;
  bool breaker_open_logged = false;
  for (const auto& s : eng.stage_log()) {
    fallback += s.shuffle_spill_fallback_segments;
    write_failures += s.shuffle_spill_write_failures;
    breaker_open_logged = breaker_open_logged || s.spill_breaker_open;
  }
  EXPECT_GT(fallback, 0u);
  EXPECT_GT(write_failures, 0u);
  EXPECT_TRUE(breaker_open_logged);
  // Nothing landed on disk, so nothing was restored from it.
  EXPECT_EQ(spill.stats().segments_written, 0u);
}

// Writes succeed, then the device "fills": the breaker trips mid-shuffle
// and the merge consumes a mix of restored (healthy writes) and resident
// (fallback) segments — byte-identically to a clean run.
class FailAfterNSpill final : public engine::SpillBackend {
 public:
  FailAfterNSpill(BlockStore& store, int healthy)
      : inner_(store, "failafter"), healthy_(healthy) {}

  std::uint64_t write(const std::string& bytes) override {
    if (healthy_.fetch_sub(1) <= 0) {
      throw dias::error("injected fault: spill device full");
    }
    return inner_.write(bytes);
  }
  std::unique_ptr<engine::SpillReader> open(std::uint64_t handle) override {
    return inner_.open(handle);
  }
  void release(std::uint64_t handle) override { inner_.release(handle); }
  engine::SpillStats stats() const override { return inner_.stats(); }

 private:
  BlockStoreSpill inner_;
  std::atomic<int> healthy_;
};

TEST_F(SpillFaultTest, BreakerTripsMidShuffleWithByteIdenticalResult) {
  auto store = make_store(4096);
  FailAfterNSpill spill(store, /*healthy=*/3);
  engine::Engine::Options opts;
  opts.workers = 4;
  engine::Engine eng(opts);
  eng.set_spill_backend(&spill);
  const auto ds = eng.parallelize(records(), 8);
  engine::StageOptions sopts;
  sopts.droppable = false;
  engine::ShuffleOptions shuffle;
  shuffle.target_buffer_bytes = 2048;
  shuffle.memory_budget_bytes = 4096;
  const auto reduced = eng.reduce_by_key(
      ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 6, sopts, shuffle);

  auto all = reduced.collect();
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 701u);
  for (const auto& [key, count] : all) {
    EXPECT_EQ(count, 10000 / 701 + (key < 10000 % 701 ? 1 : 0)) << "key " << key;
  }
  // Both worlds really happened: healthy segments hit the device and were
  // restored, failed ones stayed resident.
  EXPECT_EQ(spill.stats().segments_written, 3u);
  EXPECT_GE(eng.spill_breaker().trips(), 1u);
  std::size_t fallback = 0;
  std::size_t restored = 0;
  for (const auto& s : eng.stage_log()) {
    fallback += s.shuffle_spill_fallback_segments;
    restored += s.shuffle_restored_segments;
  }
  EXPECT_GT(fallback, 0u);
  EXPECT_GT(restored, 0u);
}

TEST_F(SpillFaultTest, RetryPathExhaustsAttemptsOnPermanentFault) {
  auto store = make_store(4096);
  FaultySpill spill(store, FaultySpill::Mode::kCorruptHeader);
  engine::Engine::Options opts;
  opts.workers = 4;
  opts.fault.max_attempts = 2;  // fault-tolerant path: retry fires, then gives up
  engine::Engine eng(opts);
  try {
    run_spilled_shuffle(eng, spill);
    FAIL() << "expected TaskFailedError";
  } catch (const engine::TaskFailedError& e) {
    EXPECT_NE(std::string(e.what()).find("attempt"), std::string::npos) << e.what();
  }
  // The stage log shows the retry actually happened before exhaustion.
  std::size_t retries = 0;
  for (const auto& s : eng.stage_log()) retries += s.retries;
  EXPECT_GT(retries, 0u);
}

TEST_F(SpillFaultTest, DroppableMergeDegradesInsteadOfFailing) {
  // On a droppable merge stage the fault-tolerant path treats an exhausted
  // task like a dropped one — differential approximation absorbs the loss
  // and the job completes, with the dead partitions on the stage log.
  auto store = make_store(4096);
  FaultySpill spill(store, FaultySpill::Mode::kCorruptHeader);
  engine::Engine::Options opts;
  opts.workers = 4;
  opts.fault.max_attempts = 2;
  engine::Engine eng(opts);
  EXPECT_NO_THROW(run_spilled_shuffle(eng, spill, /*droppable=*/true));
  ASSERT_FALSE(eng.stage_log().empty());
  EXPECT_FALSE(eng.stage_log().back().failed_partition_ids.empty());
}

// A transient read fault: the first `failures` open() calls throw, later
// ones succeed — the shape a retry is actually meant to absorb.
class FlakyOpenSpill final : public engine::SpillBackend {
 public:
  FlakyOpenSpill(BlockStore& store, int failures)
      : inner_(store, "flaky"), failures_(failures) {}

  std::uint64_t write(const std::string& bytes) override { return inner_.write(bytes); }
  std::unique_ptr<engine::SpillReader> open(std::uint64_t handle) override {
    if (failures_.fetch_sub(1) > 0) {
      throw dias::error("injected fault: transient spill read error");
    }
    return inner_.open(handle);
  }
  void release(std::uint64_t handle) override { inner_.release(handle); }
  engine::SpillStats stats() const override { return inner_.stats(); }

 private:
  BlockStoreSpill inner_;
  std::atomic<int> failures_;
};

TEST_F(SpillFaultTest, TransientReadFaultRecoversExactAnswerOnRetry) {
  // Merge consumption is non-destructive while a backend is attached, so a
  // retried merge body finds every segment intact — resident and spilled —
  // and the recovered answer is exact, not silently missing the segments a
  // failed attempt had already consumed.
  auto store = make_store(4096);
  FlakyOpenSpill spill(store, /*failures=*/2);
  engine::Engine::Options eopts;
  eopts.workers = 4;
  eopts.fault.max_attempts = 3;  // two injected failures can never exhaust a task
  engine::Engine eng(eopts);
  eng.set_spill_backend(&spill);
  const auto ds = eng.parallelize(records(), 8);
  engine::StageOptions sopts;
  sopts.droppable = false;  // any exhaustion would be loud, not degraded
  engine::ShuffleOptions shuffle;
  shuffle.target_buffer_bytes = 2048;
  shuffle.memory_budget_bytes = 4096;
  const auto reduced = eng.reduce_by_key(
      ds, [](std::int64_t a, std::int64_t b) { return a + b; }, 6, sopts, shuffle);

  auto all = reduced.collect();
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), 701u);
  for (const auto& [key, count] : all) {
    EXPECT_EQ(count, 10000 / 701 + (key < 10000 % 701 ? 1 : 0)) << "key " << key;
  }
  std::size_t retries = 0;
  for (const auto& s : eng.stage_log()) retries += s.retries;
  EXPECT_GT(retries, 0u);  // the faults really fired and were retried
}

TEST_F(SpillFaultTest, CancellationOutranksSpillFaults) {
  auto store = make_store(4096);
  FaultySpill spill(store, FaultySpill::Mode::kCorruptHeader);
  engine::Engine::Options opts;
  opts.workers = 4;
  engine::Engine eng(opts);
  CancellationToken token;
  token.request_cancel();  // fired before the stage starts
  eng.set_cancellation(token);
  EXPECT_THROW(run_spilled_shuffle(eng, spill), dias::JobCancelledError);
}

}  // namespace
}  // namespace dias::storage
