#include "core/dispatcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dias::core {
namespace {

using namespace std::chrono_literals;

TEST(DispatcherTest, RunsSubmittedJobs) {
  DiasDispatcher dispatcher({0.2, 0.0});
  EXPECT_EQ(dispatcher.priorities(), 2u);
  std::atomic<int> runs{0};
  for (int i = 0; i < 10; ++i) {
    dispatcher.submit(static_cast<std::size_t>(i % 2), [&](double) { ++runs; });
  }
  const auto records = dispatcher.drain();
  EXPECT_EQ(runs.load(), 10);
  EXPECT_EQ(records.size(), 10u);
}

TEST(DispatcherTest, PassesClassTheta) {
  DiasDispatcher dispatcher({0.3, 0.0});
  std::mutex mutex;
  std::vector<std::pair<std::size_t, double>> seen;
  dispatcher.submit(0, [&](double theta) {
    std::lock_guard lock(mutex);
    seen.emplace_back(0, theta);
  });
  dispatcher.submit(1, [&](double theta) {
    std::lock_guard lock(mutex);
    seen.emplace_back(1, theta);
  });
  dispatcher.drain();
  ASSERT_EQ(seen.size(), 2u);
  for (const auto& [cls, theta] : seen) {
    EXPECT_DOUBLE_EQ(theta, cls == 0 ? 0.3 : 0.0);
  }
}

TEST(DispatcherTest, HighPriorityJumpsQueue) {
  DiasDispatcher dispatcher({0.0, 0.0});
  std::mutex mutex;
  std::vector<int> order;
  // A long job occupies the engine; then a low and a high job queue up.
  dispatcher.submit(0, [&](double) {
    std::this_thread::sleep_for(80ms);
    std::lock_guard lock(mutex);
    order.push_back(0);
  });
  std::this_thread::sleep_for(10ms);  // let the first job start
  dispatcher.submit(0, [&](double) {
    std::lock_guard lock(mutex);
    order.push_back(1);
  });
  dispatcher.submit(1, [&](double) {
    std::lock_guard lock(mutex);
    order.push_back(2);
  });
  dispatcher.drain();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 2) << "high-priority job must run before the queued low one";
  EXPECT_EQ(order[2], 1);
}

TEST(DispatcherTest, FcfsWithinClass) {
  DiasDispatcher dispatcher({0.0});
  std::mutex mutex;
  std::vector<int> order;
  dispatcher.submit(0, [&](double) { std::this_thread::sleep_for(30ms); });
  std::this_thread::sleep_for(5ms);
  for (int i = 0; i < 5; ++i) {
    dispatcher.submit(0, [&, i](double) {
      std::lock_guard lock(mutex);
      order.push_back(i);
    });
  }
  dispatcher.drain();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(DispatcherTest, RecordsTimestamps) {
  DiasDispatcher dispatcher({0.0});
  dispatcher.submit(0, [](double) { std::this_thread::sleep_for(20ms); });
  dispatcher.submit(0, [](double) { std::this_thread::sleep_for(5ms); });
  const auto records = dispatcher.drain();
  ASSERT_EQ(records.size(), 2u);
  for (const auto& r : records) {
    EXPECT_GE(r.start_s, r.arrival_s);
    EXPECT_GE(r.completion_s, r.start_s);
    EXPECT_NEAR(r.response_s(), r.queueing_s() + r.execution_s(), 1e-9);
  }
  // The second job queued behind the first.
  const auto& second = records[1].arrival_s > records[0].arrival_s ? records[1] : records[0];
  EXPECT_GT(second.queueing_s(), 0.0);
}

TEST(DispatcherTest, DrainIsReusable) {
  DiasDispatcher dispatcher({0.0});
  dispatcher.submit(0, [](double) {});
  EXPECT_EQ(dispatcher.drain().size(), 1u);
  dispatcher.submit(0, [](double) {});
  dispatcher.submit(0, [](double) {});
  EXPECT_EQ(dispatcher.drain().size(), 2u);
}

TEST(DispatcherTest, ObservabilityCountsPerClassCompletions) {
  obs::Registry reg;
  obs::Tracer tracer;
  DiasDispatcher dispatcher({0.2, 0.0});
  dispatcher.attach_observability(&reg, &tracer);
  for (int i = 0; i < 6; ++i) {
    dispatcher.submit(static_cast<std::size_t>(i % 2), [](double) {});
  }
  EXPECT_EQ(dispatcher.drain().size(), 6u);
  EXPECT_EQ(reg.counter("dispatcher.class0.completed").value(), 3u);
  EXPECT_EQ(reg.counter("dispatcher.class1.completed").value(), 3u);
  EXPECT_DOUBLE_EQ(reg.gauge("dispatcher.class0.theta").value(), 0.2);
  const auto resp = reg.histogram("dispatcher.response_s", 0.0, 600.0, 240).stats();
  EXPECT_EQ(resp.count, 6u);
  // One begin/end span per dispatched job.
  EXPECT_EQ(tracer.event_count(), 12u);
}

TEST(DispatcherTest, TenancyIsOffByDefault) {
  DiasDispatcher dispatcher({0.0});
  EXPECT_EQ(dispatcher.tenant_ledger(), nullptr);
  // Without a ledger a TenantId is only recorded; no ladder stage fires.
  dispatcher.submit(0, TenantId{7}, [](double) {});
  const auto records = dispatcher.drain();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].tenant.value, 7u);
  EXPECT_EQ(records[0].tenant_action, TenantAction::kNone);
  EXPECT_EQ(dispatcher.load_snapshot().tenants_tracked, 0u);
}

TEST(DispatcherTest, Validation) {
  EXPECT_THROW(DiasDispatcher({}), dias::precondition_error);
  EXPECT_THROW(DiasDispatcher({1.5}), dias::precondition_error);
  EXPECT_THROW(DiasDispatcher({-0.1}), dias::precondition_error);
  // theta == 1.0 (drop everything) is allowed, consistent with the engine.
  DiasDispatcher all_drop({1.0});
  DiasDispatcher dispatcher({0.0});
  EXPECT_THROW(dispatcher.submit(1, [](double) {}), dias::precondition_error);
  EXPECT_THROW(dispatcher.submit(0, DiasDispatcher::JobFn{}), dias::precondition_error);
}

}  // namespace
}  // namespace dias::core
