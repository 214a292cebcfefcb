#include "harness.hpp"

#include <thread>

namespace diasbench {

namespace {
const auto kEpoch = std::chrono::steady_clock::now();
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kEpoch).count();
}

std::chrono::steady_clock::time_point steady_at(double t) {
  return kEpoch +
         std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::duration<double>(t));
}

void sleep_until_s(double t) { std::this_thread::sleep_until(steady_at(t)); }

// --- Checker ------------------------------------------------------------------

Checker::Checker() : thread_([this] { loop(); }) {}

Checker::~Checker() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Checker::post(std::function<void()> check) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(check));
    ++pending_;
  }
  cv_.notify_one();
}

void Checker::finish() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [this] { return pending_ == 0; });
}

void Checker::loop() {
  for (;;) {
    std::function<void()> check;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;
      check = std::move(queue_.front());
      queue_.pop_front();
    }
    check();  // checks catch their own exceptions and mark the job wrong
    {
      std::lock_guard lock(mu_);
      --pending_;
    }
    idle_cv_.notify_all();
  }
}

// --- TimedSpill ---------------------------------------------------------------

namespace {

class TimedReader final : public dias::engine::SpillReader {
 public:
  TimedReader(std::unique_ptr<dias::engine::SpillReader> inner, TimedSpill& owner)
      : inner_(std::move(inner)), owner_(owner) {}
  bool next(std::string& chunk) override {
    const double t0 = now_s();
    const bool more = inner_->next(chunk);
    owner_.record("storage.spill.read", t0, now_s(), more ? chunk.size() : 0);
    return more;
  }

 private:
  std::unique_ptr<dias::engine::SpillReader> inner_;
  TimedSpill& owner_;
};

}  // namespace

void TimedSpill::record(const char* name, double t0, double t1, std::uint64_t bytes) {
  if (!tracing_) return;
  std::lock_guard lock(mu_);
  ops_.push_back({current_job_.load(), name, t0, t1, bytes});
}

std::vector<StorageOp> TimedSpill::take_ops() {
  std::lock_guard lock(mu_);
  return std::exchange(ops_, {});
}

std::uint64_t TimedSpill::write(const std::string& bytes) {
  const double t0 = now_s();
  const std::uint64_t handle = inner_.write(bytes);
  record("storage.spill.write", t0, now_s(), bytes.size());
  return handle;
}

std::unique_ptr<dias::engine::SpillReader> TimedSpill::open(std::uint64_t handle) {
  const double t0 = now_s();
  auto reader = inner_.open(handle);
  record("storage.spill.open", t0, now_s(), 0);
  return std::make_unique<TimedReader>(std::move(reader), *this);
}

void TimedSpill::release(std::uint64_t handle) {
  const double t0 = now_s();
  inner_.release(handle);
  record("storage.spill.release", t0, now_s(), 0);
}

// --- DispatchStack --------------------------------------------------------------

DispatchStack::~DispatchStack() {
  dispatcher.reset();
  if (observed_engine != nullptr) observed_engine->attach_observability(nullptr, nullptr);
  governor.reset();
}

// --- warm-up ----------------------------------------------------------------------

void warm_up(Workload& w, std::size_t jobs) {
  auto stack = w.make_stack();
  Checker checker;
  std::deque<JobStamp> stamps;
  for (std::size_t i = 0; i < jobs; ++i) {
    JobStamp& s = stamps.emplace_back();
    s.id = i;
    s.cls = i % 2 == 0 ? kHigh : kLow;
    stack->dispatcher->submit(s.cls, [&w, &s, &checker](const dias::core::DiasDispatcher::JobContext& ctx) {
      w.run_job(s, ctx.theta, checker);
    });
    // One job at a time: warm-up is about caches and allocators, not queues.
    stack->dispatcher->drain();
  }
  checker.finish();
  if (w.spill() != nullptr) w.spill()->take_ops();
}

}  // namespace diasbench
