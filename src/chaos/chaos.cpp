#include "chaos/chaos.hpp"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace dias::chaos {

const char* to_string(Shape shape) {
  switch (shape) {
    case Shape::kThrow:
      return "throw";
    case Shape::kStall:
      return "stall";
    case Shape::kCorrupt:
      return "corrupt";
  }
  return "?";
}

namespace detail {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double uniform_draw(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                    std::uint64_t c, std::uint64_t salt) {
  std::uint64_t h = mix(seed + salt);
  h = mix(h ^ a);
  h = mix(h ^ b);
  h = mix(h ^ c);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace detail

namespace {

constexpr std::uint64_t kChaosSalt = 0xC405;

Shape parse_shape(const std::string& text) {
  if (text == "throw") return Shape::kThrow;
  if (text == "stall") return Shape::kStall;
  if (text == "corrupt") return Shape::kCorrupt;
  throw config_error("chaos: unknown fault shape '" + text +
                     "' (expected throw|stall|corrupt)");
}

// The one range check on a binding, shared by the string grammar and
// programmatic install().
void check_spec(const std::string& binding, const PointSpec& spec) {
  if (!(spec.rate >= 0.0 && spec.rate <= 1.0)) {
    throw config_error("chaos: rate must be in [0,1] in '" + binding + "'");
  }
  if (!(spec.stall_ms >= 0.0)) {
    throw config_error("chaos: stall_ms must be >= 0 in '" + binding + "'");
  }
}

double parse_double(const std::string& text, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    throw config_error(std::string("chaos: malformed ") + what + " '" + text + "'");
  }
  return v;
}

// Specificity of a selector for longest-prefix matching: exact names beat
// any wildcard, longer wildcard prefixes beat shorter ones.
bool selector_matches(const std::string& selector, const std::string& name) {
  if (!selector.empty() && selector.back() == '*') {
    return name.compare(0, selector.size() - 1, selector, 0, selector.size() - 1) == 0;
  }
  return selector == name;
}

std::size_t selector_specificity(const std::string& selector) {
  if (!selector.empty() && selector.back() == '*') return selector.size() - 1;
  return selector.size() + 1024;  // exact match outranks every prefix
}

}  // namespace

ChaosSchedule ChaosSchedule::uniform(std::uint64_t seed, const PointSpec& spec,
                                     std::string selector) {
  ChaosSchedule s;
  s.seed = seed;
  s.points.emplace_back(std::move(selector), spec);
  return s;
}

std::vector<std::pair<std::string, PointSpec>> ChaosSchedule::parse_points(
    const std::string& text) {
  std::vector<std::pair<std::string, PointSpec>> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string entry = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw config_error("chaos: malformed point binding '" + entry +
                         "' (expected <selector>=<shape>:<rate>[:<stall_ms>])");
    }
    const std::string selector = entry.substr(0, eq);
    const std::string rhs = entry.substr(eq + 1);
    PointSpec spec;
    const std::size_t c1 = rhs.find(':');
    if (c1 == std::string::npos) {
      throw config_error("chaos: binding '" + entry + "' is missing a rate");
    }
    spec.shape = parse_shape(rhs.substr(0, c1));
    const std::size_t c2 = rhs.find(':', c1 + 1);
    const std::string rate_text =
        c2 == std::string::npos ? rhs.substr(c1 + 1) : rhs.substr(c1 + 1, c2 - c1 - 1);
    spec.rate = parse_double(rate_text, "rate");
    if (c2 != std::string::npos) {
      spec.stall_ms = parse_double(rhs.substr(c2 + 1), "stall_ms");
    }
    check_spec(entry, spec);
    out.emplace_back(selector, spec);
  }
  return out;
}

ChaosSchedule ChaosSchedule::from_env() {
  ChaosSchedule s;
  if (const char* seed = std::getenv("DIAS_CHAOS_SEED"); seed != nullptr && *seed != '\0') {
    char* end = nullptr;
    s.seed = std::strtoull(seed, &end, 10);
    if (end == seed || *end != '\0') {
      throw config_error(std::string("chaos: malformed DIAS_CHAOS_SEED '") + seed + "'");
    }
  }
  if (const char* pts = std::getenv("DIAS_CHAOS_POINTS"); pts != nullptr && *pts != '\0') {
    s.points = parse_points(pts);
  }
  return s;
}

InjectionPoint::InjectionPoint(std::string name)
    : name_(std::move(name)), name_hash_(detail::fnv1a(name_)) {}

void InjectionPoint::arm(std::uint64_t seed, const PointSpec& spec) {
  seed_.store(seed, std::memory_order_relaxed);
  rate_.store(spec.rate, std::memory_order_relaxed);
  shape_.store(static_cast<int>(spec.shape), std::memory_order_relaxed);
  stall_ms_.store(std::min(spec.stall_ms, kMaxStallMs), std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void InjectionPoint::disarm() { armed_.store(false, std::memory_order_release); }

InjectionPoint::Decision InjectionPoint::decide(std::uint64_t a, std::uint64_t b,
                                                std::uint64_t c) const {
  Decision d;
  if (!armed()) return d;
  ChaosPlane::instance().evaluations_.fetch_add(1, std::memory_order_relaxed);
  const double rate = rate_.load(std::memory_order_relaxed);
  if (rate <= 0.0) return d;
  const std::uint64_t key = seed_.load(std::memory_order_relaxed) ^ name_hash_;
  if (detail::uniform_draw(key, a, b, c, kChaosSalt) >= rate) return d;
  d.fire = true;
  d.shape = static_cast<Shape>(shape_.load(std::memory_order_relaxed));
  d.stall_ms = stall_ms_.load(std::memory_order_relaxed);
  return d;
}

bool InjectionPoint::inject(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                            const CancellationToken* cancel,
                            const std::atomic<bool>* done) {
  const Decision d = decide(a, b, c);
  if (!d.fire) return false;
  fired_.fetch_add(1, std::memory_order_relaxed);
  switch (d.shape) {
    case Shape::kThrow:
      throw ChaosError("injected fault at " + name_);
    case Shape::kStall:
      interruptible_sleep_ms(d.stall_ms, cancel, done);
      return false;
    case Shape::kCorrupt:
      return true;
  }
  return false;
}

ChaosPlane::ChaosPlane() {
  // Environment arming happens once, before any point exists; points
  // registered later pick the schedule up in point().
  installed_ = ChaosSchedule::from_env();
}

ChaosPlane& ChaosPlane::instance() {
  static ChaosPlane* plane = new ChaosPlane();  // leaked: outlives all statics
  return *plane;
}

const PointSpec* ChaosPlane::match_locked(const std::string& name) const {
  const PointSpec* best = nullptr;
  std::size_t best_score = 0;
  for (const auto& [selector, spec] : installed_.points) {
    if (!selector_matches(selector, name)) continue;
    const std::size_t score = selector_specificity(selector);
    // >= so the later of two equally specific bindings wins.
    if (best == nullptr || score >= best_score) {
      best = &spec;
      best_score = score;
    }
  }
  return best;
}

InjectionPoint& ChaosPlane::point(std::string_view name) {
  std::lock_guard lock(mu_);
  auto it = points_.find(name);
  if (it == points_.end()) {
    auto inserted = points_.emplace(std::string(name), std::unique_ptr<InjectionPoint>(
                                                           new InjectionPoint(std::string(name))));
    it = inserted.first;
    if (const PointSpec* spec = match_locked(it->first); spec != nullptr) {
      it->second->arm(installed_.seed, *spec);
      armed_points_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return *it->second;
}

void ChaosPlane::install(const ChaosSchedule& schedule) {
  for (const auto& [selector, spec] : schedule.points) check_spec(selector, spec);
  std::lock_guard lock(mu_);
  installed_ = schedule;
  std::size_t armed = 0;
  for (auto& [name, pt] : points_) {
    // Fresh op/fired streams per installation: two runs of the same work
    // under the same schedule draw identical op coordinates, which is what
    // makes the soak's identical-seed ⇒ identical-outcome check possible
    // for counter-coordinate points.
    pt->op_.store(0, std::memory_order_relaxed);
    pt->fired_.store(0, std::memory_order_relaxed);
    if (const PointSpec* spec = match_locked(name); spec != nullptr) {
      pt->arm(installed_.seed, *spec);
      ++armed;
    } else {
      pt->disarm();
    }
  }
  armed_points_.store(armed, std::memory_order_relaxed);
}

void ChaosPlane::clear() {
  std::lock_guard lock(mu_);
  installed_ = ChaosSchedule{};
  for (auto& [name, pt] : points_) pt->disarm();
  armed_points_.store(0, std::memory_order_relaxed);
}

std::vector<std::string> ChaosPlane::point_names() const {
  std::lock_guard lock(mu_);
  std::vector<std::string> names;
  names.reserve(points_.size());
  for (const auto& [name, pt] : points_) names.push_back(name);
  return names;
}

}  // namespace dias::chaos
