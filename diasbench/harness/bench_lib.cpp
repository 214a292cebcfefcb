#include "bench_lib.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <unordered_map>

namespace diasbench {

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t SplitMix::below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix mix(seed ^ (0xD1A5BE7C00000000ULL + stream * 0x9E3779B97F4A7C15ULL));
  return mix.next();
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(pct, 0.0, 100.0) / 100.0 *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double supported_percentile(std::size_t n, std::size_t beyond) {
  for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Integer test avoids rounding: n * (100 - p) / 100 >= beyond.
    const auto tail_permille = static_cast<std::uint64_t>(std::lround((100.0 - p) * 10.0));
    if (static_cast<std::uint64_t>(n) * tail_permille >=
        static_cast<std::uint64_t>(beyond) * 1000) {
      return p;
    }
  }
  return 0.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::optional<CpuTimes> parse_proc_stat(std::string_view text) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, end - pos);
    if (line.size() > 4 && line.substr(0, 4) == "cpu ") {
      std::istringstream in{std::string(line.substr(4))};
      CpuTimes t;
      std::uint64_t* fields[] = {&t.user, &t.nice,    &t.system, &t.idle,
                                 &t.iowait, &t.irq, &t.softirq, &t.steal};
      std::size_t read = 0;
      for (auto* f : fields) {
        if (!(in >> *f)) break;
        ++read;
      }
      // user..idle are mandatory; later columns appeared in later kernels.
      if (read < 4) return std::nullopt;
      for (std::size_t i = read; i < std::size(fields); ++i) *fields[i] = 0;
      return t;
    }
    pos = end + 1;
  }
  return std::nullopt;
}

std::optional<CpuTimes> read_proc_stat() {
  std::ifstream in("/proc/stat");
  if (!in) return std::nullopt;
  std::stringstream buf;
  buf << in.rdbuf();
  return parse_proc_stat(buf.str());
}

double steal_pct(const CpuTimes& before, const CpuTimes& after) {
  if (after.total() <= before.total() || after.steal < before.steal) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total() - before.total());
}

std::optional<double> clock_offset(const std::vector<Bracket>& brackets,
                                   double* uncertainty_s) {
  if (brackets.empty()) return std::nullopt;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  for (const auto& br : brackets) {
    lo = std::max(lo, br.lo_a - br.b);
    hi = std::min(hi, br.hi_a - br.b);
  }
  if (lo > hi) return std::nullopt;
  if (uncertainty_s != nullptr) *uncertainty_s = (hi - lo) / 2.0;
  return (lo + hi) / 2.0;
}

double union_length(std::vector<std::pair<double, double>> intervals, double lo, double hi) {
  for (auto& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::erase_if(intervals, [](const auto& iv) { return iv.second <= iv.first; });
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_lo = 0.0;
  double cur_hi = -std::numeric_limits<double>::infinity();
  for (const auto& [a, b] : intervals) {
    if (a > cur_hi) {
      if (cur_hi > cur_lo) total += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
    } else {
      cur_hi = std::max(cur_hi, b);
    }
  }
  if (cur_hi > cur_lo) total += cur_hi - cur_lo;
  return total;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.t0_s, s.t1_s);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = spans[i].duration() -
             union_length(std::move(children[i]), spans[i].t0_s, spans[i].t1_s);
  }
  return out;
}

std::vector<Arrival> stratified_schedule(const ScheduleSpec& spec, std::uint64_t seed) {
  std::vector<Arrival> out;
  const std::size_t k = spec.block_classes.size();
  if (k == 0 || spec.rate_per_s <= 0.0 || spec.seconds <= 0.0) return out;
  std::vector<double> gaps(k);
  double sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    gaps[i] = -std::log(1.0 - (static_cast<double>(i) + 0.5) / static_cast<double>(k));
    sum += gaps[i];
  }
  // Midpoint quantiles undercount the exponential's tail; rescale so that
  // every block spans exactly k / rate.
  for (auto& g : gaps) g *= static_cast<double>(k) / (sum * spec.rate_per_s);
  SplitMix rng(seed);
  const auto shuffle = [&rng](auto& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.below(i)]);
  };
  const auto blocks = static_cast<std::size_t>(spec.rate_per_s * spec.seconds) / k;
  out.reserve(blocks * k);
  double t = 0.0;
  for (std::size_t b = 0; b < blocks; ++b) {
    auto g = gaps;
    auto c = spec.block_classes;
    shuffle(g);
    shuffle(c);
    for (std::size_t i = 0; i < k; ++i) {
      t += g[i];
      Arrival a;
      a.due_s = t;
      a.cls = c[i];
      if (spec.tenants > 0) a.tenant = 1 + out.size() % spec.tenants;
      out.push_back(a);
    }
  }
  return out;
}

double think_time(std::uint64_t seed, std::size_t client, std::uint64_t round, double lo,
                  double hi) {
  SplitMix rng(derive_seed(derive_seed(seed, 0x7E1A + client), round));
  return lo + (hi - lo) * rng.uniform();
}

}  // namespace diasbench
