#include "obs/metrics.hpp"

#include "common/error.hpp"
#include "obs/json.hpp"

namespace dias::obs {

void HistogramMetric::observe(double x) {
  std::lock_guard lock(mu_);
  moments_.add(x);
  histogram_.add(x);
}

HistogramMetric::Stats HistogramMetric::stats() const {
  std::lock_guard lock(mu_);
  Stats s;
  s.count = moments_.count();
  if (s.count == 0) return s;  // Histogram::quantile throws on empty
  s.mean = moments_.mean();
  s.stddev = moments_.stddev();
  s.min = moments_.min();
  s.max = moments_.max();
  s.p50 = histogram_.quantile(0.50);
  s.p95 = histogram_.quantile(0.95);
  s.p99 = histogram_.quantile(0.99);
  return s;
}

void Registry::check_kind(const std::string& name, Kind kind) {
  const auto [it, inserted] = kinds_.try_emplace(name, kind);
  DIAS_EXPECTS(inserted || it->second == kind,
               "metric name already registered as a different kind");
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  check_kind(name, Kind::kCounter);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  check_kind(name, Kind::kGauge);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& Registry::histogram(const std::string& name, double lo, double hi,
                                     std::size_t bins) {
  std::lock_guard lock(mu_);
  check_kind(name, Kind::kHistogram);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>(lo, hi, bins);
  return *slot;
}

const Counter* Registry::find_counter(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* Registry::find_gauge(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const HistogramMetric* Registry::find_histogram(const std::string& name) const {
  std::lock_guard lock(mu_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.push_back({name, c->value()});
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.push_back({name, g->value()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) snap.histograms.push_back({name, h->stats()});
  return snap;
}

std::string MetricsSnapshot::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& c : counters) w.field(c.name, c.value);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& g : gauges) w.field(g.name, g.value);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& h : histograms) {
    w.key(h.name);
    w.begin_object();
    w.field("count", static_cast<std::uint64_t>(h.stats.count));
    w.field("mean", h.stats.mean);
    w.field("stddev", h.stats.stddev);
    w.field("min", h.stats.min);
    w.field("max", h.stats.max);
    w.field("p50", h.stats.p50);
    w.field("p95", h.stats.p95);
    w.field("p99", h.stats.p99);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace dias::obs
