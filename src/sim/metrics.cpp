#include "sim/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace dredbox::sim::metrics {

Histogram::Histogram(RegistryKey, const bool* enabled, double lo, double hi, std::size_t bins)
    : enabled_{enabled}, lo_{lo}, hi_{hi} {
  if (!(lo < hi)) throw std::invalid_argument("Histogram: lo must be < hi");
  if (bins == 0) throw std::invalid_argument("Histogram: need at least one bin");
  counts_.resize(bins, 0);
}

void Histogram::record(double x) {
  running_.add(x);
  const double span = hi_ - lo_;
  auto bin = static_cast<std::int64_t>((x - lo_) / span * static_cast<double>(counts_.size()));
  bin = std::clamp<std::int64_t>(bin, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
}

double Histogram::bucket_low(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::quantile(double q) const {
  if (running_.count() == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  if (q <= 0.0) return running_.min();
  if (q >= 1.0) return running_.max();

  const double target = q * static_cast<double>(running_.count());
  double cumulative = 0.0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const double in_bin = static_cast<double>(counts_[b]);
    if (cumulative + in_bin >= target && in_bin > 0) {
      const double frac = (target - cumulative) / in_bin;
      const double lo = bucket_low(b);
      const double hi = bucket_high(b);
      // Clamp the estimate to observed extremes so edge buckets (which
      // absorb out-of-range samples) cannot report impossible values.
      return std::clamp(lo + frac * (hi - lo), running_.min(), running_.max());
    }
    cumulative += in_bin;
  }
  return running_.max();
}

void MetricsRegistry::check_free(const std::string& name, const char* wanted) const {
  const bool taken = (std::string{wanted} != "counter" && counters_.count(name)) ||
                     (std::string{wanted} != "gauge" && gauges_.count(name)) ||
                     (std::string{wanted} != "histogram" && histograms_.count(name));
  if (taken) {
    throw std::logic_error("MetricsRegistry: instrument '" + name +
                           "' already registered with a different type (requested " + wanted +
                           ")");
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  confined_.assert_confined("MetricsRegistry::counter");
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  check_free(name, "counter");
  auto [pos, inserted] = counters_.emplace(name, std::make_unique<Counter>(RegistryKey{}, &enabled_));
  (void)inserted;
  return *pos->second;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  confined_.assert_confined("MetricsRegistry::gauge");
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  check_free(name, "gauge");
  auto [pos, inserted] = gauges_.emplace(name, std::make_unique<Gauge>(RegistryKey{}, &enabled_));
  (void)inserted;
  return *pos->second;
}

Histogram& MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                      std::size_t bins) {
  confined_.assert_confined("MetricsRegistry::histogram");
  auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    Histogram& existing = *it->second;
    // A re-registration asking for a different bucket layout is a naming
    // collision between two call sites, not a lookup — silently keeping
    // the first layout would misattribute one site's samples.
    if (existing.low() != lo || existing.high() != hi || existing.bucket_count() != bins) {
      throw std::logic_error(
          "MetricsRegistry: histogram '" + name + "' already registered with bounds [" +
          TextTable::num(existing.low(), 3) + ", " + TextTable::num(existing.high(), 3) +
          ")/" + std::to_string(existing.bucket_count()) + " bins; re-registration asked for [" +
          TextTable::num(lo, 3) + ", " + TextTable::num(hi, 3) + ")/" + std::to_string(bins));
    }
    return existing;
  }
  check_free(name, "histogram");
  auto [pos, inserted] =
      histograms_.emplace(name, std::make_unique<Histogram>(RegistryKey{}, &enabled_, lo, hi, bins));
  (void)inserted;
  return *pos->second;
}

bool MetricsRegistry::has(const std::string& name) const {
  return counters_.count(name) || gauges_.count(name) || histograms_.count(name);
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(size());
  for (const auto& [name, c] : counters_) out.push_back(name);
  for (const auto& [name, g] : gauges_) out.push_back(name);
  for (const auto& [name, h] : histograms_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : it->second.get();
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : it->second.get();
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

TextTable MetricsRegistry::snapshot() const {
  TextTable table{{"instrument", "type", "count", "value", "mean", "p50", "p99", "max"}};
  struct Row {
    std::string name;
    std::vector<std::string> cells;
  };
  std::vector<Row> rows;
  for (const auto& [name, c] : counters_) {
    rows.push_back({name,
                    {name, "counter", std::to_string(c->value()), std::to_string(c->value()),
                     "-", "-", "-", "-"}});
  }
  for (const auto& [name, g] : gauges_) {
    rows.push_back(
        {name, {name, "gauge", "-", TextTable::num(g->value(), 3), "-", "-", "-", "-"}});
  }
  for (const auto& [name, h] : histograms_) {
    rows.push_back({name,
                    {name, "histogram", std::to_string(h->count()), "-",
                     TextTable::num(h->mean(), 3), TextTable::num(h->quantile(0.5), 3),
                     TextTable::num(h->quantile(0.99), 3), TextTable::num(h->max(), 3)}});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) { return a.name < b.name; });
  for (auto& row : rows) table.add_row(std::move(row.cells));
  return table;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  confined_.assert_confined("MetricsRegistry::merge");
  // Merge must land regardless of the local enabled flag: it folds
  // already-recorded data, it does not record new samples.
  const bool was_enabled = enabled_;
  enabled_ = true;
  for (const auto& [name, c] : other.counters_) counter(name).add(c->value());
  for (const auto& [name, g] : other.gauges_) {
    if (g->written()) gauge(name).set(g->value());
  }
  for (const auto& [name, h] : other.histograms_) {
    // Layout check up front (histogram() would also throw on mismatch,
    // but from inside the loop the enabled_ restore below would be lost).
    if (const Histogram* mine = find_histogram(name);
        mine != nullptr && (mine->bucket_count() != h->bucket_count() ||
                            mine->low() != h->low() || mine->high() != h->high())) {
      enabled_ = was_enabled;
      throw std::logic_error("MetricsRegistry::merge: histogram '" + name +
                             "' has mismatched bucket layout");
    }
    Histogram& mine = histogram(name, h->low(), h->high(), h->bucket_count());
    mine.running_.merge(h->running_);
    for (std::size_t b = 0; b < mine.counts_.size(); ++b) mine.counts_[b] += h->counts_[b];
  }
  enabled_ = was_enabled;
}

void MetricsRegistry::reset() {
  confined_.assert_confined("MetricsRegistry::reset");
  for (auto& [name, c] : counters_) c->value_ = 0;
  for (auto& [name, g] : gauges_) {
    g->value_ = 0.0;
    g->written_ = false;
  }
  for (auto& [name, h] : histograms_) {
    h->running_ = RunningStats{};
    std::fill(h->counts_.begin(), h->counts_.end(), 0);
  }
}

}  // namespace dredbox::sim::metrics
