#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/annotations.hpp"
#include "sim/report.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace dredbox::sim::metrics {

class MetricsRegistry;

/// Passkey: instruments are constructible only by MetricsRegistry (which is
/// the only code that can mint a key), but publicly enough for
/// std::make_unique — no raw `new` behind friendship needed.
class RegistryKey {
  RegistryKey() = default;
  friend class MetricsRegistry;
};

/// Monotonically increasing event count ("how many attaches happened").
/// Recording is gated on the owning registry's enabled flag so that an
/// instrumented hot path costs one predictable branch when telemetry is
/// off (the same cheap-when-off contract as Tracer).
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (*enabled_) value_ += n;
  }
  std::uint64_t value() const { return value_; }

  Counter(RegistryKey, const bool* enabled) : enabled_{enabled} {}

 private:
  friend class MetricsRegistry;  // reset() re-zeroes value_ in place
  const bool* enabled_;
  std::uint64_t value_ = 0;
};

/// Point-in-time level ("switch ports in use"). set() overwrites; add()
/// applies a signed delta (the natural form for +1/-1 lifecycle events).
class Gauge {
 public:
  void set(double v) {
    if (*enabled_) {
      value_ = v;
      written_ = true;
    }
  }
  void add(double delta) {
    if (*enabled_) {
      value_ += delta;
      written_ = true;
    }
  }
  double value() const { return value_; }
  /// True once any set()/add() landed while the registry was enabled.
  bool written() const { return written_; }

  Gauge(RegistryKey, const bool* enabled) : enabled_{enabled} {}

 private:
  friend class MetricsRegistry;  // reset() re-zeroes value_/written_ in place
  const bool* enabled_;
  double value_ = 0.0;
  bool written_ = false;
};

/// Fixed-bucket latency/size distribution: streaming aggregates (mean,
/// min, max via RunningStats) plus a fixed-width bucket array over
/// [lo, hi) whose edge buckets absorb out-of-range samples, so memory stays
/// O(buckets) no matter how hot the instrumented path is and no sample is
/// silently dropped. Quantiles are estimated by linear interpolation
/// inside the bucket. Recording is gated inline, as Counter::add is, so a
/// disabled registry costs the call site one branch and no call.
class Histogram {
 public:
  void observe(double x) {
    if (*enabled_) record(x);
  }

  std::size_t count() const { return running_.count(); }
  double mean() const { return running_.mean(); }
  double min() const { return running_.min(); }
  double max() const { return running_.max(); }
  double stddev() const { return running_.stddev(); }
  double sum() const { return running_.sum(); }

  double low() const { return lo_; }
  double high() const { return hi_; }
  std::size_t bucket_count() const { return counts_.size(); }
  std::size_t bucket(std::size_t i) const { return counts_.at(i); }

  /// q in [0, 1]; 0 for an empty histogram. Estimated from the buckets
  /// (exact min/max are substituted at the extremes).
  double quantile(double q) const;

  /// Throws std::invalid_argument unless lo < hi and bins > 0.
  Histogram(RegistryKey, const bool* enabled, double lo, double hi, std::size_t bins);

 private:
  friend class MetricsRegistry;  // merge()/reset() touch the aggregates in place
  const bool* enabled_;
  RunningStats running_;
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;

  /// The bucket and aggregate work of one enabled observe().
  void record(double x);
  double bucket_low(std::size_t i) const;
  double bucket_high(std::size_t i) const { return bucket_low(i + 1); }
};

/// Owns every named instrument of one simulated rack. Instruments are
/// created on first request and live for the registry's lifetime, so call
/// sites resolve the name once (at wiring time) and keep the reference —
/// the hot path never touches the map. Names are dot-scoped by layer
/// ("memsys.read.latency_ns", "orch.sdm.scale_ups"); see README
/// "Observability" for the naming scheme.
///
/// Recording is disabled by default; enable() flips one bool that every
/// instrument checks, so disabled telemetry costs a branch per call site.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  // Instruments hold a pointer to enabled_; the registry must not move.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Get-or-create. Throws std::logic_error when the name already exists
  /// as a different instrument type. Names are dotted lower-case with at
  /// least three components ("sub.system.metric"); scripts/dredbox_lint.py
  /// enforces the scheme at registration call sites.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Get-or-create; a lookup must repeat the original bucket layout.
  /// Throws std::logic_error (naming the instrument) when an existing
  /// histogram is re-registered with different lo/hi/bins.
  Histogram& histogram(const std::string& name, double lo, double hi, std::size_t bins = 32);

  bool has(const std::string& name) const;
  std::size_t size() const { return counters_.size() + gauges_.size() + histograms_.size(); }
  /// All instrument names, sorted.
  std::vector<std::string> names() const;

  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// One row per instrument (sorted by name): name, type, count, value,
  /// mean, p50, p99, max. Counters put their total in "value"; gauges
  /// their level; histograms fill the distribution columns.
  TextTable snapshot() const;

  /// CSV export through the DREDBOX_CSV_DIR convention (no-op returning
  /// false when the variable is unset).
  bool write_csv(const std::string& name) const { return maybe_write_csv(name, snapshot()); }

  /// Folds another registry in (e.g. per-shard registries of a partitioned
  /// experiment): counters add, histograms merge their aggregates and
  /// buckets (shapes must match; throws otherwise), gauges take the other
  /// side's value when it was ever written. Missing instruments are
  /// created.
  void merge(const MetricsRegistry& other);

  /// Zeroes every instrument (between experiment repetitions); the
  /// instrument set and enabled flag are kept.
  void reset();

  /// Hands thread ownership over: the next touching thread becomes the
  /// owner. For the partitioned kernel, which legitimately drives one
  /// rack's registry from a different pool worker each barrier round —
  /// rounds are barrier-separated, so exactly one thread owns it at any
  /// instant, which is what the confinement check enforces per round.
  void rebind_owner() { confined_.rebind(); }

 private:
  bool enabled_ = false;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  // Instrument maps and instrument state are lock-free because a registry
  // belongs to one Datacenter and therefore to one thread (the sweep
  // runner's no-sharing contract); registration, merge and reset assert
  // that in audit builds. Instrument add()/observe() stay unchecked — they
  // are the hot path, and a foreign thread would have had to cross one of
  // the checked registration points to obtain the reference.
  ThreadConfined confined_;

  void check_free(const std::string& name, const char* wanted) const;
};

}  // namespace dredbox::sim::metrics

namespace dredbox::sim {

/// The observability bundle handed to every instrumented subsystem: named
/// instruments (counters/gauges/histograms) plus the event/span tracer.
/// Datacenter owns one and wires a pointer into each layer; standalone
/// component tests can pass nullptr and pay nothing.
class Telemetry {
 public:
  metrics::MetricsRegistry& metrics() { return metrics_; }
  const metrics::MetricsRegistry& metrics() const { return metrics_; }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  void enable_all() {
    metrics_.enable();
    tracer_.enable();
  }
  void disable_all() {
    metrics_.disable();
    tracer_.disable();
  }

  /// Cheap guard call sites use before building span names/attributes.
  bool tracing() const { return tracer_.enabled(); }

  /// Re-binds both thread-confined halves to the next touching thread
  /// (one barrier round of the partitioned kernel; see
  /// MetricsRegistry::rebind_owner).
  void rebind_owner() {
    metrics_.rebind_owner();
    tracer_.rebind_owner();
  }

 private:
  metrics::MetricsRegistry metrics_;
  Tracer tracer_;
};

}  // namespace dredbox::sim
