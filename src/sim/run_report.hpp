#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"
#include "sim/timeseries.hpp"
#include "sim/trace.hpp"

namespace dredbox::sim {

/// Schema tag of the run-report artifact this builder emits. Versioned so
/// downstream tooling (scripts/validate_artifacts.py) can evolve the
/// contract without guessing; bump to /v2 on any breaking field change.
inline constexpr const char* kReportSchema = "dredbox-report/v1";

/// Environment variable naming the file the report JSON is written to
/// (the DREDBOX_TRACE_FILE convention; unset means no file).
inline constexpr const char* kReportFileEnv = "DREDBOX_REPORT_FILE";

/// Builds the standardized per-run artifact: one JSON document capturing
/// what ran (config digest, seed, fault plan), what it produced
/// (determinism digest, metric finals, latency quantiles, time series)
/// and why it behaved that way (top-N slowest causal traces with their
/// span trees, optional event-kernel profile).
///
/// Everything except the kernel profile is a pure function of simulation
/// state, so same-seed runs render byte-identical documents; host-time
/// profile rows are only included when explicitly added (callers gate on
/// DREDBOX_PROFILE) and are excluded from any determinism comparison.
class RunReport {
 public:
  RunReport& tag(std::string value);
  RunReport& seed(std::uint64_t value);
  RunReport& config_digest(std::uint64_t value);
  RunReport& determinism_digest(std::uint64_t value);
  /// The fault-plan spec string; empty means a healthy run.
  RunReport& fault_plan(std::string spec);
  RunReport& duration(Time simulated);

  /// Free-form scalar result ("offered", "completed", ...). The value is
  /// rendered as a JSON number; insertion order is preserved.
  RunReport& note(const std::string& key, std::uint64_t value);
  RunReport& note(const std::string& key, double value);

  /// Metric finals: one row per instrument, name-sorted; histograms add
  /// count/mean/min/max and p50/p95/p99.
  RunReport& metrics(const metrics::MetricsRegistry& registry);

  /// The sampled series, rendered as [t_us, value] pairs per series.
  RunReport& timeseries(const TimeSeriesSet& set, Time period);

  /// Reconstructs span trees from the tracer's causal contexts and embeds
  /// the top_n slowest root spans (duration desc; ties by begin then
  /// span id). Also records the tracer's truncation accounting and
  /// whether tracing was enabled.
  RunReport& traces(const Tracer& tracer, std::size_t top_n = 5);

  /// Embeds the event-kernel self-profile (label-sorted). Host-time
  /// figures make the document non-reproducible — callers add this only
  /// when DREDBOX_PROFILE is set.
  RunReport& kernel_profile(const EventQueue& queue);

  /// The complete document (pretty-printed, stable key order).
  std::string to_json() const;

  /// Writes to_json() to $DREDBOX_REPORT_FILE when set; returns whether a
  /// file was produced. Throws on I/O failure.
  bool maybe_write() const;

 private:
  std::string tag_ = "run";
  std::uint64_t seed_ = 0;
  std::uint64_t config_digest_ = 0;
  std::uint64_t determinism_digest_ = 0;
  std::string fault_plan_;
  Time duration_ = Time::zero();
  std::vector<std::pair<std::string, std::string>> notes_;  // key -> rendered number
  std::string metrics_json_;                                // rendered array, "" = absent
  std::string timeseries_json_;                             // rendered object, "" = absent
  std::string traces_json_;                                 // rendered array, "" = absent
  std::string tracer_json_;                                 // rendered object, "" = absent
  std::string profile_json_;                                // rendered array, "" = absent
  bool tracing_ = false;
};

}  // namespace dredbox::sim
