#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {

/// Ordered accumulation of named latency contributions. Used to produce the
/// paper's Fig. 8-style round-trip breakdown: each pipeline stage charges
/// its share under a stable component name, and the report preserves the
/// order in which components first appeared (i.e., pipeline order).
///
/// Storage is a fixed inline array keyed by ComponentId: a Breakdown
/// embedded in a pooled Transaction or Packet never heap-allocates, and
/// charge sites name their stage with sim::component("label"), which
/// resolves to a 2-byte id at compile time.
class Breakdown {
 public:
  /// Distinct components one op can accumulate. The widest real path (a
  /// remote read's full Fig. 8 pipeline merged with retry/re-provision
  /// charges and the migration stages) stays under 20; exceeding this is
  /// an invariant violation, not a reallocation.
  static constexpr std::size_t kMaxComponents = 24;

  /// Adds `amount` under `component`.
  void charge(ComponentId component, Time amount);

  /// Appends a component this breakdown does not hold yet, in O(1) — for
  /// pipelines that charge each stage exactly once (the fabric walk sums a
  /// stage's repeated legs before appending). A repeated id is a contract
  /// violation, checked in -DDREDBOX_AUDIT=ON builds.
  void append(ComponentId component, Time amount);

  /// Sum over all components.
  Time total() const;

  /// Contribution of one component; Time::zero() if absent.
  Time of(ComponentId component) const;

  bool has(ComponentId component) const;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  /// Resolved (label, time) pairs in first-appearance order. Built on
  /// demand for reporting/tracing consumers; the views point at
  /// kComponentLabels and outlive the Breakdown.
  std::vector<std::pair<std::string_view, Time>> components() const;

  /// Raw entries in first-appearance order (hot-path reads).
  const ComponentId* ids() const { return ids_; }
  const Time* times() const { return times_; }

  /// Merges another breakdown (component-wise addition, order preserved,
  /// new components appended).
  void merge(const Breakdown& other);

  /// Scales every component (e.g., averaging over N runs with 1.0/N).
  void scale_all(double factor);

  /// Drops all components (re-issue of a pooled op starts from a clean
  /// breakdown — see the stale-field sweep in ISSUE 9).
  void clear() { count_ = 0; }

  /// Multi-line rendering: one component per line with ns value, percentage
  /// of the total, and a proportional bar.
  std::string to_string(std::size_t bar_width = 40) const;

 private:
  /// Index of `component` in ids_, or count_ if absent.
  std::size_t find(ComponentId component) const;

  ComponentId ids_[kMaxComponents];
  Time times_[kMaxComponents];
  std::uint8_t count_ = 0;
};

}  // namespace dredbox::sim
