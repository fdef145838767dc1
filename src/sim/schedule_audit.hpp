#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {

/// What one audited run reports back to the auditor: the scenario's
/// canonical determinism digest plus the queue's batch accounting. Build
/// it with observe_audit() after the run drains.
///
/// The digest MUST be canonical with respect to tie order: computed from
/// per-operation outcomes keyed by operation identity (index, id) — never
/// accumulated in dispatch order — plus order-insensitive aggregates
/// (counter totals). A dispatch-order digest would diverge under every
/// permutation even when the simulation itself is tie-independent.
struct AuditObservation {
  std::uint64_t digest = 0;
  std::uint64_t batches = 0;
  std::optional<ScheduleBatchRecord> captured;
};

/// Reads the queue's batch accounting into an observation.
AuditObservation observe_audit(const EventQueue& queue, std::uint64_t digest);

struct ScheduleAuditConfig {
  /// Root seed of the permutation stream (each permutation derives its
  /// own shuffle seed, so N runs probe N distinct orders).
  std::uint64_t seed = 0x5eed;
  /// Perturbed re-runs (reverse / rotate / shuffle cycled). 16 is the
  /// acceptance bar for the repo's quickstart scenarios.
  std::size_t permutations = 16;
  /// Bisect the first divergence down to the batch and the event whose
  /// reordering flips the digest (costs O(log batches + batch size)
  /// additional scenario runs).
  bool bisect = true;
  /// Upper bound on scenario re-runs spent bisecting one divergence.
  std::size_t max_bisect_runs = 64;
};

/// One permutation whose digest broke from the baseline, plus — when the
/// bisection converged — the first batch and FIFO position whose
/// reordering flips the digest.
struct ScheduleDivergence {
  /// 1-based index of the diverging permutation.
  std::size_t permutation = 0;
  SchedulePerturbation perturbation;
  std::uint64_t expected_digest = 0;
  std::uint64_t observed_digest = 0;

  /// True when the batch-level bisection ran and converged.
  bool bisected = false;
  /// True when perturbing *only* the culprit batch reproduces the
  /// divergence (the dependence is local to that batch).
  bool isolated = false;
  std::uint64_t culprit_batch = 0;
  Time culprit_time;
  /// FIFO position within the culprit batch of the first event whose
  /// swap with its successor flips the digest; npos when the event-level
  /// scan did not converge (e.g. the dependence needs a larger reorder).
  static constexpr std::size_t kUnknownPosition = static_cast<std::size_t>(-1);
  std::size_t culprit_position = kUnknownPosition;
  std::string culprit_label;
  /// Labels of the whole culprit batch in FIFO order (the trace context
  /// of the finding: what was scheduled to fire at culprit_time).
  std::vector<std::string> batch_labels;

  std::string to_string() const;
};

struct ScheduleAuditReport {
  std::uint64_t baseline_digest = 0;
  /// Multi-event same-timestamp batches the identity run counted: how
  /// many reorderable points the scenario actually has. Zero means the
  /// audit was vacuous — no two events ever shared a timestamp.
  std::uint64_t batches = 0;
  /// Permutations executed (== config.permutations unless aborted).
  std::size_t permutations = 0;
  /// Total scenario executions, including baseline, identity and
  /// bisection runs (the audit's cost).
  std::size_t runs = 0;
  std::vector<ScheduleDivergence> divergences;

  bool ok() const { return divergences.empty(); }
  std::string to_string() const;
};

/// Deterministic "race detector for logical time": re-runs a scenario
/// under seeded permutations of every same-timestamp dispatch batch and
/// proves the canonical digest independent of tie order — the gating
/// proof that no code depends on the FIFO tie-break incidentally, which
/// the calendar-queue event-kernel rewrite (ROADMAP item 1) and the
/// partitioned parallel simulation (item 2) both require.
///
/// The scenario is a callback: build a fresh simulation (same seed every
/// time), arm the given perturbation on its EventQueue *before* running,
/// run to completion, and return observe_audit(queue, canonical_digest).
///
///   ScheduleAuditor auditor;
///   auto report = auditor.audit([&](const SchedulePerturbation& p) {
///     auto scenario = core::ScenarioBuilder{}...build();
///     scenario->simulator().queue().set_perturbation(p);
///     ... run, fold outcomes into a canonical sim::Digest d ...
///     return sim::observe_audit(scenario->simulator().queue(), d.value());
///   });
///   DREDBOX_INVARIANT(report.ok(), report.to_string());
///
/// On divergence the auditor delta-debugs: binary search over the batch
/// index prefix for the first order-sensitive batch, then an adjacent-
/// swap scan inside that batch for the first order-sensitive event,
/// reporting its label and batch composition.
class ScheduleAuditor {
 public:
  using RunFn = std::function<AuditObservation(const SchedulePerturbation&)>;

  explicit ScheduleAuditor(ScheduleAuditConfig config = {}) : config_{config} {}

  const ScheduleAuditConfig& config() const { return config_; }

  /// Runs baseline + identity + N permutations (+ bisection on the first
  /// divergence). Throws std::invalid_argument when run is empty.
  ScheduleAuditReport audit(const RunFn& run) const;

 private:
  ScheduleAuditConfig config_;

  void bisect(const RunFn& run, ScheduleAuditReport& report, ScheduleDivergence& divergence,
              std::uint64_t batch_bound) const;
};

}  // namespace dredbox::sim
