#include "sim/schedule_audit.hpp"

#include <stdexcept>

#include "sim/contract.hpp"
#include "sim/format.hpp"

namespace dredbox::sim {

AuditObservation observe_audit(const EventQueue& queue, std::uint64_t digest) {
  AuditObservation out;
  out.digest = digest;
  out.batches = queue.batches_collected();
  out.captured = queue.captured_batch();
  return out;
}

std::string ScheduleDivergence::to_string() const {
  std::string out = strformat("permutation #%zu (%s): digest %016llx != baseline %016llx",
                              permutation, perturbation.to_string().c_str(),
                              static_cast<unsigned long long>(observed_digest),
                              static_cast<unsigned long long>(expected_digest));
  if (!bisected) return out;
  out += strformat("\n  first order-sensitive batch: #%llu at %s%s",
                   static_cast<unsigned long long>(culprit_batch),
                   culprit_time.to_string().c_str(),
                   isolated ? "" : " (not reproducible in isolation; earlier reorders contribute)");
  if (culprit_position != kUnknownPosition) {
    out += strformat("\n  first order-sensitive event: \"%s\" (FIFO position %zu)",
                     culprit_label.c_str(), culprit_position);
  }
  if (!batch_labels.empty()) {
    out += "\n  batch composition (FIFO order):";
    for (std::size_t i = 0; i < batch_labels.size(); ++i) {
      out += strformat("\n    [%zu] %s", i, batch_labels[i].c_str());
    }
  }
  return out;
}

std::string ScheduleAuditReport::to_string() const {
  std::string out = strformat(
      "schedule audit: %zu permutations over %llu same-timestamp batches, %zu runs — %s",
      permutations, static_cast<unsigned long long>(batches), runs,
      ok() ? "tie-order independent" : "ORDER-DEPENDENT");
  for (const auto& divergence : divergences) {
    out += "\n";
    out += divergence.to_string();
  }
  return out;
}

ScheduleAuditReport ScheduleAuditor::audit(const RunFn& run) const {
  if (!run) throw std::invalid_argument("ScheduleAuditor::audit: scenario callback must be callable");
  ScheduleAuditReport report;

  // Baseline: disarmed FIFO dispatch, no batch counting.
  const AuditObservation baseline = run(SchedulePerturbation{});
  ++report.runs;
  report.baseline_digest = baseline.digest;

  // Identity: the same dispatch loop with the perturbation step armed but
  // reordering nothing, so it must be digest-neutral. Also yields the
  // batch count that bounds the bisection.
  SchedulePerturbation identity;
  identity.mode = SchedulePerturbation::Mode::kIdentity;
  const AuditObservation neutral = run(identity);
  ++report.runs;
  report.batches = neutral.batches;
  DREDBOX_INVARIANT(neutral.digest == report.baseline_digest,
                    strformat("identity (batched FIFO) run digest %016llx != baseline %016llx: "
                              "the scenario is not re-run deterministic, audit results would "
                              "be meaningless",
                              static_cast<unsigned long long>(neutral.digest),
                              static_cast<unsigned long long>(report.baseline_digest)));

  using Mode = SchedulePerturbation::Mode;
  static constexpr Mode kCycle[] = {Mode::kReverse, Mode::kRotate, Mode::kShuffle};
  bool bisected_one = false;
  for (std::size_t i = 1; i <= config_.permutations; ++i) {
    SchedulePerturbation perturbation;
    perturbation.mode = kCycle[(i - 1) % 3];
    perturbation.seed = config_.seed + i;
    const AuditObservation observed = run(perturbation);
    ++report.runs;
    ++report.permutations;
    if (observed.digest == report.baseline_digest) continue;

    ScheduleDivergence divergence;
    divergence.permutation = i;
    divergence.perturbation = perturbation;
    divergence.expected_digest = report.baseline_digest;
    divergence.observed_digest = observed.digest;
    // Bisection is expensive (each probe is a full re-run); localize the
    // first divergence only — fixing it and re-auditing is the workflow.
    // The prefix bound is this run's own batch count: restricting the
    // window to [0, batches-it-formed) reproduces it exactly.
    if (config_.bisect && !bisected_one && observed.batches > 0) {
      bisect(run, report, divergence, observed.batches);
      bisected_one = true;
    }
    report.divergences.push_back(std::move(divergence));
  }
  return report;
}

void ScheduleAuditor::bisect(const RunFn& run, ScheduleAuditReport& report,
                             ScheduleDivergence& divergence, std::uint64_t batch_bound) const {
  const std::size_t budget = report.runs + config_.max_bisect_runs;
  auto probe = [&](SchedulePerturbation p) {
    ++report.runs;
    return run(p);
  };

  // Binary search the smallest batch-index prefix [0, hi) that still
  // diverges: perturbing nothing matches the baseline, perturbing every
  // batch reproduces the divergence, so a boundary exists. (Reordering a
  // batch can change how later batches form, so this is delta debugging —
  // it isolates *a* first sensitive batch under the probes taken, which
  // is exactly what a fix needs.)
  std::uint64_t lo = 0;       // [0, lo) proven clean
  std::uint64_t hi = batch_bound;  // [0, hi) proven divergent: the diverging
                                   // run formed batch_bound batches, so this
                                   // window reproduces it verbatim
  while (hi - lo > 1 && report.runs < budget) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    SchedulePerturbation window = divergence.perturbation;
    window.first_batch = 0;
    window.last_batch = mid;
    const AuditObservation observed = probe(window);
    (observed.digest == report.baseline_digest ? lo : hi) = mid;
  }
  divergence.bisected = true;
  divergence.culprit_batch = hi - 1;

  // Confirm in isolation and capture the batch's composition.
  SchedulePerturbation isolated = divergence.perturbation;
  isolated.first_batch = divergence.culprit_batch;
  isolated.last_batch = divergence.culprit_batch + 1;
  isolated.capture_batch = divergence.culprit_batch;
  const AuditObservation capture = probe(isolated);
  divergence.isolated = capture.digest != report.baseline_digest;
  if (capture.captured) {
    divergence.culprit_time = capture.captured->when;
    divergence.batch_labels = capture.captured->fifo_labels;
  }

  // Event-level scan: the first adjacent swap inside the culprit batch
  // that flips the digest names the first order-sensitive event. Only
  // meaningful when the batch diverges in isolation.
  if (!divergence.isolated) return;
  const std::size_t batch_size = divergence.batch_labels.size();
  for (std::size_t pos = 0; pos + 1 < batch_size && report.runs < budget; ++pos) {
    SchedulePerturbation swap;
    swap.mode = SchedulePerturbation::Mode::kSwapAdjacent;
    swap.swap_position = pos;
    swap.first_batch = divergence.culprit_batch;
    swap.last_batch = divergence.culprit_batch + 1;
    const AuditObservation observed = probe(swap);
    if (observed.digest != report.baseline_digest) {
      divergence.culprit_position = pos;
      divergence.culprit_label = divergence.batch_labels[pos];
      return;
    }
  }
}

}  // namespace dredbox::sim
