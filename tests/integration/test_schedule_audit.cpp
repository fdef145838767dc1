// Schedule-order audit at quickstart scale: the full boot -> scale-up ->
// paced-remote-reads session (the same shape examples/quickstart.cpp
// exercises) must produce an identical canonical digest
// under 16 seeded permutations of every same-timestamp dispatch batch —
// healthy AND under the faulty-quickstart plan, whose events used to collide
// with the 250 us read grid until FaultInjector started skewing
// transitions by one tick. This is the gating proof for the calendar-queue
// kernel rewrite (ROADMAP item 1): no outcome may lean on the queue's
// incidental FIFO tie-break.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/digest.hpp"
#include "sim/fault.hpp"
#include "sim/schedule_audit.hpp"
#include "sim/timeseries.hpp"

namespace dredbox {
namespace {

using sim::AuditObservation;
using sim::SchedulePerturbation;
using sim::Time;

/// One full quickstart-shaped session under `perturbation`, reduced to a
/// canonical digest. Canonical means tie-order insensitive by construction:
/// per-read outcomes are keyed by the read's own index (never folded in
/// dispatch order), and the only aggregates are integer counter totals
/// folded in sorted-name order. Anything order-dependent that leaks into
/// this digest is a real simulation defect — exactly what the audit hunts.
AuditObservation run_session(const SchedulePerturbation& perturbation,
                             const std::string& fault_plan) {
  core::Scenario scenario = core::ScenarioBuilder{}
                                .racks(/*trays=*/2, /*compute_per_tray=*/2,
                                       /*memory_per_tray=*/2)
                                .telemetry()
                                .prefer_optical()
                                .build();
  core::Datacenter& dc = scenario.datacenter();
  dc.simulator().queue().set_perturbation(perturbation);

  const auto vm = dc.boot_vm("audit-guest", /*vcpus=*/2, /*memory=*/2ull << 30);
  EXPECT_TRUE(vm.ok) << vm.error;
  const auto up = dc.scale_up(vm.vm, vm.compute, 4ull << 30);
  EXPECT_TRUE(up.ok) << up.error;

  const auto attachment = dc.fabric().attachments_of(vm.compute).front();
  const Time t0 = dc.simulator().now();
  Time fault_end = t0;
  if (!fault_plan.empty()) {
    const sim::FaultPlan shifted = sim::FaultPlan::parse(fault_plan).shifted(t0);
    dc.inject_faults(shifted);
    fault_end = shifted.horizon();
  }
  const Time window_end = std::max(fault_end + Time::ms(1), t0 + Time::ms(2));

  // The quickstart's metric sampler ticks on the same 250 us grid as the
  // reads below, so every grid instant is a genuine two-event tie (sample
  // vs read). The sampled series is deliberately NOT part of the canonical
  // digest: a snapshot taken at the same instant as a read legitimately
  // sees pre- or post-read values depending on tie order.
  sim::TimeSeriesSampler sampler{dc.simulator(), dc.metrics(), Time::us(250)};
  sampler.start(window_end);

  // Paced 64 B remote reads on the quickstart's 250 us grid. The outcome of
  // read i lands in slot i regardless of how tied events dispatched.
  struct ReadOutcome {
    std::uint64_t status = 0;
    std::uint64_t round_trip_ticks = 0;
    std::uint64_t retries = 0;
  };
  std::vector<ReadOutcome> outcomes;
  std::size_t index = 0;
  for (Time t = t0; t < window_end; t += Time::us(250)) {
    const std::size_t slot = index++;
    outcomes.resize(index);
    dc.simulator().at(t, [&dc, &outcomes, slot, &vm, &attachment] {
      const auto tx = dc.remote_read(vm.compute, attachment.compute_base + 0x40, 64);
      outcomes[slot] = {static_cast<std::uint64_t>(tx.status),
                       static_cast<std::uint64_t>(tx.round_trip().ticks()),
                       static_cast<std::uint64_t>(tx.retries)};
    }, "audit.remote_read");
  }
  dc.advance_to(window_end);

  const auto down = dc.scale_down(vm.vm, vm.compute, up.segment);
  EXPECT_GT(down.delay(), Time::zero());

  sim::Digest digest;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    digest.update("read").update(i).update(outcomes[i].status);
    digest.update(outcomes[i].round_trip_ticks).update(outcomes[i].retries);
  }
  // Integer counter totals are sums — insensitive to the order the
  // increments happened in. (Histograms/gauges are left out: float
  // aggregates accumulate rounding in dispatch order.)
  for (const std::string& name : dc.metrics().names()) {
    if (const auto* counter = dc.metrics().find_counter(name)) {
      digest.update(name).update(counter->value());
    }
  }
  digest.update("faults").update(dc.faults().injected()).update(dc.faults().recovered());
  return sim::observe_audit(dc.simulator().queue(), digest.value());
}

TEST(ScheduleAuditIntegrationTest, HealthyQuickstartSurvives16Permutations) {
  sim::ScheduleAuditConfig config;
  config.permutations = 16;
  sim::ScheduleAuditor auditor{config};
  const auto report = auditor.audit(
      [](const SchedulePerturbation& p) { return run_session(p, ""); });
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.batches, 0u) << "no same-timestamp batches: the audit proved nothing";
  EXPECT_EQ(report.permutations, 16u);
}

TEST(ScheduleAuditIntegrationTest, FaultyQuickstartSurvives16Permutations) {
  // The faulty-quickstart plan: a 2 ms link flap from t0+1ms and a 1 ms
  // congestion burst from t0+2ms — nominal instants that land exactly on
  // the 250 us read grid. FaultInjector's one-tick skew keeps the
  // transitions out of the read batches; without it this audit diverges
  // (a read tied with the flap would complete or fail by FIFO accident).
  sim::ScheduleAuditConfig config;
  config.permutations = 16;
  sim::ScheduleAuditor auditor{config};
  const auto report = auditor.audit([](const SchedulePerturbation& p) {
    return run_session(p, "link-flap@1ms+2ms;congestion@2ms+1ms:magnitude=4");
  });
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.batches, 0u) << "no same-timestamp batches: the audit proved nothing";
}

}  // namespace
}  // namespace dredbox
