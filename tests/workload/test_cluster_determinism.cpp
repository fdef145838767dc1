#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/scenario.hpp"
#include "sim/digest.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "workload/cluster.hpp"

namespace dredbox::workload {
namespace {

struct RunSpec {
  std::size_t racks = 2;
  std::uint64_t seed = 1;
  double cross_share = 0.2;
  bool fault = false;
  sim::Time window = sim::Time::us(300);
};

core::ScenarioBuilder make_builder(const RunSpec& spec) {
  core::ScenarioBuilder builder;
  builder.add_racks(spec.racks, core::RackSpec{1, 2, 2, 0})
      .cross_rack_share(spec.cross_share)
      .seed(spec.seed);
  if (spec.fault) {
    // Kill rack 0's spine uplink in the middle of the window.
    builder.spine_fault(0, spec.window / 3, spec.window / 3);
  }
  return builder;
}

WorkloadConfig make_workload(const RunSpec& spec) {
  WorkloadConfig config;
  config.duration = spec.window;
  config.drain_grace = sim::Time::us(200);
  config.power_samples = 0;
  for (std::size_t r = 0; r < spec.racks; ++r) {
    TenantSpec tenant;
    tenant.name = "rack" + std::to_string(r);
    tenant.home_rack = r;
    tenant.vms = 1;
    tenant.local_bytes = 256ull << 20;
    tenant.remote_bytes = 1ull << 30;
    tenant.loop = LoopMode::kClosed;
    tenant.outstanding = 2;
    tenant.rate_hz = 100000.0;
    tenant.mix = {0.6, 0.4, 0.0};
    config.tenants.push_back(tenant);
  }
  return config;
}

ClusterResult run_once(const RunSpec& spec, std::size_t threads) {
  core::Scenario scenario = make_builder(spec).build();
  ClusterEngine engine{scenario.cluster(), make_workload(spec)};
  return engine.run(threads);
}

/// Once a run has drained, every admitted cross-rack request crossed the
/// spine twice (request, reply); a fail-fast request never left its rack.
void expect_spine_messages_conserved(const ClusterResult& result, const std::string& what) {
  EXPECT_EQ(result.spine_tx_messages, 2 * (result.cross_ops - result.spine_fail_fast)) << what;
}

TEST(ClusterDeterminismTest, ParallelDigestsMatchSequentialAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunSpec spec;
    spec.seed = seed;
    const ClusterResult reference = run_once(spec, 1);
    EXPECT_GT(reference.completed, 0u) << "seed " << seed;
    EXPECT_GT(reference.cross_ops, 0u) << "seed " << seed;
    expect_spine_messages_conserved(reference, "seed " + std::to_string(seed));
    for (std::size_t threads : {2u, 4u}) {
      const ClusterResult parallel = run_once(spec, threads);
      EXPECT_EQ(parallel.digest, reference.digest)
          << "seed " << seed << " threads " << threads;
      EXPECT_EQ(parallel.completed, reference.completed)
          << "seed " << seed << " threads " << threads;
    }
  }
}

TEST(ClusterDeterminismTest, SeedsActuallyChangeTheSchedule) {
  RunSpec a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(run_once(a, 1).digest, run_once(b, 1).digest);
}

TEST(ClusterDeterminismTest, SingleRackClusterIsDegenerate) {
  RunSpec spec;
  spec.racks = 1;
  spec.cross_share = 0.5;  // no peers: must never produce cross traffic
  const ClusterResult reference = run_once(spec, 1);
  const ClusterResult parallel = run_once(spec, 4);
  EXPECT_EQ(parallel.digest, reference.digest);
  EXPECT_EQ(reference.cross_ops, 0u);
  EXPECT_EQ(reference.spine_tx_messages, 0u);
  EXPECT_GT(reference.completed, 0u);
}

// The kernel runs every round on the calling thread; the result reports
// the one thread that ran, not the request.
TEST(ClusterDeterminismTest, ThreadsReportTheWorkersThatRan) {
  RunSpec spec;
  spec.window = sim::Time::us(50);
  const ClusterResult result = run_once(spec, 4);
  EXPECT_EQ(result.threads, 1u);
}

TEST(ClusterDeterminismTest, FourRackTopologyHoldsTheProperty) {
  RunSpec spec;
  spec.racks = 4;
  spec.seed = 7;
  spec.cross_share = 0.3;
  spec.window = sim::Time::us(200);
  const ClusterResult reference = run_once(spec, 1);
  EXPECT_GT(reference.cross_ops, 0u);
  expect_spine_messages_conserved(reference, "4 racks");
  for (std::size_t threads : {2u, 4u}) {
    EXPECT_EQ(run_once(spec, threads).digest, reference.digest) << "threads " << threads;
  }
}

TEST(ClusterDeterminismTest, MidWindowSpineFaultStaysDeterministic) {
  RunSpec spec;
  spec.seed = 3;
  spec.fault = true;
  const ClusterResult reference = run_once(spec, 1);
  EXPECT_GT(reference.spine_fail_fast, 0u)
      << "the fault window must actually reject traffic";
  expect_spine_messages_conserved(reference, "spine fault");
  for (std::size_t threads : {2u, 4u}) {
    const ClusterResult parallel = run_once(spec, threads);
    EXPECT_EQ(parallel.digest, reference.digest) << "threads " << threads;
    EXPECT_EQ(parallel.spine_fail_fast, reference.spine_fail_fast) << "threads " << threads;
  }

  RunSpec healthy = spec;
  healthy.fault = false;
  EXPECT_NE(run_once(healthy, 1).digest, reference.digest)
      << "the fault must leave a mark on the schedule";
}

/// Integer-totals canonical digest for the perturbation audit. The full
/// op-stream digest folds completions in dispatch order, and same-tick
/// completions of *different* VMs may legitimately fold in either order —
/// so the audit pins the outcome totals, which a tie-order dependence in
/// the simulation proper (lost ops, double completions, divergent fault
/// hits) would still break.
std::uint64_t canonical(const ClusterResult& result) {
  sim::Digest d;
  d.update(result.offered)
      .update(result.completed)
      .update(result.failed)
      .update(result.retries)
      .update(result.cross_ops)
      .update(result.spine_tx_messages)
      .update(result.spine_fail_fast);
  for (const WorkloadResult& rack : result.racks) {
    d.update("rack")
        .update(static_cast<std::uint64_t>(rack.vms_booted))
        .update(rack.offered)
        .update(rack.completed)
        .update(rack.failed)
        .update(rack.reads)
        .update(rack.writes)
        .update(rack.cross_ops);
  }
  return d.value();
}

TEST(ClusterDeterminismTest, SixteenSchedulePerturbationsLeaveOutcomesIntact) {
  constexpr sim::SchedulePerturbation::Mode kCycle[] = {
      sim::SchedulePerturbation::Mode::kReverse,
      sim::SchedulePerturbation::Mode::kRotate,
      sim::SchedulePerturbation::Mode::kShuffle,
      sim::SchedulePerturbation::Mode::kIdentity,
  };
  for (bool fault : {false, true}) {
    RunSpec spec;
    spec.seed = 5;
    spec.window = sim::Time::us(200);
    spec.fault = fault;
    // The power and time-series samplers tick on the same grid, so every
    // sample instant is a tie group for the perturbation to permute.
    WorkloadConfig workload = make_workload(spec);
    workload.power_samples = 4;
    workload.sample_period = spec.window / 4;
    core::Scenario reference_scenario = make_builder(spec).build();
    const ClusterResult reference = ClusterEngine{reference_scenario.cluster(), workload}.run(2);
    if (fault) {
      EXPECT_GT(reference.spine_fail_fast, 0u) << "the fault window must actually reject traffic";
    }
    const std::uint64_t baseline = canonical(reference);

    for (int i = 1; i <= 16; ++i) {
      sim::SchedulePerturbation perturbation;
      perturbation.mode = kCycle[(i - 1) % 4];
      perturbation.seed = 100 + static_cast<std::uint64_t>(i);

      core::Scenario scenario = make_builder(spec).build();
      for (std::size_t r = 0; r < scenario.cluster().size(); ++r) {
        scenario.cluster().rack(r).simulator().queue().set_perturbation(perturbation);
      }
      ClusterEngine engine{scenario.cluster(), workload};
      const std::string what = std::string{fault ? "spine fault, " : "healthy, "} +
                               "perturbation " + std::to_string(i) + " (" +
                               perturbation.to_string() + ")";
      EXPECT_EQ(canonical(engine.run(2)), baseline) << what;
      std::uint64_t groups = 0;
      for (std::size_t r = 0; r < scenario.cluster().size(); ++r) {
        groups += scenario.cluster().rack(r).simulator().queue().batches_collected();
      }
      EXPECT_GT(groups, 0u) << what << ": no tie group formed, so nothing was permuted";
    }
  }
}

}  // namespace
}  // namespace dredbox::workload
