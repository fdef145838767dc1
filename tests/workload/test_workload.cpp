// Workload engine: tenant-spec validation, arrival pacing, offered-load
// calibration and the exact-replay determinism digest the sweep runner's
// parallel-vs-sequential check depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "workload/engine.hpp"
#include "workload/tenant.hpp"

namespace dredbox {
namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

bool mentions(const std::vector<std::string>& errors, const std::string& needle) {
  return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
    return e.find(needle) != std::string::npos;
  });
}

/// A rack roomy enough for every tenant shape below.
core::Scenario make_rack(std::uint64_t seed = 1) {
  return core::ScenarioBuilder{}
      .racks(1, 2, 2)
      .compute_local_memory_bytes(16ull * kGiB)
      .memory_pool_bytes(64ull * kGiB)
      .seed(seed)
      .build();
}

workload::TenantSpec small_tenant() {
  workload::TenantSpec spec;
  spec.name = "t";
  spec.vms = 2;
  spec.local_bytes = kGiB;
  spec.remote_bytes = kGiB;  // hotplug blocks are 1 GiB; keep it aligned
  spec.rate_hz = 20000.0;
  return spec;
}

// --- spec validation ---

TEST(TenantSpec, DefaultIsValid) {
  EXPECT_TRUE(workload::TenantSpec{}.errors().empty());
}

TEST(TenantSpec, ErrorsNameTheOffendingField) {
  workload::TenantSpec spec;
  spec.name = "web";
  spec.vms = 0;
  spec.rate_hz = 0.0;
  spec.mix = {0.0, 0.0, 0.0};
  const auto errors = spec.errors();
  EXPECT_TRUE(mentions(errors, "web.vms"));
  EXPECT_TRUE(mentions(errors, "web.rate_hz"));
  EXPECT_TRUE(mentions(errors, "web.mix"));
}

TEST(TenantSpec, RejectsRequestsLargerThanTheWindow) {
  workload::TenantSpec spec;
  spec.remote_bytes = 1024;
  spec.op_bytes = 4096;
  spec.mix.dma = 0.1;
  spec.dma_bytes = 1ull << 20;
  const auto errors = spec.errors();
  EXPECT_TRUE(mentions(errors, "op_bytes"));
  EXPECT_TRUE(mentions(errors, "dma_bytes"));
}

TEST(TenantSpec, ClosedLoopNeedsAWindow) {
  workload::TenantSpec spec;
  spec.loop = workload::LoopMode::kClosed;
  spec.outstanding = 0;
  EXPECT_TRUE(mentions(spec.errors(), "outstanding"));
}

TEST(TenantSpec, MmppChecksOnlyApplyToMmpp) {
  workload::TenantSpec spec;
  spec.mmpp.burst_multiplier = 0.5;
  spec.arrivals = workload::ArrivalProcess::kPoisson;
  EXPECT_TRUE(spec.errors().empty());
  spec.arrivals = workload::ArrivalProcess::kMmpp;
  EXPECT_TRUE(mentions(spec.errors(), "mmpp.burst_multiplier"));
}

TEST(WorkloadConfig, AggregatesTenantErrorsAndOwnFields) {
  workload::WorkloadConfig config;
  config.duration = sim::Time::zero();
  const auto empty_errors = config.errors();
  EXPECT_TRUE(mentions(empty_errors, "tenants:"));
  EXPECT_TRUE(mentions(empty_errors, "duration:"));

  workload::TenantSpec bad = small_tenant();
  bad.vcpus = 0;
  config.tenants.push_back(bad);
  EXPECT_TRUE(mentions(config.errors(), "t.vcpus"));
}

TEST(WorkloadEngine, CtorThrowsListingEveryError) {
  auto rack = make_rack();
  workload::WorkloadConfig config;  // no tenants
  config.drain_grace = sim::Time::ms(-1);
  try {
    workload::WorkloadEngine engine{rack.datacenter(), config};
    FAIL() << "engine accepted an invalid config";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("invalid WorkloadConfig"), std::string::npos);
    EXPECT_NE(what.find("tenants:"), std::string::npos);
    EXPECT_NE(what.find("drain_grace:"), std::string::npos);
  }
}

// --- arrival pacing ---

TEST(ArrivalClock, PoissonGapsAverageTheConfiguredRate) {
  workload::TenantSpec spec = small_tenant();
  spec.rate_hz = 10000.0;  // mean gap 100 us
  sim::Rng rng{42};
  workload::ArrivalClock clock{spec, rng};
  double total_s = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total_s += clock.next_gap(sim::Time::zero()).as_sec();
  const double mean_gap_us = total_s / n * 1e6;
  EXPECT_NEAR(mean_gap_us, 100.0, 5.0);  // ±5% over 20k draws
}

TEST(ArrivalClock, MmppVisitsBothStatesAndBurstsRunFaster) {
  workload::TenantSpec spec = small_tenant();
  spec.arrivals = workload::ArrivalProcess::kMmpp;
  spec.rate_hz = 10000.0;
  spec.mmpp.burst_multiplier = 8.0;
  sim::Rng rng{7};
  workload::ArrivalClock clock{spec, rng};

  sim::Time now;
  double quiet_total = 0.0, burst_total = 0.0;
  int quiet_n = 0, burst_n = 0;
  for (int i = 0; i < 50000; ++i) {
    const sim::Time gap = clock.next_gap(now);
    if (clock.in_burst()) {
      burst_total += gap.as_sec();
      ++burst_n;
    } else {
      quiet_total += gap.as_sec();
      ++quiet_n;
    }
    now = now + gap;
  }
  ASSERT_GT(quiet_n, 100);
  ASSERT_GT(burst_n, 100);
  const double quiet_mean = quiet_total / quiet_n;
  const double burst_mean = burst_total / burst_n;
  // Burst gaps should be ~8x shorter on average; accept a generous band.
  EXPECT_GT(quiet_mean / burst_mean, 4.0);
}

// --- engine end-to-end ---

TEST(WorkloadEngine, OpenLoopOfferedLoadMatchesConfiguredRate) {
  auto rack = make_rack();
  workload::WorkloadConfig config;
  workload::TenantSpec spec = small_tenant();
  spec.loop = workload::LoopMode::kOpen;
  spec.rate_hz = 50000.0;
  spec.mix.dma = 0.0;  // keep it to sync ops for a clean rate check
  config.tenants.push_back(spec);
  config.duration = sim::Time::ms(10);

  workload::WorkloadEngine engine{rack.datacenter(), config};
  const auto result = engine.run();

  EXPECT_EQ(result.vms_requested, 2u);
  EXPECT_EQ(result.vms_booted, 2u);
  EXPECT_EQ(result.boot_failures, 0u);
  EXPECT_EQ(result.scale_up_failures, 0u);

  // 2 VMs x 50 kHz x 10 ms = 1000 expected arrivals; Poisson noise over
  // 1000 events has sigma ~ sqrt(1000) ~ 32, so ±15% is comfortable.
  const double expected = spec.rate_hz * 2 * config.duration.as_sec();
  EXPECT_GT(static_cast<double>(result.offered), expected * 0.85);
  EXPECT_LT(static_cast<double>(result.offered), expected * 1.15);
  EXPECT_NEAR(result.offered_rate_hz(), expected / config.duration.as_sec(),
              expected * 0.15 / config.duration.as_sec());

  // Without faults every request lands.
  EXPECT_EQ(result.completed, result.offered);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_EQ(result.reads + result.writes, result.offered);
  EXPECT_FALSE(result.latency_us.empty());
  EXPECT_GT(result.latency_us.percentile(50), 0.0);
  EXPECT_NE(result.digest, 0u);
}

TEST(WorkloadEngine, ClosedLoopKeepsOutstandingWindowsBusy) {
  auto rack = make_rack();
  workload::WorkloadConfig config;
  workload::TenantSpec spec = small_tenant();
  spec.vms = 1;
  spec.loop = workload::LoopMode::kClosed;
  spec.outstanding = 4;
  spec.rate_hz = 100000.0;  // 10 us think time
  spec.mix = {0.6, 0.3, 0.1};
  config.tenants.push_back(spec);
  config.duration = sim::Time::ms(5);

  workload::WorkloadEngine engine{rack.datacenter(), config};
  const auto result = engine.run();

  EXPECT_GT(result.offered, 0u);
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.dmas, 0u);
  EXPECT_FALSE(result.dma_latency_us.empty());
  // Drain grace lets the closed-loop tail land: nothing in flight is lost.
  EXPECT_EQ(result.completed + result.failed, result.offered);
}

TEST(WorkloadEngine, PowerSamplesCoverTheWindow) {
  auto rack = make_rack();
  workload::WorkloadConfig config;
  config.tenants.push_back(small_tenant());
  config.duration = sim::Time::ms(2);
  config.power_samples = 8;
  workload::WorkloadEngine engine{rack.datacenter(), config};
  const auto result = engine.run();
  EXPECT_FALSE(result.power_w.empty());
  EXPECT_GT(result.power_w.mean(), 0.0);
}

TEST(WorkloadEngine, SameSeedSameDigestDifferentSeedDiffers) {
  workload::WorkloadConfig config;
  workload::TenantSpec spec = small_tenant();
  spec.mix = {0.6, 0.3, 0.1};  // exercise all three op kinds
  config.tenants.push_back(spec);
  config.duration = sim::Time::ms(3);

  auto run_with_seed = [&](std::uint64_t seed) {
    auto rack = make_rack(seed);
    workload::WorkloadEngine engine{rack.datacenter(), config};
    return engine.run();
  };

  const auto a = run_with_seed(11);
  const auto b = run_with_seed(11);
  const auto c = run_with_seed(12);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_NE(a.digest, c.digest);
}

TEST(WorkloadEngine, RunIsSingleShot) {
  auto rack = make_rack();
  workload::WorkloadConfig config;
  config.tenants.push_back(small_tenant());
  config.duration = sim::Time::ms(1);
  workload::WorkloadEngine engine{rack.datacenter(), config};
  engine.run();
  EXPECT_THROW(engine.run(), std::logic_error);
}

// --- horizon-boundary accounting (ISSUE 9 satellite) ---
//
// The generation window is END-EXCLUSIVE: [t0, t0 + duration). An issue
// that would land at exactly t0 + duration (or later) is never offered —
// start_streams schedules only first-issues strictly before the end,
// chained arrivals/think-times re-check `next < end`, and the issue
// handlers bail on `now >= end`. These tests pin that semantic and the
// accounting identity it implies.

TEST(WorkloadEngine, OneTickWindowIssuesNothing) {
  // With a 1 ns window, every first arrival (t0 + gap, gap >= 1 tick at
  // any sane rate) lands at or past the end and must be suppressed: the
  // boundary is exclusive, so the run offers zero ops yet still boots,
  // drains, and reduces cleanly.
  auto rack = make_rack();
  workload::WorkloadConfig config;
  workload::TenantSpec spec = small_tenant();
  spec.mix.dma = 0.0;
  config.tenants.push_back(spec);
  config.duration = sim::Time::ns(1);
  config.power_samples = 0;
  workload::WorkloadEngine engine{rack.datacenter(), config};
  const auto result = engine.run();
  EXPECT_EQ(result.vms_booted, 2u);
  EXPECT_EQ(result.offered, 0u);
  EXPECT_EQ(result.completed, 0u);
  EXPECT_EQ(result.failed, 0u);
  EXPECT_TRUE(result.latency_us.empty());
  EXPECT_NE(result.digest, 0u) << "the totals fold still runs on an empty window";
}

TEST(WorkloadEngine, EveryOfferedOpIsAccountedExactlyOnceAtTheHorizon) {
  // Offered == completed + failed after the drain, for a mix that includes
  // open-loop arrivals, closed-loop windows and DMA transfers: no op
  // issued near the boundary is double-counted or lost, and every sync
  // completion contributed exactly one latency sample.
  for (const std::uint64_t seed : {3u, 17u, 91u}) {
    auto rack = make_rack(seed);
    workload::WorkloadConfig config;
    workload::TenantSpec closed = small_tenant();
    closed.name = "closed";
    closed.mix = {0.6, 0.3, 0.1};
    closed.outstanding = 2;
    workload::TenantSpec open = small_tenant();
    open.name = "open";
    open.loop = workload::LoopMode::kOpen;
    open.rate_hz = 30000.0;
    open.mix = {0.7, 0.3, 0.0};
    config.tenants.push_back(closed);
    config.tenants.push_back(open);
    config.duration = sim::Time::ms(4);

    workload::WorkloadEngine engine{rack.datacenter(), config};
    const auto result = engine.run();
    EXPECT_GT(result.offered, 0u);
    EXPECT_EQ(result.completed + result.failed, result.offered)
        << "seed " << seed << ": ops lost or double-counted at the horizon";
    EXPECT_EQ(result.reads + result.writes + result.dmas, result.offered)
        << "seed " << seed;
    EXPECT_EQ(result.latency_us.count() + result.dma_latency_us.count(),
              result.completed)
        << "seed " << seed << ": every completion reduces to exactly one sample";
  }
}

TEST(WorkloadEngine, ArmedIdentityQueueChangesNeitherDigestNorDispatches) {
  // VM issue loops and DMA chunk trains re-arm their own events. With an
  // identity perturbation armed, every dispatch still runs the same events
  // in the same order: the digest and each label's dispatch count match a
  // disarmed run, and every initial issue is its own event.
  workload::WorkloadConfig config;
  workload::TenantSpec closed = small_tenant();
  closed.name = "rw";
  closed.outstanding = 2;
  closed.mix = {0.7, 0.3, 0.0};
  workload::TenantSpec bursty = small_tenant();
  bursty.name = "dma";
  bursty.loop = workload::LoopMode::kOpen;
  bursty.arrivals = workload::ArrivalProcess::kMmpp;
  bursty.rate_hz = 5000.0;
  bursty.mix = {0.0, 0.0, 1.0};
  bursty.dma_bytes = 256ull << 10;
  config.tenants.push_back(closed);
  config.tenants.push_back(bursty);
  config.duration = sim::Time::ms(3);
  // Power samples and metric ticks share one grid, so the armed run has
  // tie groups to count.
  config.power_samples = 8;
  config.sample_period = config.duration / 8;

  struct Run {
    workload::WorkloadResult result;
    std::vector<sim::KernelProfileEntry> profile;
    std::uint64_t batches = 0;
  };
  auto run = [&](bool armed) {
    auto rack = make_rack(5);
    sim::EventQueue& queue = rack.datacenter().simulator().queue();
    queue.enable_profiling();
    if (armed) {
      sim::SchedulePerturbation identity;
      identity.mode = sim::SchedulePerturbation::Mode::kIdentity;
      queue.set_perturbation(identity);
    }
    workload::WorkloadEngine engine{rack.datacenter(), config};
    Run out{engine.run(), queue.kernel_profile(), queue.batches_collected()};
    return out;
  };
  const Run plain = run(false);
  const Run armed = run(true);

  EXPECT_GT(plain.result.reads + plain.result.writes, 0u);
  EXPECT_GT(plain.result.dmas, 0u);
  EXPECT_GT(armed.batches, 0u);
  EXPECT_EQ(armed.result.digest, plain.result.digest);
  EXPECT_EQ(armed.result.offered, plain.result.offered);
  EXPECT_EQ(armed.result.completed, plain.result.completed);

  ASSERT_EQ(armed.profile.size(), plain.profile.size());
  for (std::size_t i = 0; i < plain.profile.size(); ++i) {
    EXPECT_EQ(armed.profile[i].label, plain.profile[i].label);
    EXPECT_EQ(armed.profile[i].dispatches, plain.profile[i].dispatches)
        << plain.profile[i].label;
  }
  const auto has_row = [&](const std::string& label) {
    return std::any_of(plain.profile.begin(), plain.profile.end(),
                       [&](const sim::KernelProfileEntry& row) { return row.label == label; });
  };
  EXPECT_TRUE(has_row("workload.closed_issue"));
  EXPECT_TRUE(has_row("workload.open_arrival"));
  EXPECT_TRUE(has_row("memsys.dma.step"));
  EXPECT_FALSE(has_row("workload.start_batch"));
}

TEST(WorkloadEngine, OpMixShiftsTrafficShape) {
  workload::WorkloadConfig config;
  workload::TenantSpec spec = small_tenant();
  spec.loop = workload::LoopMode::kOpen;
  spec.rate_hz = 50000.0;
  spec.mix = {1.0, 0.0, 0.0};  // reads only
  config.tenants.push_back(spec);
  config.duration = sim::Time::ms(5);

  auto rack = make_rack();
  workload::WorkloadEngine engine{rack.datacenter(), config};
  const auto result = engine.run();
  EXPECT_GT(result.reads, 0u);
  EXPECT_EQ(result.writes, 0u);
  EXPECT_EQ(result.dmas, 0u);
}

}  // namespace
}  // namespace dredbox
