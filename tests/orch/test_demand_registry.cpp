#include "orch/demand_registry.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "orch/sdm_controller.hpp"

namespace dredbox::orch {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

MemoryDemandRegistry::Report report(hw::BrickId brick, std::uint64_t used,
                                    std::uint64_t usable, Time at) {
  MemoryDemandRegistry::Report r;
  r.compute = brick;
  r.used_bytes = used;
  r.usable_bytes = usable;
  r.at = at;
  return r;
}

TEST(DemandRegistryTest, SlackLeavesHeadroom) {
  MemoryDemandRegistry reg;
  reg.report(hw::VmId{1}, report(hw::BrickId{1}, 2 * kGiB, 8 * kGiB, Time::sec(10)));
  // Reserve 25% over usage: 8 - 2.5 = 5.5 GiB slack.
  EXPECT_EQ(reg.slack_of(hw::VmId{1}, Time::sec(15), Time::sec(30)),
            8 * kGiB - (2 * kGiB + kGiB / 2));
}

TEST(DemandRegistryTest, StaleReportsAreDistrusted) {
  MemoryDemandRegistry reg;
  reg.report(hw::VmId{1}, report(hw::BrickId{1}, kGiB, 8 * kGiB, Time::sec(10)));
  EXPECT_GT(reg.slack_of(hw::VmId{1}, Time::sec(20), Time::sec(30)), 0u);
  EXPECT_EQ(reg.slack_of(hw::VmId{1}, Time::sec(100), Time::sec(30)), 0u);
}

TEST(DemandRegistryTest, UnknownVmHasNoSlack) {
  MemoryDemandRegistry reg;
  EXPECT_EQ(reg.slack_of(hw::VmId{9}, Time::sec(1), Time::sec(30)), 0u);
  EXPECT_FALSE(reg.latest(hw::VmId{9}).has_value());
}

TEST(DemandRegistryTest, BestDonorPicksLargestColocatedSlack) {
  MemoryDemandRegistry reg;
  const Time now = Time::sec(10);
  reg.report(hw::VmId{1}, report(hw::BrickId{1}, kGiB, 4 * kGiB, now));      // slack 2.75G
  reg.report(hw::VmId{2}, report(hw::BrickId{1}, kGiB, 8 * kGiB, now));      // slack 6.75G
  reg.report(hw::VmId{3}, report(hw::BrickId{2}, 0, 16 * kGiB, now));        // other brick
  const auto donor =
      reg.best_donor(hw::BrickId{1}, 2 * kGiB, hw::VmId{99}, now, Time::sec(30));
  ASSERT_TRUE(donor.has_value());
  EXPECT_EQ(*donor, hw::VmId{2});
}

TEST(DemandRegistryTest, BestDonorExcludesRequester) {
  MemoryDemandRegistry reg;
  const Time now = Time::sec(10);
  reg.report(hw::VmId{1}, report(hw::BrickId{1}, 0, 8 * kGiB, now));
  EXPECT_FALSE(reg.best_donor(hw::BrickId{1}, kGiB, hw::VmId{1}, now, Time::sec(30)));
}

TEST(DemandRegistryTest, ForgetRemovesVm) {
  MemoryDemandRegistry reg;
  reg.report(hw::VmId{1}, report(hw::BrickId{1}, 0, kGiB, Time::zero()));
  EXPECT_EQ(reg.tracked(), 1u);
  reg.forget(hw::VmId{1});
  EXPECT_EQ(reg.tracked(), 0u);
}

/// scale_up_smart end-to-end: donor present -> balloon tier; absent ->
/// attach tier.
class SmartScaleUpTest : public ::testing::Test {
 protected:
  SmartScaleUpTest()
      : circuits_{switch_, telemetry_},
        fabric_{rack_, circuits_, telemetry_},
        sdm_{rack_, fabric_, circuits_, telemetry_} {
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    hw::ComputeBrickConfig cc;
    cc.apu_cores = 4;
    cc.local_memory_bytes = 16 * kGiB;
    auto& cb = rack_.add_compute_brick(tray_a, cc);
    stack_ = std::make_unique<Stack>(cb, telemetry_);
    sdm_.register_agent(stack_->agent);
    compute_ = cb.id();
    rack_.add_memory_brick(tray_b);
  }

  struct Stack {
    Stack(hw::ComputeBrick& brick, sim::Telemetry& telemetry)
        : os{brick}, hypervisor{brick, os, telemetry}, agent{hypervisor, os} {}
    os::BareMetalOs os;
    hyp::Hypervisor hypervisor;
    SdmAgent agent;
  };

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  memsys::RemoteMemoryFabric fabric_;
  SdmController sdm_;
  std::unique_ptr<Stack> stack_;
  hw::BrickId compute_;
};

TEST_F(SmartScaleUpTest, UsesBalloonTierWhenDonorReported) {
  auto donor = stack_->hypervisor.create_vm(1, 8 * kGiB);
  auto taker = stack_->hypervisor.create_vm(1, 2 * kGiB);
  ASSERT_TRUE(donor && taker);
  // The donor reports it only uses 1 GiB of its 8 GiB.
  sdm_.demand_registry().report(
      *donor, MemoryDemandRegistry::Report{compute_, kGiB, 8 * kGiB, Time::sec(5)});

  ScaleUpRequest req;
  req.vm = *taker;
  req.compute = compute_;
  req.bytes = 2 * kGiB;
  req.posted_at = Time::sec(10);
  const auto result = sdm_.scale_up_smart(req);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.breakdown.has(sim::component("balloon reclaim (donor)")));
  EXPECT_EQ(fabric_.attachment_count(), 0u);  // fabric untouched
  EXPECT_EQ(stack_->hypervisor.vm(*donor).usable_bytes(), 6 * kGiB);
  EXPECT_EQ(stack_->hypervisor.vm(*taker).usable_bytes(), 4 * kGiB);
}

TEST_F(SmartScaleUpTest, FallsBackToAttachWithoutDonor) {
  auto taker = stack_->hypervisor.create_vm(1, 2 * kGiB);
  ASSERT_TRUE(taker);
  ScaleUpRequest req;
  req.vm = *taker;
  req.compute = compute_;
  req.bytes = 2 * kGiB;
  req.posted_at = Time::sec(10);
  const auto result = sdm_.scale_up_smart(req);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.breakdown.has(sim::component("baremetal hotplug")));
  EXPECT_EQ(fabric_.attachment_count(), 1u);
}

TEST_F(SmartScaleUpTest, StaleDonorReportIgnored) {
  auto donor = stack_->hypervisor.create_vm(1, 8 * kGiB);
  auto taker = stack_->hypervisor.create_vm(1, 2 * kGiB);
  ASSERT_TRUE(donor && taker);
  sdm_.demand_registry().report(
      *donor, MemoryDemandRegistry::Report{compute_, kGiB, 8 * kGiB, Time::sec(5)});
  ScaleUpRequest req;
  req.vm = *taker;
  req.compute = compute_;
  req.bytes = 2 * kGiB;
  req.posted_at = Time::sec(500);  // far beyond the staleness limit
  const auto result = sdm_.scale_up_smart(req);
  ASSERT_TRUE(result.ok);
  EXPECT_FALSE(result.breakdown.has(sim::component("balloon reclaim (donor)")));
  EXPECT_EQ(fabric_.attachment_count(), 1u);
}

TEST_F(SmartScaleUpTest, ReportGuestUsageFeedsRegistry) {
  auto donor = stack_->hypervisor.create_vm(1, 8 * kGiB);
  auto taker = stack_->hypervisor.create_vm(1, 2 * kGiB);
  ASSERT_TRUE(donor && taker);
  // The agent reports usage directly; usable is taken from the hypervisor.
  sdm_.report_guest_usage(*donor, compute_, kGiB, Time::sec(5));
  const auto latest = sdm_.demand_registry().latest(*donor);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->usable_bytes, 8 * kGiB);
  EXPECT_EQ(latest->used_bytes, kGiB);

  // And the smart path can now serve from the balloon tier.
  ScaleUpRequest req;
  req.vm = *taker;
  req.compute = compute_;
  req.bytes = 2 * kGiB;
  req.posted_at = Time::sec(10);
  const auto result = sdm_.scale_up_smart(req);
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.breakdown.has(sim::component("balloon reclaim (donor)")));
}

TEST_F(SmartScaleUpTest, ReportForUnknownVmForgetsEntry) {
  sdm_.demand_registry().report(
      hw::VmId{77}, MemoryDemandRegistry::Report{compute_, 0, kGiB, Time::sec(1)});
  sdm_.report_guest_usage(hw::VmId{77}, compute_, kGiB, Time::sec(2));
  EXPECT_FALSE(sdm_.demand_registry().latest(hw::VmId{77}).has_value());
}

TEST_F(SmartScaleUpTest, RegistryUpdatedAfterDonation) {
  auto donor = stack_->hypervisor.create_vm(1, 8 * kGiB);
  auto taker = stack_->hypervisor.create_vm(1, 2 * kGiB);
  ASSERT_TRUE(donor && taker);
  sdm_.demand_registry().report(
      *donor, MemoryDemandRegistry::Report{compute_, kGiB, 8 * kGiB, Time::sec(5)});
  ScaleUpRequest req;
  req.vm = *taker;
  req.compute = compute_;
  req.bytes = 2 * kGiB;
  req.posted_at = Time::sec(10);
  ASSERT_TRUE(sdm_.scale_up_smart(req).ok);
  const auto latest = sdm_.demand_registry().latest(*donor);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->usable_bytes, 6 * kGiB);
}

}  // namespace
}  // namespace dredbox::orch
