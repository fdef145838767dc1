#include <gtest/gtest.h>

#include <memory>

#include "orch/oom_guard.hpp"
#include "orch/sdm_controller.hpp"

namespace dredbox::orch {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

class RebalanceOomTest : public ::testing::Test {
 protected:
  RebalanceOomTest()
      : circuits_{switch_, telemetry_},
        fabric_{rack_, circuits_, telemetry_},
        sdm_{rack_, fabric_, circuits_, telemetry_} {
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    hw::ComputeBrickConfig cc;
    cc.apu_cores = 4;
    cc.local_memory_bytes = 8 * kGiB;
    auto& cb = rack_.add_compute_brick(tray_a, cc);
    stack_ = std::make_unique<Stack>(cb, telemetry_);
    sdm_.register_agent(stack_->agent);
    compute_ = cb.id();
    hw::MemoryBrickConfig mc;
    mc.capacity_bytes = 32 * kGiB;
    membrick_ = rack_.add_memory_brick(tray_b, mc).id();
  }

  struct Stack {
    Stack(hw::ComputeBrick& brick, sim::Telemetry& telemetry)
        : os{brick}, hypervisor{brick, os, telemetry}, agent{hypervisor, os} {}
    os::BareMetalOs os;
    hyp::Hypervisor hypervisor;
    SdmAgent agent;
  };

  hw::VmId boot(std::size_t vcpus, std::uint64_t memory) {
    AllocationRequest req;
    req.vcpus = vcpus;
    req.memory_bytes = memory;
    const auto result = sdm_.allocate_vm(req, Time::zero());
    EXPECT_TRUE(result.ok) << result.error;
    return result.vm;
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  memsys::RemoteMemoryFabric fabric_;
  SdmController sdm_;
  std::unique_ptr<Stack> stack_;
  hw::BrickId compute_;
  hw::BrickId membrick_;
};

TEST_F(RebalanceOomTest, RebalanceMovesMemoryBetweenGuests) {
  const hw::VmId donor = boot(1, 5 * kGiB);
  const hw::VmId taker = boot(1, 2 * kGiB);
  const auto result = sdm_.rebalance(donor, taker, compute_, 2 * kGiB, Time::sec(1));
  ASSERT_TRUE(result.ok) << result.error;
  auto& hv = stack_->hypervisor;
  EXPECT_EQ(hv.vm(donor).usable_bytes(), 3 * kGiB);
  EXPECT_EQ(hv.vm(taker).usable_bytes(), 4 * kGiB);
  // No fabric involvement: no segments, no switch ports.
  EXPECT_EQ(fabric_.attachment_count(), 0u);
  EXPECT_EQ(switch_.ports_in_use(), 0u);
}

TEST_F(RebalanceOomTest, RebalanceFasterThanScaleUp) {
  const hw::VmId donor = boot(1, 5 * kGiB);
  const hw::VmId taker = boot(1, 2 * kGiB);
  const auto balloon = sdm_.rebalance(donor, taker, compute_, kGiB, Time::sec(1));
  ASSERT_TRUE(balloon.ok);

  ScaleUpRequest req;
  req.vm = taker;
  req.compute = compute_;
  req.bytes = kGiB;
  req.posted_at = Time::sec(100);
  const auto attach = sdm_.scale_up(req);
  ASSERT_TRUE(attach.ok);
  // The balloon tier skips circuit setup and kernel hotplug entirely.
  EXPECT_LT(balloon.delay(), attach.delay());
  EXPECT_FALSE(balloon.breakdown.has(sim::component("baremetal hotplug")));
  EXPECT_TRUE(balloon.breakdown.has(sim::component("balloon reclaim (donor)")));
}

TEST_F(RebalanceOomTest, RebalanceValidatesDonorSlack) {
  const hw::VmId donor = boot(1, 2 * kGiB);
  const hw::VmId taker = boot(1, 2 * kGiB);
  const auto result = sdm_.rebalance(donor, taker, compute_, 4 * kGiB, Time::sec(1));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("donor"), std::string::npos);
}

TEST_F(RebalanceOomTest, RebalanceValidatesResidency) {
  const hw::VmId vm = boot(1, 2 * kGiB);
  const auto result = sdm_.rebalance(vm, hw::VmId{999}, compute_, kGiB, Time::sec(1));
  EXPECT_FALSE(result.ok);
}

TEST_F(RebalanceOomTest, OomGuardScalesUpUnderPressure) {
  const hw::VmId vm = boot(1, 2 * kGiB);
  OomGuard guard{sdm_};
  guard.watch(vm, compute_);

  // Low pressure: no intervention.
  EXPECT_FALSE(guard.report_usage(vm, 1 * kGiB, Time::sec(1)).has_value());
  EXPECT_EQ(guard.interventions(), 0u);

  // 95% usage: the guard attaches a chunk before the guest OOMs.
  const auto action = guard.report_usage(vm, 1945ull << 20, Time::sec(10));
  ASSERT_TRUE(action.has_value());
  EXPECT_TRUE(action->ok) << action->error;
  EXPECT_EQ(guard.interventions(), 1u);
  EXPECT_EQ(stack_->hypervisor.vm(vm).usable_bytes(), 3 * kGiB);
}

TEST_F(RebalanceOomTest, OomGuardHonoursCooldown) {
  const hw::VmId vm = boot(1, 2 * kGiB);
  OomGuard guard{sdm_};
  guard.watch(vm, compute_);
  ASSERT_TRUE(guard.report_usage(vm, 2 * kGiB, Time::sec(10)).has_value());
  // A second report right away is swallowed by the cooldown.
  EXPECT_FALSE(guard.report_usage(vm, 3 * kGiB, Time::sec(11)).has_value());
  // After the cooldown it acts again.
  EXPECT_TRUE(guard.report_usage(vm, 3 * kGiB, Time::sec(20)).has_value());
  EXPECT_EQ(guard.interventions(), 2u);
}

TEST_F(RebalanceOomTest, OomGuardReleasesWhenPressureDrops) {
  const hw::VmId vm = boot(1, 2 * kGiB);
  OomGuard guard{sdm_};
  guard.watch(vm, compute_);
  ASSERT_TRUE(guard.report_usage(vm, 2 * kGiB, Time::sec(10)).has_value());
  ASSERT_EQ(stack_->hypervisor.vm(vm).usable_bytes(), 3 * kGiB);
  // Usage collapses: the guard gives the granted chunk back.
  const auto release = guard.report_usage(vm, 256ull << 20, Time::sec(60));
  ASSERT_TRUE(release.has_value());
  EXPECT_TRUE(release->ok);
  EXPECT_EQ(guard.releases(), 1u);
  EXPECT_EQ(stack_->hypervisor.vm(vm).usable_bytes(), 2 * kGiB);
  EXPECT_EQ(fabric_.attached_bytes(compute_), 0u);
}

TEST_F(RebalanceOomTest, OomGuardIgnoresUnwatchedVms) {
  const hw::VmId vm = boot(1, 2 * kGiB);
  OomGuard guard{sdm_};
  EXPECT_FALSE(guard.report_usage(vm, 2 * kGiB, Time::sec(1)).has_value());
  guard.watch(vm, compute_);
  guard.unwatch(vm);
  EXPECT_FALSE(guard.report_usage(vm, 2 * kGiB, Time::sec(1)).has_value());
}

TEST_F(RebalanceOomTest, OomGuardConfigValidation) {
  OomGuardConfig bad;
  bad.pressure_threshold = 1.5;
  EXPECT_THROW(OomGuard(sdm_, bad), std::invalid_argument);
  bad.pressure_threshold = 0.9;
  bad.relax_threshold = 0.95;
  EXPECT_THROW(OomGuard(sdm_, bad), std::invalid_argument);
}

}  // namespace
}  // namespace dredbox::orch
