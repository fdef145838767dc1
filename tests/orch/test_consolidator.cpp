#include "orch/consolidator.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace dredbox::orch {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

class ConsolidatorTest : public ::testing::Test {
 protected:
  ConsolidatorTest()
      : circuits_{switch_, telemetry_},
        fabric_{rack_, circuits_, telemetry_},
        sdm_{rack_, fabric_, circuits_, telemetry_},
        engine_{rack_, fabric_, sdm_, telemetry_},
        power_{rack_, telemetry_} {
    // Four compute bricks on two trays, memory bricks on a third tray.
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    const hw::TrayId tray_m = rack_.add_tray();
    hw::ComputeBrickConfig cc;
    cc.apu_cores = 4;
    cc.local_memory_bytes = 8 * kGiB;
    for (hw::TrayId tray : {tray_a, tray_a, tray_b, tray_b}) {
      auto& cb = rack_.add_compute_brick(tray, cc);
      stacks_.push_back(std::make_unique<Stack>(cb, telemetry_));
      sdm_.register_agent(stacks_.back()->agent);
      computes_.push_back(cb.id());
    }
    hw::MemoryBrickConfig mc;
    mc.capacity_bytes = 64 * kGiB;
    rack_.add_memory_brick(tray_m, mc);
  }

  struct Stack {
    Stack(hw::ComputeBrick& brick, sim::Telemetry& telemetry)
        : os{brick}, hypervisor{brick, os, telemetry}, agent{hypervisor, os} {}
    os::BareMetalOs os;
    hyp::Hypervisor hypervisor;
    SdmAgent agent;
  };

  /// Boots one 1-core VM on a specific brick (bypassing placement).
  hw::VmId boot_on(std::size_t brick_index) {
    auto& hv = stacks_[brick_index]->hypervisor;
    auto vm = hv.create_vm(1, kGiB);
    EXPECT_TRUE(vm.has_value());
    return *vm;
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  memsys::RemoteMemoryFabric fabric_;
  SdmController sdm_;
  MigrationEngine engine_;
  PowerManager power_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  std::vector<hw::BrickId> computes_;
};

TEST_F(ConsolidatorTest, PacksScatteredVmsOntoFewerBricks) {
  // One single-core VM on each of the four bricks: 4 bricks at 25%.
  for (std::size_t i = 0; i < 4; ++i) boot_on(i);
  Consolidator consolidator{rack_, sdm_, engine_, power_};
  const auto report = consolidator.consolidate(Time::sec(10));

  EXPECT_GT(report.migrations, 0u);
  EXPECT_GE(report.bricks_emptied, 2u);
  // All four VMs still run somewhere.
  std::size_t total_vms = 0;
  for (const auto& s : stacks_) total_vms += s->hypervisor.vm_count();
  EXPECT_EQ(total_vms, 4u);
  // At most one brick hosts them all (4 x 1 core fits a 4-core brick).
  std::size_t hosting = 0;
  for (const auto& s : stacks_) hosting += s->hypervisor.vm_count() > 0 ? 1 : 0;
  EXPECT_EQ(hosting, 1u);
  // The sweep turns off the 3 emptied compute bricks (plus the idle
  // memory brick, which holds no segments in this scenario).
  EXPECT_GE(report.bricks_powered_off, 3u);
  std::size_t compute_off = 0;
  for (hw::BrickId cb : computes_) {
    if (rack_.brick(cb).power_state() == hw::PowerState::kOff) ++compute_off;
  }
  EXPECT_EQ(compute_off, 3u);
}

TEST_F(ConsolidatorTest, BusyBricksAreNotDonors) {
  // Brick 0 full (4 cores), brick 1 has one VM.
  for (int i = 0; i < 4; ++i) boot_on(0);
  boot_on(1);
  Consolidator consolidator{rack_, sdm_, engine_, power_};
  const auto report = consolidator.consolidate(Time::sec(10));
  // Only the light brick evacuates... but brick 0 has no room, so the VM
  // has nowhere to go (other bricks are empty donors themselves, but an
  // empty brick is a worse target than staying put: util 0 targets are
  // allowed, so it may move to one. Either way brick 0's VMs never move.
  EXPECT_EQ(stacks_[0]->hypervisor.vm_count(), 4u);
}

TEST_F(ConsolidatorTest, RespectsMigrationBudget) {
  for (std::size_t i = 0; i < 4; ++i) boot_on(i);
  Consolidator::Config cfg;
  cfg.max_migrations_per_pass = 1;
  Consolidator consolidator{rack_, sdm_, engine_, power_, cfg};
  const auto report = consolidator.consolidate(Time::sec(10));
  EXPECT_LE(report.migrations, 1u);
}

TEST_F(ConsolidatorTest, NoWorkOnEmptyRack) {
  Consolidator consolidator{rack_, sdm_, engine_, power_};
  const auto report = consolidator.consolidate(Time::sec(10));
  EXPECT_EQ(report.migrations, 0u);
  EXPECT_EQ(report.bricks_emptied, 0u);
}

TEST_F(ConsolidatorTest, MovesCarryDisaggregatedMemory) {
  // VM on brick 0 with a remote segment; VM on brick 1 as the anchor.
  auto& hv0 = stacks_[0]->hypervisor;
  auto vm0 = hv0.create_vm(1, kGiB);
  ASSERT_TRUE(vm0);
  ScaleUpRequest req;
  req.vm = *vm0;
  req.compute = computes_[0];
  req.bytes = 2 * kGiB;
  req.posted_at = Time::sec(1);
  ASSERT_TRUE(sdm_.scale_up(req).ok);
  boot_on(1);
  boot_on(1);  // brick 1 is the busiest target

  Consolidator consolidator{rack_, sdm_, engine_, power_};
  const auto report = consolidator.consolidate(Time::sec(60));
  ASSERT_GE(report.migrations, 1u);
  // The remote memory followed the VM (re-pointed to its new host).
  EXPECT_EQ(fabric_.attached_bytes(computes_[0]), 0u);
  std::uint64_t total_attached = 0;
  for (hw::BrickId cb : computes_) total_attached += fabric_.attached_bytes(cb);
  EXPECT_EQ(total_attached, 2 * kGiB);
  for (const auto& move : report.moves) {
    if (move.from == computes_[0]) {
      EXPECT_EQ(move.repointed_bytes, 2 * kGiB);
    }
  }
}

}  // namespace
}  // namespace dredbox::orch
