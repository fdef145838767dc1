#include "orch/power_manager.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "orch/sdm_controller.hpp"

namespace dredbox::orch {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

TEST(PowerManagerTest, TickPowersOffIdleBricks) {
  hw::Rack rack;
  const hw::TrayId tray = rack.add_tray();
  rack.add_memory_brick(tray);
  rack.add_memory_brick(tray);
  sim::Telemetry telemetry;
  PowerManager pm{rack, telemetry};
  // Too early: nothing idle long enough.
  EXPECT_EQ(pm.tick(Time::sec(30)), 0u);
  // Past the timeout both idle bricks go dark.
  EXPECT_EQ(pm.tick(Time::sec(61)), 2u);
  EXPECT_EQ(pm.powered_off_bricks(), 2u);
  EXPECT_EQ(pm.power_offs(), 2u);
}

TEST(PowerManagerTest, ActivityResetsIdleClock) {
  hw::Rack rack;
  const hw::TrayId tray = rack.add_tray();
  const hw::BrickId mb = rack.add_memory_brick(tray).id();
  sim::Telemetry telemetry;
  PowerManager pm{rack, telemetry};
  pm.note_activity(mb, Time::sec(50));
  EXPECT_EQ(pm.tick(Time::sec(100)), 0u);  // idle only 50 s
  EXPECT_EQ(pm.tick(Time::sec(111)), 1u);
}

TEST(PowerManagerTest, ActiveBricksAreNeverSwept) {
  hw::Rack rack;
  const hw::TrayId tray = rack.add_tray();
  auto& mb = rack.add_memory_brick(tray);
  auto seg = mb.allocate(kGiB, hw::BrickId{1});  // brick becomes kActive
  ASSERT_TRUE(seg);
  sim::Telemetry telemetry;
  PowerManager pm{rack, telemetry};
  EXPECT_EQ(pm.tick(Time::sec(1000)), 0u);
  EXPECT_EQ(mb.power_state(), hw::PowerState::kActive);
}

TEST(PowerManagerTest, BricksWithCircuitsAreNotSwept) {
  hw::Rack rack;
  const hw::TrayId tray = rack.add_tray();
  auto& mb = rack.add_memory_brick(tray);
  mb.port(0).connected = true;  // live circuit endpoint
  sim::Telemetry telemetry;
  PowerManager pm{rack, telemetry};
  EXPECT_EQ(pm.tick(Time::sec(1000)), 0u);
}

TEST(PowerManagerTest, KeepComputeBricksOnPolicy) {
  hw::Rack rack;
  const hw::TrayId tray = rack.add_tray();
  rack.add_compute_brick(tray);
  rack.add_memory_brick(tray);
  PowerPolicyConfig policy;
  policy.keep_compute_bricks_on = true;
  sim::Telemetry telemetry;
  PowerManager pm{rack, telemetry, policy};
  EXPECT_EQ(pm.tick(Time::sec(1000)), 1u);  // only the memory brick
}

TEST(PowerManagerTest, EnsurePoweredChargesWakeLatency) {
  hw::Rack rack;
  const hw::TrayId tray = rack.add_tray();
  const hw::BrickId mb = rack.add_memory_brick(tray).id();
  sim::Telemetry telemetry;
  PowerManager pm{rack, telemetry};
  pm.tick(Time::sec(100));
  ASSERT_EQ(rack.brick(mb).power_state(), hw::PowerState::kOff);
  const Time wake = pm.ensure_powered(mb, Time::sec(200));
  EXPECT_EQ(wake, pm.config().wake_latency);
  EXPECT_EQ(rack.brick(mb).power_state(), hw::PowerState::kIdle);
  EXPECT_EQ(pm.wake_ups(), 1u);
  // Already powered: free.
  EXPECT_EQ(pm.ensure_powered(mb, Time::sec(201)), Time::zero());
  EXPECT_EQ(pm.wake_ups(), 1u);
}

TEST(PowerManagerTest, SdmChargesWakeUpInScaleUpPath) {
  hw::Rack rack;
  optics::OpticalSwitch sw;
  sim::Telemetry telemetry;
  optics::CircuitManager circuits{sw, telemetry};
  memsys::RemoteMemoryFabric fabric{rack, circuits, telemetry};
  SdmController sdm{rack, fabric, circuits, telemetry};

  const hw::TrayId tray_a = rack.add_tray();
  const hw::TrayId tray_b = rack.add_tray();
  hw::ComputeBrickConfig cc;
  cc.apu_cores = 2;
  cc.local_memory_bytes = 4 * kGiB;
  auto& cb = rack.add_compute_brick(tray_a, cc);
  os::BareMetalOs os{cb};
  hyp::Hypervisor hv{cb, os, telemetry};
  SdmAgent agent{hv, os};
  sdm.register_agent(agent);
  const hw::BrickId mb = rack.add_memory_brick(tray_b).id();

  PowerManager pm{rack, telemetry};
  sdm.set_power_manager(&pm);

  AllocationRequest req;
  const auto vm = sdm.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);

  // Sweep the idle memory brick, then scale up: the request pays the wake.
  pm.tick(Time::sec(100));
  ASSERT_EQ(rack.brick(mb).power_state(), hw::PowerState::kOff);
  ScaleUpRequest sr;
  sr.vm = vm.vm;
  sr.compute = vm.compute;
  sr.bytes = kGiB;
  sr.posted_at = Time::sec(200);
  const auto result = sdm.scale_up(sr);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.breakdown.of(sim::component("brick wake-up")), pm.config().wake_latency);
  EXPECT_GT(result.delay(), pm.config().wake_latency);
}

}  // namespace
}  // namespace dredbox::orch
