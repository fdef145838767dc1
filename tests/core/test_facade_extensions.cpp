#include <gtest/gtest.h>

#include "core/datacenter.hpp"

namespace dredbox::core {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

DatacenterConfig facade_config() {
  DatacenterConfig cfg;
  cfg.trays = 2;
  cfg.compute_bricks_per_tray = 1;
  cfg.memory_bricks_per_tray = 2;
  cfg.accelerator_bricks_per_tray = 1;
  cfg.compute.local_memory_bytes = 8 * kGiB;
  return cfg;
}

TEST(FacadeExtensionsTest, MigrateVmThroughFacade) {
  Datacenter dc{facade_config()};
  const auto vm = dc.boot_vm("movable", 1, kGiB);
  ASSERT_TRUE(vm.ok);
  const auto up = dc.scale_up(vm.vm, vm.compute, 2 * kGiB);
  ASSERT_TRUE(up.ok);
  dc.advance_to(Time::sec(30));

  const auto computes = dc.compute_bricks();
  const hw::BrickId to = computes[0] == vm.compute ? computes[1] : computes[0];
  const auto result = dc.migrate_vm(vm.vm, vm.compute, to);
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(dc.hypervisor_of(to).has_vm(result.new_vm));
  EXPECT_EQ(dc.fabric().attached_bytes(to), 2 * kGiB);
  EXPECT_EQ(result.repointed_bytes, 2 * kGiB);
}

TEST(FacadeExtensionsTest, OomGuardThroughFacade) {
  Datacenter dc{facade_config()};
  const auto vm = dc.boot_vm("guarded", 1, kGiB);
  ASSERT_TRUE(vm.ok);
  dc.oom_guard().watch(vm.vm, vm.compute);
  const auto action = dc.oom_guard().report_usage(vm.vm, kGiB, Time::sec(10));
  ASSERT_TRUE(action.has_value());
  EXPECT_TRUE(action->ok);
  EXPECT_EQ(dc.hypervisor_of(vm.compute).vm(vm.vm).usable_bytes(), 2 * kGiB);
}

TEST(FacadeExtensionsTest, AcceleratorsThroughFacade) {
  Datacenter dc{facade_config()};
  EXPECT_EQ(dc.accelerators().free_count(), 2u);
  hw::Bitstream bs;
  bs.name = "fft";
  bs.size_bytes = 8ull << 20;
  bs.kernel_ops_per_sec = 1e9;
  const auto d = dc.accelerators().deploy(dc.compute_bricks().front(), bs, Time::zero());
  ASSERT_TRUE(d.has_value());
  const auto job = dc.accelerators().offload(d->accel, 1000, 1 << 20, d->ready_at);
  EXPECT_TRUE(job.ok);
}

TEST(FacadeExtensionsTest, PowerManagementOptIn) {
  DatacenterConfig cfg = facade_config();
  cfg.enable_power_management = true;
  cfg.power_policy.idle_timeout = Time::sec(10);
  Datacenter dc{cfg};

  const double before = dc.power_draw_watts();
  // Sweep: everything idle gets powered off (no VMs booted yet).
  const std::size_t swept = dc.power_manager().tick(Time::sec(60));
  EXPECT_GT(swept, 0u);
  EXPECT_LT(dc.power_draw_watts(), before);

  // Booting now must wake a compute brick and charge it on the path.
  const auto vm = dc.boot_vm("waker", 1, kGiB);
  ASSERT_TRUE(vm.ok) << vm.error;
  EXPECT_EQ(dc.rack().brick(vm.compute).power_state(), hw::PowerState::kActive);
}

TEST(FacadeExtensionsTest, TracerCapturesOperationTimeline) {
  Datacenter dc{facade_config()};
  dc.tracer().enable();
  const auto vm = dc.boot_vm("traced", 1, kGiB);
  ASSERT_TRUE(vm.ok);
  const auto up = dc.scale_up(vm.vm, vm.compute, kGiB);
  ASSERT_TRUE(up.ok);
  dc.scale_down(vm.vm, vm.compute, up.segment);

  // Lower bounds: the telemetry layer adds spans alongside the facade's
  // own instants, so the timeline only ever gets denser.
  EXPECT_GE(dc.tracer().size(), 3u);
  EXPECT_GE(dc.tracer().filter(sim::TraceCategory::kOrchestration).size(), 1u);
  EXPECT_GE(dc.tracer().filter(sim::TraceCategory::kFabric).size(), 2u);
  const std::string timeline = dc.tracer().to_string();
  EXPECT_NE(timeline.find("booted 'traced'"), std::string::npos);
  EXPECT_NE(timeline.find("scale-up"), std::string::npos);
  EXPECT_NE(timeline.find("scale-down"), std::string::npos);
}

TEST(FacadeExtensionsTest, TracerOffByDefault) {
  Datacenter dc{facade_config()};
  const auto vm = dc.boot_vm("silent", 1, kGiB);
  ASSERT_TRUE(vm.ok);
  EXPECT_EQ(dc.tracer().size(), 0u);
}

TEST(FacadeExtensionsTest, PacketFallbackThroughScaleUp) {
  DatacenterConfig cfg = facade_config();
  cfg.optical_switch.ports = 2;  // room for exactly one optical circuit
  // Shrink the per-brick lane counts to the switch radix so the shape
  // stays valid under DatacenterConfig::validate().
  cfg.compute.transceiver_ports = 2;
  cfg.memory.transceiver_ports = 2;
  cfg.accelerator.transceiver_ports = 2;
  cfg.mbo.channels = 2;
  // Separate compute/memory trays so nothing can go electrical.
  cfg.compute_bricks_per_tray = 1;
  cfg.memory_bricks_per_tray = 2;
  Datacenter dc{cfg};

  const auto vm = dc.boot_vm("fallback", 1, kGiB);
  ASSERT_TRUE(vm.ok);

  // Note: with 1 compute + 2 memory per tray, the first scale-up rides
  // the intra-tray electrical circuit and the optical switch is never
  // used. Exhaust it manually so the cross-tray path is forced to fall
  // back to the packet substrate.
  dc.optical_switch().connect(0, 1);

  // Fill the two same-tray membricks so selection must go cross-tray.
  const hw::TrayId home = dc.rack().brick(vm.compute).tray();
  for (hw::BrickId mb : dc.memory_bricks()) {
    if (dc.rack().brick(mb).tray() == home) {
      auto& brick = dc.rack().memory_brick(mb);
      ASSERT_TRUE(brick.allocate(brick.largest_free_extent(), hw::BrickId{}));
    }
  }

  orch::ScaleUpRequest req;
  req.vm = vm.vm;
  req.compute = vm.compute;
  req.bytes = kGiB;
  req.posted_at = Time::sec(1);
  req.allow_packet_fallback = true;
  const auto result = dc.sdm().scale_up(req);
  ASSERT_TRUE(result.ok) << result.error;
  const auto attachments = dc.fabric().attachments_of(vm.compute);
  ASSERT_EQ(attachments.size(), 1u);
  EXPECT_EQ(attachments[0].medium, memsys::LinkMedium::kPacket);

  // The packet-backed memory is usable.
  const auto tx = dc.remote_read(vm.compute, attachments[0].compute_base, 64);
  EXPECT_TRUE(tx.ok());
  EXPECT_TRUE(tx.breakdown.has(sim::component("MAC/PHY (dCOMPUBRICK)")));
}

}  // namespace
}  // namespace dredbox::core
