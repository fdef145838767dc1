// Scripted fault scenarios, end to end: the injection engine delivers
// faults through the simulation's own event queue while a workload runs,
// and each layer's reaction — fabric retry with exponential backoff,
// circuit re-provisioning, packet fallback, SDM-C evacuation and graceful
// degradation — is checked from the outside, through the Datacenter
// facade and the rack-wide telemetry.

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/dredbox.hpp"
#include "memsys/dma.hpp"
#include "sim/fault.hpp"

namespace dredbox {
namespace {

using sim::FaultKind;
using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

class FaultScenario : public ::testing::Test {
 protected:
  FaultScenario() : dc_{config()} { dc_.telemetry().enable_all(); }

  static core::DatacenterConfig config() {
    core::DatacenterConfig cfg;
    cfg.trays = 2;
    cfg.compute_bricks_per_tray = 2;
    cfg.memory_bricks_per_tray = 2;
    cfg.compute.local_memory_bytes = 4 * kGiB;
    cfg.memory.capacity_bytes = 32 * kGiB;
    cfg.optical_switch.ports = 96;
    return cfg;
  }

  /// Boots a VM and forces its scale-up onto a cross-tray (optical)
  /// attachment by filling the same-tray dMEMBRICK pool first.
  orch::AllocationResult boot_with_optical_attachment() {
    const auto vm = dc_.boot_vm("tenant", 1, kGiB);
    EXPECT_TRUE(vm.ok) << vm.error;
    const hw::TrayId home = dc_.rack().brick(vm.compute).tray();
    for (hw::BrickId mb : dc_.memory_bricks()) {
      if (dc_.rack().brick(mb).tray() == home) {
        auto& brick = dc_.rack().memory_brick(mb);
        EXPECT_TRUE(brick.allocate(brick.largest_free_extent(), hw::BrickId{}));
      }
    }
    const auto grant = dc_.scale_up(vm.vm, vm.compute, 2 * kGiB);
    EXPECT_TRUE(grant.ok) << grant.error;
    EXPECT_EQ(dc_.fabric().attachments_of(vm.compute).front().medium,
              memsys::LinkMedium::kOptical);
    return vm;
  }

  std::uint64_t counter(const std::string& name) {
    const auto* c = dc_.metrics().find_counter(name);
    return c != nullptr ? c->value() : 0;
  }

  void audit_everything() {
    dc_.faults().check_invariants();
    dc_.circuits().check_invariants();
    dc_.fabric().check_invariants();
  }

  core::Datacenter dc_;
};

TEST_F(FaultScenario, LinkFlapHealsTransparentlyUnderLoad) {
  const auto vm = boot_with_optical_attachment();
  const auto before = dc_.fabric().attachments_of(vm.compute);
  const Time t0 = dc_.simulator().now();

  auto plan = sim::FaultPlan{};
  plan.add({t0 + Time::ms(1), FaultKind::kLinkFlap, 0, 0, 0.0, Time::ms(5)});
  ASSERT_EQ(dc_.inject_faults(plan), 1u);

  // A read issued mid-flap self-heals: the fabric's retry loop waits out a
  // backoff, re-provisions the circuit, and completes.
  dc_.advance_to(t0 + Time::ms(2));
  const auto tx = dc_.remote_read(vm.compute, before.front().compute_base, 64);
  EXPECT_TRUE(tx.ok());
  EXPECT_GE(tx.retries, 1u);
  EXPECT_GE(counter("memsys.fabric.retries"), 1u);
  EXPECT_GE(counter("memsys.fabric.reprovisions"), 1u);

  // Recovery fires, no attachment was lost, and the window is unchanged.
  dc_.advance_to(t0 + Time::ms(10));
  EXPECT_EQ(dc_.faults().injected(), 1u);
  EXPECT_EQ(dc_.faults().recovered(), 1u);
  EXPECT_EQ(dc_.faults().active(), 0u);
  const auto after = dc_.fabric().attachments_of(vm.compute);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(after.front().compute_base, before.front().compute_base);
  EXPECT_EQ(after.front().size, before.front().size);
  audit_everything();
}

TEST_F(FaultScenario, LinkFlapRecoverySweepRepairsIdleAttachments) {
  const auto vm = boot_with_optical_attachment();
  const Time t0 = dc_.simulator().now();

  auto plan = sim::FaultPlan{};
  plan.add({t0 + Time::ms(1), FaultKind::kLinkFlap, 0, 0, 0.0, Time::ms(5)});
  dc_.inject_faults(plan);

  // Nobody touches the attachment during the flap; the recovery handler's
  // sweep re-provisions it. Prove no retry was needed afterwards by
  // reading with retries disabled.
  dc_.advance_to(t0 + Time::ms(10));
  dc_.fabric().set_retry_policy(std::nullopt);
  const auto a = dc_.fabric().attachments_of(vm.compute).front();
  ASSERT_NE(dc_.circuits().find(a.circuit), nullptr);
  const auto tx = dc_.remote_read(vm.compute, a.compute_base, 64);
  EXPECT_TRUE(tx.ok());
  EXPECT_EQ(tx.retries, 0u);
  audit_everything();
}

TEST_F(FaultScenario, SwitchPortFailureDuringVmBootIsAbsorbed) {
  const auto first = boot_with_optical_attachment();
  const Time t0 = dc_.simulator().now();

  auto plan = sim::FaultPlan{};
  plan.add({t0 + Time::ms(1), FaultKind::kSwitchPortFailure, 0, 0, 0.0, Time::ms(20)});
  dc_.inject_faults(plan);
  dc_.advance_to(t0 + Time::ms(2));
  EXPECT_EQ(dc_.faults().injected(), 1u);

  // A new tenant boots and scales up while the port is dark: the SDM-C
  // simply wires its circuit through healthy ports.
  const auto vm = dc_.boot_vm("late-tenant", 1, kGiB);
  ASSERT_TRUE(vm.ok) << vm.error;
  const auto grant = dc_.scale_up(vm.vm, vm.compute, 2 * kGiB);
  ASSERT_TRUE(grant.ok) << grant.error;

  // The first tenant's torn attachment self-heals on its next access.
  const auto a = dc_.fabric().attachments_of(first.compute).front();
  EXPECT_TRUE(dc_.remote_read(first.compute, a.compute_base, 64).ok());

  // After recovery the port pool is whole again.
  dc_.advance_to(t0 + Time::ms(30));
  for (std::size_t p = 0; p < dc_.optical_switch().port_count(); ++p) {
    EXPECT_FALSE(dc_.optical_switch().port_failed(p)) << "port " << p;
  }
  audit_everything();
}

TEST_F(FaultScenario, CascadingBrickLossEvacuatesWithoutLosingAttachments) {
  // Two tenants with remote memory; then every serving dMEMBRICK crashes,
  // one after the other. The SDM-C relocates each segment to a surviving
  // brick; no attachment is lost and no VM degrades.
  const auto vm_a = dc_.boot_vm("tenant-a", 1, kGiB);
  const auto vm_b = dc_.boot_vm("tenant-b", 1, kGiB);
  ASSERT_TRUE(vm_a.ok && vm_b.ok);
  ASSERT_TRUE(dc_.scale_up(vm_a.vm, vm_a.compute, 2 * kGiB).ok);
  ASSERT_TRUE(dc_.scale_up(vm_b.vm, vm_b.compute, 2 * kGiB).ok);
  const std::size_t attachments_before = dc_.fabric().attachment_count();
  ASSERT_GE(attachments_before, 2u);

  const Time t0 = dc_.simulator().now();
  auto plan = sim::FaultPlan{};
  plan.add({t0 + Time::ms(1), FaultKind::kBrickCrash});  // target 0: first serving brick
  plan.add({t0 + Time::ms(5), FaultKind::kBrickCrash});  // cascades onto the next
  dc_.inject_faults(plan);
  dc_.advance_to(t0 + Time::ms(10));

  EXPECT_EQ(dc_.faults().injected(), 2u);
  EXPECT_GE(counter("orch.sdm.evacuated_segments"), 2u);
  EXPECT_EQ(counter("orch.sdm.evacuation_failures"), 0u);
  EXPECT_EQ(dc_.fabric().attachment_count(), attachments_before);

  // Every attachment still serves reads, its window intact, and no guest
  // runs degraded.
  for (const auto& a : dc_.fabric().all_attachments()) {
    EXPECT_FALSE(dc_.rack().brick(a.membrick).failed());
    EXPECT_TRUE(dc_.remote_read(a.compute, a.compute_base, 64).ok());
  }
  for (hw::BrickId cb : dc_.compute_bricks()) {
    EXPECT_EQ(dc_.hypervisor_of(cb).degraded_vms(), 0u);
  }
  audit_everything();
}

TEST_F(FaultScenario, LastBrickCrashDegradesGracefullyAndRecovers) {
  // A single-dMEMBRICK rack: when that brick crashes there is nowhere to
  // evacuate to, so the owning VM degrades instead of dying — and recovers
  // the moment the brick restarts.
  core::DatacenterConfig cfg;
  cfg.trays = 1;
  cfg.compute_bricks_per_tray = 1;
  cfg.memory_bricks_per_tray = 1;
  cfg.compute.local_memory_bytes = 4 * kGiB;
  core::Datacenter dc{cfg};
  dc.telemetry().enable_all();

  const auto vm = dc.boot_vm("lonely", 1, kGiB);
  ASSERT_TRUE(vm.ok);
  ASSERT_TRUE(dc.scale_up(vm.vm, vm.compute, 2 * kGiB).ok);
  const hw::BrickId membrick = dc.fabric().all_attachments().front().membrick;

  const Time t0 = dc.simulator().now();
  auto plan = sim::FaultPlan{};
  plan.add({t0 + Time::ms(1), FaultKind::kBrickCrash, membrick.value, 0, 0.0, Time::ms(10)});
  dc.inject_faults(plan);
  dc.advance_to(t0 + Time::ms(2));

  EXPECT_TRUE(dc.rack().brick(membrick).failed());
  EXPECT_EQ(dc.hypervisor_of(vm.compute).degraded_vms(), 1u);
  const auto* degraded = dc.metrics().find_gauge("orch.sdm.degraded_membricks");
  ASSERT_NE(degraded, nullptr);
  EXPECT_DOUBLE_EQ(degraded->value(), 1.0);
  const auto a = dc.fabric().all_attachments().front();
  EXPECT_EQ(dc.fabric().read(vm.compute, a.compute_base, 64, dc.simulator().now()).status,
            memsys::TransactionStatus::kBrickFailed);

  // Restart: degradation lifts, service resumes.
  dc.advance_to(t0 + Time::ms(20));
  EXPECT_FALSE(dc.rack().brick(membrick).failed());
  EXPECT_EQ(dc.hypervisor_of(vm.compute).degraded_vms(), 0u);
  EXPECT_DOUBLE_EQ(degraded->value(), 0.0);
  EXPECT_TRUE(dc.remote_read(vm.compute, a.compute_base, 64).ok());
  dc.faults().check_invariants();
}

TEST_F(FaultScenario, DmaTransferRidesOutABrickOutage) {
  // A bulk DMA transfer is mid-flight when its dMEMBRICK goes dark for a
  // while (single-brick rack: evacuation impossible). The engine's
  // chunk-level backoff waits the outage out and the transfer completes.
  core::DatacenterConfig cfg;
  cfg.trays = 1;
  cfg.compute_bricks_per_tray = 1;
  cfg.memory_bricks_per_tray = 1;
  cfg.compute.local_memory_bytes = 4 * kGiB;
  sim::RetryPolicy patient;
  patient.max_attempts = 12;
  patient.initial_backoff = Time::us(100);
  patient.timeout = Time::ms(50);
  cfg.fabric_retry = patient;
  core::Datacenter dc{cfg};
  dc.telemetry().enable_all();

  const auto vm = dc.boot_vm("bulk", 1, kGiB);
  ASSERT_TRUE(vm.ok);
  ASSERT_TRUE(dc.scale_up(vm.vm, vm.compute, 2 * kGiB).ok);
  const auto a = dc.fabric().all_attachments().front();

  const Time t0 = dc.simulator().now();
  auto plan = sim::FaultPlan{};
  plan.add({t0 + Time::us(50), FaultKind::kBrickCrash, a.membrick.value, 0, 0.0,
            Time::ms(2)});
  dc.inject_faults(plan);

  memsys::DmaEngine dma{dc.simulator(), dc.fabric(), vm.compute};
  memsys::DmaDescriptor descriptor;
  descriptor.address = a.compute_base;
  descriptor.bytes = 1ull << 20;
  memsys::DmaCompletion done;
  dma.enqueue(descriptor, [&](const memsys::DmaCompletion& c) { done = c; });
  dc.simulator().run();

  EXPECT_TRUE(done.ok) << done.error;
  EXPECT_EQ(done.bytes, 1ull << 20);
  EXPECT_GE(done.retries, 1u);
  const auto* retries = dc.metrics().find_counter("memsys.dma.retries");
  ASSERT_NE(retries, nullptr);
  EXPECT_EQ(retries->value(), done.retries);
  EXPECT_GT(done.completed_at, t0 + Time::ms(2));  // waited out the outage
  dc.faults().check_invariants();
}

TEST_F(FaultScenario, CongestionBurstSlowsPacketPathThenClears) {
  const auto vm = boot_with_optical_attachment();
  const auto a = dc_.fabric().attachments_of(vm.compute).front();
  ASSERT_TRUE(dc_.fabric().failover_to_packet(vm.compute, a.segment,
                                              dc_.simulator().now()));

  const auto calm = dc_.remote_read(vm.compute, a.compute_base, 4096);
  ASSERT_TRUE(calm.ok());

  const Time t0 = dc_.simulator().now();
  auto plan = sim::FaultPlan{};
  plan.add({t0 + Time::ms(1), FaultKind::kCongestionBurst, 0, 0, 8.0, Time::ms(5)});
  plan.add({t0 + Time::ms(1), FaultKind::kLossBurst, 0, 0, 2.0, Time::ms(5)});
  dc_.inject_faults(plan);

  dc_.advance_to(t0 + Time::ms(2));
  const auto congested = dc_.remote_read(vm.compute, a.compute_base, 4096);
  ASSERT_TRUE(congested.ok());
  EXPECT_GT(congested.round_trip(), calm.round_trip());
  EXPECT_GE(counter("net.packets.retransmitted"), 1u);

  dc_.advance_to(t0 + Time::ms(10));
  const auto cleared = dc_.remote_read(vm.compute, a.compute_base, 4096);
  ASSERT_TRUE(cleared.ok());
  EXPECT_EQ(cleared.round_trip(), calm.round_trip());
  audit_everything();
}

TEST_F(FaultScenario, RmstCorruptionIsScrubbedOnDemand) {
  const auto vm = boot_with_optical_attachment();
  const auto a = dc_.fabric().attachments_of(vm.compute).front();

  const Time t0 = dc_.simulator().now();
  auto plan = sim::FaultPlan{};
  plan.add({t0 + Time::ms(1), FaultKind::kRmstCorruption});  // target 0: first compute
  dc_.inject_faults(plan);
  dc_.advance_to(t0 + Time::ms(2));
  EXPECT_EQ(counter("memsys.fabric.rmst_corruptions"), 1u);

  // The poisoned translation is caught against the dMEMBRICK's backing
  // segment, scrubbed from the attachment records, and the read retries
  // through cleanly.
  const auto tx = dc_.remote_read(vm.compute, a.compute_base, 64);
  EXPECT_TRUE(tx.ok());
  EXPECT_GE(tx.retries, 1u);
  EXPECT_GE(counter("memsys.fabric.rmst_scrubs"), 1u);
  audit_everything();
}

TEST_F(FaultScenario, ControllerStallDelaysScaleUps) {
  const auto vm = dc_.boot_vm("tenant", 1, kGiB);
  ASSERT_TRUE(vm.ok);
  const auto baseline = dc_.scale_up(vm.vm, vm.compute, kGiB);
  ASSERT_TRUE(baseline.ok);

  const Time t0 = dc_.simulator().now();
  const Time stall = Time::ms(50);
  auto plan = sim::FaultPlan{};
  plan.add({t0 + Time::ms(1), FaultKind::kControllerStall, 0, 0, 0.0, stall});
  dc_.inject_faults(plan);
  dc_.advance_to(t0 + Time::ms(2));

  // The serialized inspect+reserve queue is not draining; the request
  // waits behind the stall on top of the normal control-plane latency.
  const auto delayed = dc_.scale_up(vm.vm, vm.compute, kGiB);
  ASSERT_TRUE(delayed.ok) << delayed.error;
  EXPECT_GE(delayed.delay(), baseline.delay() + sim::scale(stall, 0.9));
  EXPECT_EQ(counter("orch.sdm.stalls"), 1u);
  audit_everything();
}

TEST_F(FaultScenario, FaultPlanFromEnvironmentDrivesTheRack) {
  ::setenv(sim::kFaultPlanEnv, "link-flap@1ms+2ms;congestion@2ms+1ms:magnitude=3", 1);
  const auto plan = sim::fault_plan_from_env();
  ::unsetenv(sim::kFaultPlanEnv);
  ASSERT_TRUE(plan.has_value());
  ASSERT_EQ(plan->size(), 2u);

  boot_with_optical_attachment();
  EXPECT_EQ(dc_.inject_faults(*plan), 2u);
  dc_.advance_to(dc_.simulator().now() + Time::ms(10));
  EXPECT_EQ(dc_.faults().injected() + dc_.faults().skipped(), 2u);
  EXPECT_EQ(dc_.faults().skipped(), 0u);  // the facade handles every kind
  audit_everything();
}

}  // namespace
}  // namespace dredbox
