#include "orch/sdm_controller.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "orch/openstack.hpp"

namespace dredbox::orch {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

/// Two compute bricks (4 cores, 4 GiB local each) and two 16 GiB memory
/// bricks, with the full per-brick software stack.
class SdmControllerTest : public ::testing::Test {
 protected:
  SdmControllerTest()
      : circuits_{switch_, telemetry_},
        fabric_{rack_, circuits_, telemetry_},
        sdm_{rack_, fabric_, circuits_, telemetry_} {
    // Compute bricks and memory bricks on separate trays so these tests
    // exercise the cross-tray optical control path (switch programming).
    const hw::TrayId compute_tray = rack_.add_tray();
    const hw::TrayId memory_tray = rack_.add_tray();
    for (int i = 0; i < 2; ++i) {
      hw::ComputeBrickConfig cc;
      cc.apu_cores = 4;
      cc.local_memory_bytes = 4 * kGiB;
      auto& cb = rack_.add_compute_brick(compute_tray, cc);
      auto stack = std::make_unique<Stack>(cb, telemetry_);
      sdm_.register_agent(stack->agent);
      computes_.push_back(cb.id());
      stacks_.push_back(std::move(stack));
    }
    for (int i = 0; i < 2; ++i) {
      hw::MemoryBrickConfig mc;
      mc.capacity_bytes = 16 * kGiB;
      membricks_.push_back(rack_.add_memory_brick(memory_tray, mc).id());
    }
  }

  struct Stack {
    Stack(hw::ComputeBrick& brick, sim::Telemetry& telemetry)
        : os{brick}, hypervisor{brick, os, telemetry}, agent{hypervisor, os} {}
    os::BareMetalOs os;
    hyp::Hypervisor hypervisor;
    SdmAgent agent;
  };

  ScaleUpResult do_scale_up(hw::VmId vm, hw::BrickId brick, std::uint64_t bytes, Time at) {
    ScaleUpRequest req;
    req.vm = vm;
    req.compute = brick;
    req.bytes = bytes;
    req.posted_at = at;
    return sdm_.scale_up(req);
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  memsys::RemoteMemoryFabric fabric_;
  SdmController sdm_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  std::vector<hw::BrickId> computes_;
  std::vector<hw::BrickId> membricks_;
};

TEST_F(SdmControllerTest, AllocateVmFromLocalMemory) {
  AllocationRequest req;
  req.vcpus = 2;
  req.memory_bytes = 2 * kGiB;
  const auto result = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.remote_bytes, 0u);
  EXPECT_EQ(result.local_bytes, 2 * kGiB);
  EXPECT_GT(result.completed_at, Time::zero());
}

TEST_F(SdmControllerTest, AllocateVmTopsUpWithRemoteMemory) {
  AllocationRequest req;
  req.vcpus = 2;
  req.memory_bytes = 10 * kGiB;  // local DDR is only 4 GiB
  const auto result = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GE(result.remote_bytes, 6 * kGiB);
  // The fabric holds the attachment and the switch carries the circuit.
  EXPECT_GT(fabric_.attached_bytes(result.compute), 0u);
  EXPECT_GT(switch_.ports_in_use(), 0u);
}

TEST_F(SdmControllerTest, AllocateVmFailsWhenNoCores) {
  AllocationRequest req;
  req.vcpus = 5;  // more than any brick has
  const auto result = sdm_.allocate_vm(req, Time::zero());
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("free cores"), std::string::npos);
}

TEST_F(SdmControllerTest, SelectComputePacksActiveBricksFirst) {
  AllocationRequest req;
  req.vcpus = 1;
  req.memory_bytes = kGiB;
  const auto first = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(first.ok);
  const auto second = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(first.compute, second.compute);  // packed, not spread
}

TEST_F(SdmControllerTest, ScaleUpPipelineCompletes) {
  AllocationRequest req;
  req.vcpus = 1;
  req.memory_bytes = kGiB;
  const auto vm = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);
  const auto result = do_scale_up(vm.vm, vm.compute, 2 * kGiB, Time::sec(1));
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_GT(result.delay(), Time::ms(100));  // hotplug dominates
  EXPECT_LT(result.delay(), Time::sec(10));
  // The guest actually grew.
  auto& hv = sdm_.agent_for(vm.compute).hypervisor();
  EXPECT_EQ(hv.vm(vm.vm).hotplugged_bytes(), 2 * kGiB);
}

TEST_F(SdmControllerTest, ScaleUpBreakdownHasPipelineStages) {
  AllocationRequest req;
  const auto vm = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);
  const auto result = do_scale_up(vm.vm, vm.compute, kGiB, Time::sec(1));
  ASSERT_TRUE(result.ok);
  EXPECT_TRUE(result.breakdown.has(sim::component("Scale-up API relay")));
  EXPECT_TRUE(result.breakdown.has(sim::component("SDM-C inspect+reserve")));
  EXPECT_TRUE(result.breakdown.has(sim::component("switch programming")));
  EXPECT_TRUE(result.breakdown.has(sim::component("baremetal hotplug")));
  EXPECT_TRUE(result.breakdown.has(sim::component("QEMU DIMM add + guest online")));
}

TEST_F(SdmControllerTest, SecondScaleUpSkipsSwitchProgramming) {
  AllocationRequest req;
  const auto vm = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);
  const auto first = do_scale_up(vm.vm, vm.compute, kGiB, Time::sec(1));
  const auto second = do_scale_up(vm.vm, vm.compute, kGiB, Time::sec(100));
  ASSERT_TRUE(first.ok && second.ok);
  EXPECT_GT(first.breakdown.of(sim::component("switch programming")), Time::zero());
  EXPECT_EQ(second.breakdown.of(sim::component("switch programming")), Time::zero());
  EXPECT_LT(second.delay(), first.delay());
}

TEST_F(SdmControllerTest, ConcurrentRequestsQueueAtController) {
  AllocationRequest req;
  const auto vm1 = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm1.ok);
  sdm_.reset_queues();
  // Two requests posted at the same instant: the second sees queueing.
  const auto r1 = do_scale_up(vm1.vm, vm1.compute, kGiB, Time::sec(1));
  const auto r2 = do_scale_up(vm1.vm, vm1.compute, kGiB, Time::sec(1));
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_EQ(r1.breakdown.of(sim::component("SDM-C queueing")), Time::zero());
  EXPECT_GT(r2.breakdown.of(sim::component("SDM-C queueing")), Time::zero());
  EXPECT_GT(r2.delay(), r1.delay());
}

TEST_F(SdmControllerTest, PowerConsciousMembrickSelectionPacks) {
  AllocationRequest req;
  const auto vm = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);
  const auto r1 = do_scale_up(vm.vm, vm.compute, kGiB, Time::sec(1));
  const auto r2 = do_scale_up(vm.vm, vm.compute, kGiB, Time::sec(50));
  ASSERT_TRUE(r1.ok && r2.ok);
  // Both land on the same dMEMBRICK (wired + active beats cold).
  EXPECT_EQ(r1.membrick, r2.membrick);
  // The other memory brick stayed idle and could be powered off.
  const hw::BrickId other =
      r1.membrick == membricks_[0] ? membricks_[1] : membricks_[0];
  EXPECT_EQ(rack_.brick(other).power_state(), hw::PowerState::kIdle);
}

TEST_F(SdmControllerTest, ScaleUpFailsWhenPoolExhausted) {
  AllocationRequest req;
  const auto vm = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);
  const auto result = do_scale_up(vm.vm, vm.compute, 64 * kGiB, Time::sec(1));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no dMEMBRICK"), std::string::npos);
}

TEST_F(SdmControllerTest, ScaleDownUnwindsScaleUp) {
  AllocationRequest req;
  const auto vm = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);
  const auto up = do_scale_up(vm.vm, vm.compute, 2 * kGiB, Time::sec(1));
  ASSERT_TRUE(up.ok);
  const auto down = sdm_.scale_down(vm.vm, vm.compute, up.segment, Time::sec(60));
  ASSERT_TRUE(down.ok) << down.error;
  EXPECT_GT(down.delay(), Time::zero());
  EXPECT_EQ(fabric_.attached_bytes(vm.compute), 0u);
  EXPECT_EQ(switch_.ports_in_use(), 0u);
  auto& hv = sdm_.agent_for(vm.compute).hypervisor();
  EXPECT_EQ(hv.vm(vm.vm).hotplugged_bytes(), 0u);
}

TEST_F(SdmControllerTest, ScaleDownUnknownSegmentFails) {
  AllocationRequest req;
  const auto vm = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);
  const auto down = sdm_.scale_down(vm.vm, vm.compute, hw::SegmentId{42}, Time::sec(1));
  EXPECT_FALSE(down.ok);
}

TEST_F(SdmControllerTest, AgentLookupValidation) {
  EXPECT_THROW(sdm_.agent_for(hw::BrickId{999}), std::out_of_range);
  EXPECT_TRUE(sdm_.has_agent(computes_[0]));
  EXPECT_FALSE(sdm_.has_agent(membricks_[0]));
}

TEST_F(SdmControllerTest, CompletedCounterIncrements) {
  AllocationRequest req;
  const auto vm = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);
  EXPECT_EQ(sdm_.completed_scale_ups(), 0u);
  do_scale_up(vm.vm, vm.compute, kGiB, Time::sec(1));
  EXPECT_EQ(sdm_.completed_scale_ups(), 1u);
}

TEST_F(SdmControllerTest, IntraTrayMembrickPreferredWhenAvailable) {
  // Add a memory brick on the compute tray: it should win selection over
  // the cross-tray ones, and its attach must skip switch programming.
  hw::MemoryBrickConfig mc;
  mc.capacity_bytes = 16 * kGiB;
  const hw::TrayId compute_tray = rack_.brick(computes_[0]).tray();
  const hw::BrickId local_mb = rack_.add_memory_brick(compute_tray, mc).id();

  AllocationRequest req;
  const auto vm = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);
  const auto result = do_scale_up(vm.vm, vm.compute, kGiB, Time::sec(1));
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.membrick, local_mb);
  EXPECT_EQ(result.breakdown.of(sim::component("switch programming")), Time::zero());
  EXPECT_EQ(switch_.ports_in_use(), 0u);
  const auto attachments = fabric_.attachments_of(vm.compute);
  ASSERT_EQ(attachments.size(), 1u);
  EXPECT_EQ(attachments[0].medium, memsys::LinkMedium::kElectrical);
}

TEST_F(SdmControllerTest, InventoryReflectsRackState) {
  AllocationRequest req;
  req.vcpus = 2;
  req.memory_bytes = 2 * kGiB;
  const auto vm = sdm_.allocate_vm(req, Time::zero());
  ASSERT_TRUE(vm.ok);
  const auto up = do_scale_up(vm.vm, vm.compute, kGiB, Time::sec(1));
  ASSERT_TRUE(up.ok);

  const auto inventory = sdm_.inventory();
  ASSERT_EQ(inventory.size(), 4u);  // 2 compute + 2 memory bricks
  std::size_t total_cores_used = 0;
  std::uint64_t total_mem_used = 0;
  std::size_t vms = 0;
  for (const auto& s : inventory) {
    total_cores_used += s.cores_used;
    total_mem_used += s.memory_used;
    vms += s.vms;
    if (s.brick == vm.compute) {
      EXPECT_EQ(s.kind, hw::BrickKind::kCompute);
      EXPECT_EQ(s.power, hw::PowerState::kActive);
      EXPECT_EQ(s.ports_used, 1u);  // the scale-up circuit
    }
    if (s.brick == up.membrick) {
      EXPECT_EQ(s.segments, 1u);
    }
  }
  EXPECT_EQ(total_cores_used, 2u);
  EXPECT_EQ(total_mem_used, kGiB);
  EXPECT_EQ(vms, 1u);
}

TEST(OpenStackFrontendTest, BootRecordsInstances) {
  hw::Rack rack;
  const hw::TrayId tray = rack.add_tray();
  auto& cb = rack.add_compute_brick(tray);
  optics::OpticalSwitch sw;
  sim::Telemetry telemetry;
  optics::CircuitManager circuits{sw, telemetry};
  memsys::RemoteMemoryFabric fabric{rack, circuits, telemetry};
  SdmController sdm{rack, fabric, circuits, telemetry};
  os::BareMetalOs os{cb};
  hyp::Hypervisor hv{cb, os, telemetry};
  SdmAgent agent{hv, os};
  sdm.register_agent(agent);

  OpenStackFrontend front{sdm};
  const auto ok = front.boot("web-1", 1, 1ull << 30, Time::zero());
  EXPECT_TRUE(ok.ok);
  const auto fail = front.boot("web-2", 64, 1ull << 30, Time::zero());
  EXPECT_FALSE(fail.ok);
  EXPECT_EQ(front.active_instances(), 1u);
  EXPECT_EQ(front.instances()[0].name, "web-1");
}

}  // namespace
}  // namespace dredbox::orch
