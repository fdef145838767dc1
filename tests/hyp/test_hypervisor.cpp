#include "hyp/hypervisor.hpp"

#include <gtest/gtest.h>

namespace dredbox::hyp {
namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

class HypervisorTest : public ::testing::Test {
 protected:
  HypervisorTest()
      : brick_{hw::BrickId{1}, hw::TrayId{1}, config()},
        os_{brick_},
        hv_{brick_, os_, telemetry_} {}

  static hw::ComputeBrickConfig config() {
    hw::ComputeBrickConfig cfg;
    cfg.apu_cores = 4;
    cfg.local_memory_bytes = 4 * kGiB;
    return cfg;
  }

  sim::Telemetry telemetry_;
  hw::ComputeBrick brick_;
  os::BareMetalOs os_;
  Hypervisor hv_;
};

TEST_F(HypervisorTest, CreateVmReservesResources) {
  auto vm = hv_.create_vm(2, 2 * kGiB);
  ASSERT_TRUE(vm.has_value());
  EXPECT_EQ(brick_.cores_in_use(), 2u);
  EXPECT_EQ(hv_.committed_bytes(), 2 * kGiB);
  EXPECT_EQ(hv_.available_bytes(), 2 * kGiB);
  EXPECT_EQ(hv_.vm(*vm).state(), VmState::kRunning);
  EXPECT_TRUE(hv_.has_vm(*vm));
  EXPECT_EQ(hv_.vm_count(), 1u);
}

TEST_F(HypervisorTest, CreateVmFailsOnCoreShortage) {
  ASSERT_TRUE(hv_.create_vm(4, kGiB));
  EXPECT_FALSE(hv_.create_vm(1, kGiB).has_value());
}

TEST_F(HypervisorTest, CreateVmFailsOnMemoryShortage) {
  EXPECT_FALSE(hv_.create_vm(1, 5 * kGiB).has_value());
  ASSERT_TRUE(hv_.create_vm(1, 3 * kGiB));
  EXPECT_FALSE(hv_.create_vm(1, 2 * kGiB).has_value());
}

TEST_F(HypervisorTest, DestroyVmReleasesResources) {
  auto vm = hv_.create_vm(3, 2 * kGiB);
  ASSERT_TRUE(vm);
  EXPECT_TRUE(hv_.destroy_vm(*vm));
  EXPECT_EQ(brick_.cores_in_use(), 0u);
  EXPECT_EQ(hv_.committed_bytes(), 0u);
  EXPECT_FALSE(hv_.destroy_vm(*vm));
  EXPECT_THROW(hv_.vm(*vm), std::out_of_range);
}

TEST_F(HypervisorTest, ExpandRequiresHostMemory) {
  auto vm = hv_.create_vm(1, 4 * kGiB);  // consumes all local DDR
  ASSERT_TRUE(vm);
  EXPECT_THROW(hv_.expand_vm_memory(*vm, kGiB, hw::SegmentId{1}, sim::Time::zero()),
               std::logic_error);
}

TEST_F(HypervisorTest, ExpandAfterHotplugSucceeds) {
  auto vm = hv_.create_vm(1, 4 * kGiB);
  ASSERT_TRUE(vm);
  // Baremetal OS onlines 2 GiB of remote memory first.
  os_.attach_remote_memory(brick_.config().remote_window_base, 2 * kGiB);
  const sim::Time latency =
      hv_.expand_vm_memory(*vm, 2 * kGiB, hw::SegmentId{1}, sim::Time::zero());
  EXPECT_GT(latency, sim::Time::zero());
  EXPECT_EQ(hv_.vm(*vm).installed_bytes(), 6 * kGiB);
  EXPECT_EQ(hv_.vm(*vm).hotplugged_bytes(), 2 * kGiB);
  EXPECT_EQ(hv_.committed_bytes(), 6 * kGiB);
  EXPECT_EQ(hv_.available_bytes(), 0u);
}

TEST_F(HypervisorTest, ExpandLatencyScalesWithSize) {
  auto vm = hv_.create_vm(1, kGiB);
  ASSERT_TRUE(vm);
  os_.attach_remote_memory(brick_.config().remote_window_base, 4 * kGiB);
  const sim::Time t1 = hv_.expand_vm_memory(*vm, kGiB, hw::SegmentId{1}, sim::Time::zero());
  const sim::Time t3 =
      hv_.expand_vm_memory(*vm, 3 * kGiB, hw::SegmentId{2}, sim::Time::zero());
  EXPECT_GT(t3, t1);
}

TEST_F(HypervisorTest, ShrinkRemovesDimmAndAccounting) {
  auto vm = hv_.create_vm(1, kGiB);
  ASSERT_TRUE(vm);
  os_.attach_remote_memory(brick_.config().remote_window_base, 2 * kGiB);
  hv_.expand_vm_memory(*vm, 2 * kGiB, hw::SegmentId{5}, sim::Time::zero());
  const sim::Time latency = hv_.shrink_vm_memory(*vm, hw::SegmentId{5});
  EXPECT_GT(latency, sim::Time::zero());
  EXPECT_EQ(hv_.vm(*vm).installed_bytes(), kGiB);
  EXPECT_EQ(hv_.committed_bytes(), kGiB);
}

TEST_F(HypervisorTest, ShrinkUnknownSegmentIsNoop) {
  auto vm = hv_.create_vm(1, kGiB);
  ASSERT_TRUE(vm);
  EXPECT_EQ(hv_.shrink_vm_memory(*vm, hw::SegmentId{99}), sim::Time::zero());
}

TEST_F(HypervisorTest, VmsListedSorted) {
  auto v1 = hv_.create_vm(1, kGiB);
  auto v2 = hv_.create_vm(1, kGiB);
  ASSERT_TRUE(v1 && v2);
  const auto vms = hv_.vms();
  ASSERT_EQ(vms.size(), 2u);
  EXPECT_LT(vms[0], vms[1]);
}

TEST_F(HypervisorTest, MismatchedOsRejected) {
  hw::ComputeBrick other{hw::BrickId{2}, hw::TrayId{1}, config()};
  EXPECT_THROW(Hypervisor(other, os_, telemetry_), std::invalid_argument);
}

TEST_F(HypervisorTest, MultipleVmsShareHost) {
  auto v1 = hv_.create_vm(2, kGiB);
  auto v2 = hv_.create_vm(2, 2 * kGiB);
  ASSERT_TRUE(v1 && v2);
  EXPECT_EQ(hv_.committed_bytes(), 3 * kGiB);
  EXPECT_EQ(brick_.cores_free(), 0u);
  hv_.destroy_vm(*v1);
  EXPECT_EQ(hv_.committed_bytes(), 2 * kGiB);
  EXPECT_EQ(brick_.cores_free(), 2u);
}

}  // namespace
}  // namespace dredbox::hyp
