#include "orch/migration.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace dredbox::orch {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest()
      : circuits_{switch_, telemetry_},
        fabric_{rack_, circuits_, telemetry_},
        sdm_{rack_, fabric_, circuits_, telemetry_},
        engine_{rack_, fabric_, sdm_, telemetry_} {
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    hw::ComputeBrickConfig cc;
    cc.apu_cores = 4;
    cc.local_memory_bytes = 4 * kGiB;
    for (hw::TrayId tray : {tray_a, tray_b}) {
      auto& cb = rack_.add_compute_brick(tray, cc);
      stacks_.push_back(std::make_unique<Stack>(cb, telemetry_));
      sdm_.register_agent(stacks_.back()->agent);
      computes_.push_back(cb.id());
    }
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

  /// Boots a VM on computes_[0] with 1 GiB local and `remote_gib`
  /// disaggregated.
  hw::VmId boot_with_remote(std::uint64_t remote_gib) {
    AllocationRequest req;
    req.vcpus = 2;
    req.memory_bytes = kGiB;
    auto vm = sdm_.allocate_vm(req, Time::zero());
    EXPECT_TRUE(vm.ok) << vm.error;
    EXPECT_EQ(vm.compute, computes_[0]);
    for (std::uint64_t g = 0; g < remote_gib; ++g) {
      ScaleUpRequest sr;
      sr.vm = vm.vm;
      sr.compute = vm.compute;
      sr.bytes = kGiB;
      sr.posted_at = Time::sec(1 + static_cast<double>(g));
      const auto r = sdm_.scale_up(sr);
      EXPECT_TRUE(r.ok) << r.error;
    }
    return vm.vm;
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  memsys::RemoteMemoryFabric fabric_;
  SdmController sdm_;
  MigrationEngine engine_;
  std::vector<std::unique_ptr<Stack>> stacks_;
  std::vector<hw::BrickId> computes_;
  hw::BrickId membrick_;
};

TEST_F(MigrationTest, MigratesVmAndRepointsSegments) {
  const hw::VmId vm = boot_with_remote(2);
  const auto result = engine_.migrate(vm, computes_[0], computes_[1], Time::sec(100));
  ASSERT_TRUE(result.ok) << result.error;

  // Source instance retired; destination instance running with the same
  // footprint.
  EXPECT_FALSE(stacks_[0]->hypervisor.has_vm(vm));
  auto& dst = stacks_[1]->hypervisor;
  ASSERT_TRUE(dst.has_vm(result.new_vm));
  EXPECT_EQ(dst.vm(result.new_vm).installed_bytes(), 3 * kGiB);
  EXPECT_EQ(dst.vm(result.new_vm).hotplugged_bytes(), 2 * kGiB);

  // Segments re-pointed, not copied.
  EXPECT_EQ(result.repointed_bytes, 2 * kGiB);
  EXPECT_EQ(fabric_.attached_bytes(computes_[0]), 0u);
  EXPECT_EQ(fabric_.attached_bytes(computes_[1]), 2 * kGiB);
  // Data never moved on the dMEMBRICK: same segments, new owner.
  EXPECT_EQ(rack_.memory_brick(membrick_).bytes_owned_by(computes_[1]), 2 * kGiB);

  // Source kernel dropped the remote regions.
  EXPECT_EQ(stacks_[0]->os.remote_bytes(), 0u);
  EXPECT_EQ(stacks_[1]->os.remote_bytes(), 2 * kGiB);

  // Cores moved.
  EXPECT_EQ(rack_.compute_brick(computes_[0]).cores_in_use(), 0u);
  EXPECT_EQ(rack_.compute_brick(computes_[1]).cores_in_use(), 2u);
}

TEST_F(MigrationTest, OnlyLocalMemoryIsCopied) {
  const hw::VmId vm = boot_with_remote(3);
  const auto result = engine_.migrate(vm, computes_[0], computes_[1], Time::sec(100));
  ASSERT_TRUE(result.ok);
  // Copied bytes ~ local 1 GiB plus dirty-page rounds; far below the
  // 4 GiB total footprint.
  EXPECT_GE(result.copied_bytes, 1 * kGiB);
  EXPECT_LT(result.copied_bytes, 2 * kGiB);
  EXPECT_EQ(result.repointed_bytes, 3 * kGiB);
  EXPECT_GT(result.precopy_iterations, 0u);
}

TEST_F(MigrationTest, DisaggregationBeatsConventionalCopy) {
  const hw::VmId vm = boot_with_remote(3);  // 1 GiB local + 3 GiB remote
  const auto result = engine_.migrate(vm, computes_[0], computes_[1], Time::sec(100));
  ASSERT_TRUE(result.ok);
  const sim::Time conventional = engine_.conventional_copy_time(4 * kGiB);
  EXPECT_LT(result.total_time, conventional);
}

TEST_F(MigrationTest, DowntimeIsSmallFractionOfTotal) {
  const hw::VmId vm = boot_with_remote(2);
  const auto result = engine_.migrate(vm, computes_[0], computes_[1], Time::sec(100));
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.downtime, Time::zero());
  EXPECT_LT(result.downtime, sim::scale(result.total_time, 0.75));
}

TEST_F(MigrationTest, ValidatesArguments) {
  const hw::VmId vm = boot_with_remote(0);
  EXPECT_FALSE(engine_.migrate(vm, computes_[0], computes_[0], Time::sec(10)).ok);
  EXPECT_FALSE(engine_.migrate(hw::VmId{99}, computes_[0], computes_[1], Time::sec(10)).ok);
  EXPECT_FALSE(engine_.migrate(vm, computes_[1], computes_[0], Time::sec(10)).ok);
}

TEST_F(MigrationTest, DestinationMustFitCoresAndLocalMemory) {
  const hw::VmId vm = boot_with_remote(0);
  // Saturate destination cores.
  auto& dst_hv = stacks_[1]->hypervisor;
  ASSERT_TRUE(dst_hv.create_vm(4, kGiB));
  const auto result = engine_.migrate(vm, computes_[0], computes_[1], Time::sec(10));
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("cores"), std::string::npos);
}

TEST_F(MigrationTest, ConfigValidation) {
  MigrationConfig bad;
  bad.dirty_rate_bytes_per_sec = 2e9;  // above 10 Gb/s
  EXPECT_THROW(MigrationEngine(rack_, fabric_, sdm_, telemetry_, bad), std::invalid_argument);
  bad = MigrationConfig{};
  bad.network_bandwidth_gbps = 0;
  EXPECT_THROW(MigrationEngine(rack_, fabric_, sdm_, telemetry_, bad), std::invalid_argument);
}

TEST_F(MigrationTest, MigratedVmKeepsWorking) {
  const hw::VmId vm = boot_with_remote(1);
  const auto result = engine_.migrate(vm, computes_[0], computes_[1], Time::sec(100));
  ASSERT_TRUE(result.ok);
  // The re-pointed segment is readable from the new brick.
  const auto attachments = fabric_.attachments_of(computes_[1]);
  ASSERT_EQ(attachments.size(), 1u);
  const auto tx = fabric_.read(computes_[1], attachments[0].compute_base, 64, Time::sec(200));
  EXPECT_TRUE(tx.ok());
  // And a further scale-up on the new brick succeeds.
  ScaleUpRequest sr;
  sr.vm = result.new_vm;
  sr.compute = computes_[1];
  sr.bytes = kGiB;
  sr.posted_at = Time::sec(300);
  EXPECT_TRUE(sdm_.scale_up(sr).ok);
}

}  // namespace
}  // namespace dredbox::orch
