#include "orch/accel_manager.hpp"

#include <gtest/gtest.h>

namespace dredbox::orch {
namespace {

using sim::Time;

hw::Bitstream classifier() {
  hw::Bitstream bs;
  bs.name = "classifier";
  bs.size_bytes = 16ull << 20;
  bs.kernel_ops_per_sec = 1e9;
  return bs;
}

class AccelManagerTest : public ::testing::Test {
 protected:
  AccelManagerTest() : mgr_{rack_} {
    const hw::TrayId tray = rack_.add_tray();
    compute_ = rack_.add_compute_brick(tray).id();
    accel1_ = rack_.add_accelerator_brick(tray).id();
    accel2_ = rack_.add_accelerator_brick(tray).id();
  }

  hw::Rack rack_;
  AcceleratorManager mgr_;
  hw::BrickId compute_;
  hw::BrickId accel1_;
  hw::BrickId accel2_;
};

TEST_F(AccelManagerTest, DeployReservesAndLoads) {
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->owner, compute_);
  EXPECT_TRUE(mgr_.is_reserved(d->accel));
  EXPECT_EQ(mgr_.free_count(), 1u);
  EXPECT_GT(d->ready_at, Time::zero());
  EXPECT_TRUE(d->breakdown.has(sim::component("bitstream transfer")));
  EXPECT_TRUE(d->breakdown.has(sim::component("PCAP reconfiguration")));
  EXPECT_EQ(rack_.accelerator_brick(d->accel).active_accelerator(), "classifier");
}

TEST_F(AccelManagerTest, PoolExhaustion) {
  ASSERT_TRUE(mgr_.deploy(compute_, classifier(), Time::zero()));
  ASSERT_TRUE(mgr_.deploy(compute_, classifier(), Time::zero()));
  EXPECT_FALSE(mgr_.deploy(compute_, classifier(), Time::zero()).has_value());
  EXPECT_EQ(mgr_.reserved_count(), 2u);
}

TEST_F(AccelManagerTest, ReleaseReturnsBrickToPool) {
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d);
  EXPECT_TRUE(mgr_.release(d->accel));
  EXPECT_FALSE(mgr_.release(d->accel));
  EXPECT_EQ(mgr_.free_count(), 2u);
  EXPECT_TRUE(mgr_.deploy(compute_, classifier(), Time::zero()).has_value());
}

TEST_F(AccelManagerTest, OffloadRequiresReservationAndBitstream) {
  const auto bad = mgr_.offload(accel1_, 1000, 1 << 20, Time::zero());
  EXPECT_FALSE(bad.ok);
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d);
  const auto good = mgr_.offload(d->accel, 1000, 1 << 20, d->ready_at);
  EXPECT_TRUE(good.ok) << good.error;
}

TEST_F(AccelManagerTest, OffloadMovesOnlyDescriptorsOverTheNetwork) {
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d);
  const std::uint64_t data = 1ull << 30;  // 1 GiB lives near the accelerator
  const auto near = mgr_.offload(d->accel, 1'000'000, data, d->ready_at);
  ASSERT_TRUE(near.ok);
  EXPECT_LT(near.network_bytes, 10'000u);  // descriptor + result only

  const auto haul = mgr_.process_on_compute(data, /*cpu_gbps=*/20.0, d->ready_at);
  EXPECT_EQ(haul.network_bytes, data);
  // Near-data processing reduces network utilization by orders of
  // magnitude (Section II's rationale for dACCELBRICKs).
  EXPECT_LT(static_cast<double>(near.network_bytes),
            1e-4 * static_cast<double>(haul.network_bytes));
}

TEST_F(AccelManagerTest, NearDataFasterForBigData) {
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d);
  const std::uint64_t data = 8ull << 30;
  const auto near = mgr_.offload(d->accel, 1'000'000, data, d->ready_at);
  const auto haul = mgr_.process_on_compute(data, 20.0, d->ready_at);
  ASSERT_TRUE(near.ok && haul.ok);
  EXPECT_LT(near.completed_at - d->ready_at, haul.completed_at - d->ready_at);
}

TEST_F(AccelManagerTest, KernelBoundWhenComputeHeavy) {
  // A slow kernel dominates the streaming phase.
  hw::Bitstream heavy = classifier();
  heavy.kernel_ops_per_sec = 1e3;
  const auto d = mgr_.deploy(compute_, heavy, Time::zero());
  ASSERT_TRUE(d);
  const auto result = mgr_.offload(d->accel, 10'000, 1 << 10, d->ready_at);
  ASSERT_TRUE(result.ok);
  // 10k ops at 1k ops/s = 10 s of kernel time.
  EXPECT_NEAR(result.breakdown.of(sim::component("near-data processing")).as_sec(), 10.0, 0.01);
}

/// Direct dMEMBRICK links (Fig. 5's wrapper transceivers).
class AccelLinkTest : public AccelManagerTest {
 protected:
  AccelLinkTest() : circuits_{switch_, telemetry_} {
    hw::MemoryBrickConfig mc;
    mc.capacity_bytes = 32ull << 30;
    membrick_ = rack_.add_memory_brick(rack_.brick(compute_).tray(), mc).id();
  }
  sim::Telemetry telemetry_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  hw::BrickId membrick_;
};

TEST_F(AccelLinkTest, LinkWiresDirectCircuits) {
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d);
  EXPECT_TRUE(mgr_.link_memory(d->accel, membrick_, /*lanes=*/2, circuits_));
  EXPECT_TRUE(mgr_.has_memory_link(d->accel));
  EXPECT_EQ(switch_.ports_in_use(), 4u);  // 2 lanes x 2 ports
  EXPECT_EQ(rack_.brick(d->accel).free_port_count(true), 6u);
  EXPECT_EQ(rack_.brick(membrick_).free_port_count(true), 6u);
}

TEST_F(AccelLinkTest, LinkRequiresReservation) {
  EXPECT_FALSE(mgr_.link_memory(accel1_, membrick_, 1, circuits_));
}

TEST_F(AccelLinkTest, DoubleLinkRejected) {
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d);
  ASSERT_TRUE(mgr_.link_memory(d->accel, membrick_, 1, circuits_));
  EXPECT_FALSE(mgr_.link_memory(d->accel, membrick_, 1, circuits_));
}

TEST_F(AccelLinkTest, OffloadFromMembrickStreamsOverBondedLanes) {
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d);
  ASSERT_TRUE(mgr_.link_memory(d->accel, membrick_, 4, circuits_));
  const std::uint64_t data = 4ull << 30;
  const auto job = mgr_.offload_from_membrick(d->accel, data / 64, data, d->ready_at);
  ASSERT_TRUE(job.ok) << job.error;
  EXPECT_TRUE(job.breakdown.has(sim::component("stream from dMEMBRICK")));
  EXPECT_LT(job.network_bytes, 10'000u);  // shared network untouched by data

  // A single-lane link streams the same data ~4x slower.
  const auto d2 = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d2);
  ASSERT_TRUE(mgr_.link_memory(d2->accel, membrick_, 1, circuits_));
  const auto slow = mgr_.offload_from_membrick(d2->accel, data / 64, data, d2->ready_at);
  ASSERT_TRUE(slow.ok);
  EXPECT_GT(slow.breakdown.of(sim::component("stream from dMEMBRICK")).as_sec(),
            3.0 * job.breakdown.of(sim::component("stream from dMEMBRICK")).as_sec());
}

TEST_F(AccelLinkTest, OffloadWithoutLinkFails) {
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d);
  const auto job = mgr_.offload_from_membrick(d->accel, 100, 1 << 20, d->ready_at);
  EXPECT_FALSE(job.ok);
}

TEST_F(AccelLinkTest, UnlinkReleasesEverything) {
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d);
  ASSERT_TRUE(mgr_.link_memory(d->accel, membrick_, 2, circuits_));
  EXPECT_TRUE(mgr_.unlink_memory(d->accel, circuits_));
  EXPECT_FALSE(mgr_.unlink_memory(d->accel, circuits_));
  EXPECT_EQ(switch_.ports_in_use(), 0u);
  EXPECT_EQ(rack_.brick(d->accel).free_port_count(true), 8u);
  EXPECT_EQ(rack_.brick(membrick_).free_port_count(true), 8u);
}

TEST_F(AccelLinkTest, LinkRollsBackOnSwitchExhaustion) {
  const auto d = mgr_.deploy(compute_, classifier(), Time::zero());
  ASSERT_TRUE(d);
  // Leave room for only one lane on the switch, then ask for three.
  for (std::size_t p = 0; p < switch_.port_count() - 2; p += 2) switch_.connect(p, p + 1);
  EXPECT_FALSE(mgr_.link_memory(d->accel, membrick_, 3, circuits_));
  EXPECT_FALSE(mgr_.has_memory_link(d->accel));
  EXPECT_EQ(rack_.brick(d->accel).free_port_count(true), 8u);  // no leak
}

TEST_F(AccelManagerTest, ConfigValidation) {
  AcceleratorManager::Config bad;
  bad.transfer_gbps = 0;
  EXPECT_THROW(AcceleratorManager(rack_, bad), std::invalid_argument);
}

}  // namespace
}  // namespace dredbox::orch
