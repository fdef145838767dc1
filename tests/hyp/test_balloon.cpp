#include <gtest/gtest.h>

#include "hyp/hypervisor.hpp"

namespace dredbox::hyp {
namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

class BalloonTest : public ::testing::Test {
 protected:
  BalloonTest()
      : brick_{hw::BrickId{1}, hw::TrayId{1}, config()},
        os_{brick_},
        hv_{brick_, os_, telemetry_} {}

  static hw::ComputeBrickConfig config() {
    hw::ComputeBrickConfig cfg;
    cfg.apu_cores = 4;
    cfg.local_memory_bytes = 8 * kGiB;
    return cfg;
  }

  sim::Telemetry telemetry_;
  hw::ComputeBrick brick_;
  os::BareMetalOs os_;
  Hypervisor hv_;
};

TEST_F(BalloonTest, ReclaimReturnsPagesToHost) {
  auto vm = hv_.create_vm(1, 6 * kGiB);
  ASSERT_TRUE(vm);
  EXPECT_EQ(hv_.available_bytes(), 2 * kGiB);
  const sim::Time latency = hv_.balloon_reclaim(*vm, 2 * kGiB);
  EXPECT_GT(latency, sim::Time::zero());
  EXPECT_EQ(hv_.ballooned_bytes(), 2 * kGiB);
  EXPECT_EQ(hv_.available_bytes(), 4 * kGiB);
  EXPECT_EQ(hv_.vm(*vm).usable_bytes(), 4 * kGiB);
}

TEST_F(BalloonTest, ReclaimedPagesBackAnotherGuest) {
  auto donor = hv_.create_vm(1, 6 * kGiB);
  ASSERT_TRUE(donor);
  hv_.balloon_reclaim(*donor, 3 * kGiB);
  // 2 GiB free + 3 GiB ballooned = 5 GiB available for a second guest.
  auto taker = hv_.create_vm(1, 5 * kGiB);
  EXPECT_TRUE(taker.has_value());
  EXPECT_EQ(hv_.available_bytes(), 0u);
}

TEST_F(BalloonTest, ReturnRequiresAvailability) {
  auto donor = hv_.create_vm(1, 6 * kGiB);
  ASSERT_TRUE(donor);
  hv_.balloon_reclaim(*donor, 3 * kGiB);
  ASSERT_TRUE(hv_.create_vm(1, 5 * kGiB));  // consumes the ballooned pages
  // The donor cannot deflate: its pages are committed elsewhere now.
  EXPECT_THROW(hv_.balloon_return(*donor, 3 * kGiB), std::logic_error);
}

TEST_F(BalloonTest, ReturnRestoresGuest) {
  auto donor = hv_.create_vm(1, 6 * kGiB);
  ASSERT_TRUE(donor);
  hv_.balloon_reclaim(*donor, 2 * kGiB);
  const sim::Time latency = hv_.balloon_return(*donor, 2 * kGiB);
  EXPECT_GT(latency, sim::Time::zero());
  EXPECT_EQ(hv_.ballooned_bytes(), 0u);
  EXPECT_EQ(hv_.vm(*donor).usable_bytes(), 6 * kGiB);
  EXPECT_EQ(hv_.available_bytes(), 2 * kGiB);
}

TEST_F(BalloonTest, CannotReturnMoreThanBallooned) {
  auto donor = hv_.create_vm(1, 4 * kGiB);
  ASSERT_TRUE(donor);
  hv_.balloon_reclaim(*donor, kGiB);
  EXPECT_THROW(hv_.balloon_return(*donor, 2 * kGiB), std::logic_error);
}

TEST_F(BalloonTest, CannotReclaimBeyondGuestMemory) {
  auto donor = hv_.create_vm(1, 2 * kGiB);
  ASSERT_TRUE(donor);
  EXPECT_THROW(hv_.balloon_reclaim(*donor, 3 * kGiB), std::logic_error);
}

}  // namespace
}  // namespace dredbox::hyp
