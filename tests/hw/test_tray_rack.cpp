#include <gtest/gtest.h>

#include "hw/rack.hpp"

namespace dredbox::hw {
namespace {

TEST(TrayTest, PlugAndUnplug) {
  Tray tray{TrayId{1}, 4};
  EXPECT_EQ(tray.free_slots(), 4u);
  const std::size_t slot = tray.plug(BrickId{10});
  EXPECT_EQ(slot, 0u);
  EXPECT_TRUE(tray.hosts(BrickId{10}));
  EXPECT_EQ(tray.occupied_slots(), 1u);
  EXPECT_TRUE(tray.unplug(BrickId{10}));
  EXPECT_FALSE(tray.hosts(BrickId{10}));
  EXPECT_FALSE(tray.unplug(BrickId{10}));
}

TEST(TrayTest, FullTrayRejectsPlug) {
  Tray tray{TrayId{1}, 2};
  tray.plug(BrickId{1});
  tray.plug(BrickId{2});
  EXPECT_THROW(tray.plug(BrickId{3}), std::logic_error);
}

TEST(TrayTest, DoublePlugRejected) {
  Tray tray{TrayId{1}, 4};
  tray.plug(BrickId{1});
  EXPECT_THROW(tray.plug(BrickId{1}), std::logic_error);
}

TEST(TrayTest, UnplugFreesSlotForReuse) {
  Tray tray{TrayId{1}, 1};
  tray.plug(BrickId{1});
  tray.unplug(BrickId{1});
  EXPECT_NO_THROW(tray.plug(BrickId{2}));
}

TEST(TrayTest, Validation) {
  EXPECT_THROW(Tray(TrayId{1}, 0), std::invalid_argument);
  Tray tray{TrayId{1}, 2};
  EXPECT_THROW(tray.plug(BrickId{}), std::invalid_argument);
}

TEST(RackTest, BuildMixedRack) {
  Rack rack;
  const TrayId t1 = rack.add_tray(8);
  const TrayId t2 = rack.add_tray(8);
  auto& cb = rack.add_compute_brick(t1);
  auto& mb = rack.add_memory_brick(t1);
  auto& ab = rack.add_accelerator_brick(t2);
  EXPECT_EQ(rack.brick_count(), 3u);
  EXPECT_EQ(rack.tray_count(), 2u);
  EXPECT_TRUE(rack.tray(t1).hosts(cb.id()));
  EXPECT_TRUE(rack.tray(t1).hosts(mb.id()));
  EXPECT_TRUE(rack.tray(t2).hosts(ab.id()));
}

TEST(RackTest, TypedAccessorsEnforceKind) {
  Rack rack;
  const TrayId t = rack.add_tray();
  auto& cb = rack.add_compute_brick(t);
  auto& mb = rack.add_memory_brick(t);
  EXPECT_NO_THROW(rack.compute_brick(cb.id()));
  EXPECT_NO_THROW(rack.memory_brick(mb.id()));
  EXPECT_THROW(rack.memory_brick(cb.id()), std::logic_error);
  EXPECT_THROW(rack.compute_brick(mb.id()), std::logic_error);
  EXPECT_THROW(rack.brick(BrickId{999}), std::out_of_range);
}

TEST(RackTest, BricksOfKindSorted) {
  Rack rack;
  const TrayId t = rack.add_tray();
  rack.add_compute_brick(t);
  rack.add_memory_brick(t);
  rack.add_compute_brick(t);
  const auto computes = rack.bricks_of_kind(BrickKind::kCompute);
  EXPECT_EQ(computes.size(), 2u);
  EXPECT_LT(computes[0], computes[1]);
  EXPECT_EQ(rack.bricks_of_kind(BrickKind::kAccelerator).size(), 0u);
}

TEST(RackTest, Aggregates) {
  Rack rack;
  const TrayId t = rack.add_tray();
  ComputeBrickConfig cc;
  cc.apu_cores = 4;
  rack.add_compute_brick(t, cc);
  rack.add_compute_brick(t, cc);
  MemoryBrickConfig mc;
  mc.capacity_bytes = 16ull << 30;
  rack.add_memory_brick(t, mc);
  EXPECT_EQ(rack.total_compute_cores(), 8u);
  EXPECT_EQ(rack.total_pool_memory_bytes(), 16ull << 30);
}

TEST(RackTest, RemoveBrickChecksState) {
  Rack rack;
  const TrayId t = rack.add_tray();
  auto& cb = rack.add_compute_brick(t);
  const BrickId id = cb.id();  // cb dies with remove_brick below
  cb.reserve_cores(1);
  EXPECT_THROW(rack.remove_brick(id), std::logic_error);
  cb.release_cores(1);
  EXPECT_NO_THROW(rack.remove_brick(id));
  EXPECT_FALSE(rack.has_brick(id));
  EXPECT_THROW(rack.brick(id), std::out_of_range);
  EXPECT_THROW(rack.remove_brick(id), std::out_of_range);
  EXPECT_EQ(rack.brick_count(), 0u);
}

TEST(RackTest, EnumerationSkipsRemovedBricksAndIdsAreNotReused) {
  Rack rack;
  const TrayId t = rack.add_tray();
  const BrickId c1 = rack.add_compute_brick(t).id();
  const BrickId m2 = rack.add_memory_brick(t).id();
  const BrickId c3 = rack.add_compute_brick(t).id();
  rack.remove_brick(c1);
  EXPECT_EQ(rack.all_bricks(), (std::vector<BrickId>{m2, c3}));
  EXPECT_EQ(rack.bricks_of_kind(BrickKind::kCompute), (std::vector<BrickId>{c3}));
  EXPECT_EQ(rack.brick_count(), 2u);
  const BrickId c4 = rack.add_compute_brick(t).id();
  EXPECT_GT(c4, c3);
  EXPECT_EQ(rack.all_bricks(), (std::vector<BrickId>{m2, c3, c4}));
  EXPECT_THROW(rack.compute_brick(c1), std::out_of_range);
  EXPECT_THROW(rack.brick(BrickId{}), std::out_of_range);
}

TEST(RackTest, RemoveMemoryBrickWithSegmentsRejected) {
  Rack rack;
  const TrayId t = rack.add_tray();
  auto& mb = rack.add_memory_brick(t);
  auto seg = mb.allocate(1ull << 30, BrickId{1});
  ASSERT_TRUE(seg);
  EXPECT_THROW(rack.remove_brick(mb.id()), std::logic_error);
  mb.release(seg->id);
  EXPECT_NO_THROW(rack.remove_brick(mb.id()));
}

TEST(RackTest, RemoveBrickWithConnectedPortRejected) {
  Rack rack;
  const TrayId t = rack.add_tray();
  auto& cb = rack.add_compute_brick(t);
  cb.port(0).connected = true;
  EXPECT_THROW(rack.remove_brick(cb.id()), std::logic_error);
}

TEST(RackTest, PowerDrawFollowsStates) {
  Rack rack;
  const TrayId t = rack.add_tray();
  auto& cb = rack.add_compute_brick(t);
  auto& mb = rack.add_memory_brick(t);
  PowerModel pm;
  // Both idle.
  EXPECT_DOUBLE_EQ(rack.power_draw_watts(pm),
                   pm.compute_brick_idle_w + pm.memory_brick_idle_w);
  // Compute active.
  cb.reserve_cores(1);
  EXPECT_DOUBLE_EQ(rack.power_draw_watts(pm),
                   pm.compute_brick_active_w + pm.memory_brick_idle_w);
  // Memory brick powered off.
  mb.power_off();
  EXPECT_DOUBLE_EQ(rack.power_draw_watts(pm), pm.compute_brick_active_w);
  // Switch ports add 100 mW each.
  EXPECT_DOUBLE_EQ(rack.power_draw_watts(pm, 10),
                   pm.compute_brick_active_w + 10 * pm.optical_switch_port_w);
}

TEST(RackTest, DescribeSummarizesInventory) {
  Rack rack;
  const TrayId t = rack.add_tray();
  rack.add_compute_brick(t);
  rack.add_memory_brick(t);
  const std::string d = rack.describe();
  EXPECT_NE(d.find("1 dCOMPUBRICKs"), std::string::npos);
  EXPECT_NE(d.find("1 dMEMBRICKs"), std::string::npos);
}

}  // namespace
}  // namespace dredbox::hw
