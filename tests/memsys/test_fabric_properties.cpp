#include <gtest/gtest.h>

#include "memsys/remote_memory.hpp"
#include "sim/random.hpp"

namespace dredbox::memsys {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

/// Property suite: after ANY interleaving of attach/detach/read across
/// multiple bricks and media, the fabric's bookkeeping stays consistent:
/// no leaked switch ports, no leaked brick ports, segment bytes match
/// attachment bytes, and every attachment remains readable.
class FabricPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  FabricPropertyTest() : circuits_{switch_, telemetry_}, fabric_{rack_, circuits_, telemetry_} {
    // Two trays, two compute bricks (one per tray), three memory bricks
    // spread so both electrical and optical media occur.
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    computes_.push_back(rack_.add_compute_brick(tray_a).id());
    computes_.push_back(rack_.add_compute_brick(tray_b).id());
    hw::MemoryBrickConfig mc;
    mc.capacity_bytes = 8 * kGiB;
    membricks_.push_back(rack_.add_memory_brick(tray_a, mc).id());
    membricks_.push_back(rack_.add_memory_brick(tray_b, mc).id());
    membricks_.push_back(rack_.add_memory_brick(tray_b, mc).id());
  }

  void check_invariants() {
    // (1) Segment bytes on membricks == sum of attachment sizes.
    std::uint64_t attachment_bytes = 0;
    for (hw::BrickId cb : computes_) attachment_bytes += fabric_.attached_bytes(cb);
    std::uint64_t segment_bytes = 0;
    for (hw::BrickId mb : membricks_) {
      segment_bytes += rack_.memory_brick(mb).allocated_bytes();
    }
    ASSERT_EQ(attachment_bytes, segment_bytes);

    // (2) Optical switch ports in use == 2 x live optical circuits.
    ASSERT_EQ(switch_.ports_in_use(), 2 * circuits_.active_circuits());

    // (3) RMST entries mirror attachments per compute brick.
    for (hw::BrickId cb : computes_) {
      ASSERT_EQ(rack_.compute_brick(cb).tgl().rmst().size(),
                fabric_.attachments_of(cb).size());
    }

    // (4) Every live attachment is readable end to end.
    for (hw::BrickId cb : computes_) {
      for (const auto& a : fabric_.attachments_of(cb)) {
        const auto tx = fabric_.read(cb, a.compute_base, 64, clock_);
        ASSERT_TRUE(tx.ok()) << to_string(tx.status);
        clock_ += Time::us(10);
      }
    }
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  RemoteMemoryFabric fabric_;
  std::vector<hw::BrickId> computes_;
  std::vector<hw::BrickId> membricks_;
  Time clock_ = Time::zero();
};

TEST_P(FabricPropertyTest, RandomInterleavingPreservesInvariants) {
  sim::Rng rng{GetParam()};
  struct Live {
    hw::BrickId compute;
    hw::SegmentId segment;
  };
  std::vector<Live> live;

  for (int step = 0; step < 200; ++step) {
    clock_ += Time::ms(1);
    if (live.empty() || rng.chance(0.55)) {
      AttachRequest req;
      req.compute = computes_[static_cast<std::size_t>(rng.uniform_int(0, 1))];
      req.membrick = membricks_[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      req.bytes = (1ull << 28) << rng.uniform_int(0, 3);  // 256 MiB..2 GiB
      auto a = fabric_.attach(req, clock_);
      if (a) live.push_back(Live{a->compute, a->segment});
      // Failure is legal (capacity/ports); invariants must hold anyway.
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      ASSERT_TRUE(fabric_.detach(live[idx].compute, live[idx].segment));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
    if (step % 20 == 0) check_invariants();
  }

  // Drain everything: the fabric must return to a pristine state.
  for (const auto& l : live) ASSERT_TRUE(fabric_.detach(l.compute, l.segment));
  ASSERT_EQ(fabric_.attachment_count(), 0u);
  ASSERT_EQ(switch_.ports_in_use(), 0u);
  ASSERT_EQ(fabric_.electrical_links(), 0u);
  for (hw::BrickId cb : computes_) {
    ASSERT_EQ(rack_.brick(cb).free_port_count(true), rack_.brick(cb).port_count());
  }
  for (hw::BrickId mb : membricks_) {
    ASSERT_EQ(rack_.memory_brick(mb).allocated_bytes(), 0u);
    ASSERT_EQ(rack_.brick(mb).free_port_count(true), rack_.brick(mb).port_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricPropertyTest,
                         ::testing::Values(11u, 23u, 47u, 83u, 131u, 211u));

/// Property: migration round trips — migrating a segment away and back
/// restores an equivalent state.
TEST_P(FabricPropertyTest, MigrationRoundTrip) {
  sim::Rng rng{GetParam() ^ 0xABCDEF};
  AttachRequest req;
  req.compute = computes_[0];
  req.membrick = membricks_[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  req.bytes = 1 * kGiB;
  auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);

  auto there = fabric_.migrate_attachment(a->segment, computes_[0], computes_[1], Time::sec(1));
  ASSERT_TRUE(there.has_value());
  ASSERT_EQ(there->attachment.compute, computes_[1]);
  const auto tx1 = fabric_.read(computes_[1], there->attachment.compute_base, 64, Time::sec(2));
  ASSERT_TRUE(tx1.ok());

  auto back = fabric_.migrate_attachment(a->segment, computes_[1], computes_[0], Time::sec(3));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->attachment.compute, computes_[0]);
  const auto tx2 = fabric_.read(computes_[0], back->attachment.compute_base, 64, Time::sec(4));
  ASSERT_TRUE(tx2.ok());

  // Same medium class as the original (tray topology unchanged) and no
  // leaked circuits.
  ASSERT_EQ(back->attachment.medium, a->medium);
  ASSERT_TRUE(fabric_.detach(computes_[0], a->segment));
  ASSERT_EQ(switch_.ports_in_use(), 0u);
  ASSERT_EQ(fabric_.electrical_links(), 0u);
}

}  // namespace
}  // namespace dredbox::memsys
