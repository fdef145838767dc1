#include <gtest/gtest.h>

#include "memsys/remote_memory.hpp"
#include "net/packet_network.hpp"

namespace dredbox::memsys {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

/// Cross-tray pair with a tiny optical switch so circuit ports exhaust
/// quickly, plus a packet network registered for the fallback.
class PacketFallbackTest : public ::testing::Test {
 protected:
  PacketFallbackTest()
      : switch_{tiny_switch()},
        circuits_{switch_, telemetry_},
        fabric_{rack_, circuits_, telemetry_},
        packet_net_{telemetry_} {
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    compute_ = rack_.add_compute_brick(tray_a).id();
    membrick_a_ = rack_.add_memory_brick(tray_b).id();
    membrick_b_ = rack_.add_memory_brick(tray_b).id();
    packet_net_.add_brick(compute_);
    packet_net_.add_brick(membrick_a_);
    packet_net_.add_brick(membrick_b_);
    fabric_.set_packet_network(&packet_net_);
  }

  static optics::OpticalSwitchConfig tiny_switch() {
    optics::OpticalSwitchConfig cfg;
    cfg.ports = 2;  // room for exactly one circuit
    return cfg;
  }

  AttachRequest request(hw::BrickId membrick, bool fallback = true) {
    AttachRequest req;
    req.compute = compute_;
    req.membrick = membrick;
    req.bytes = kGiB;
    req.allow_packet_fallback = fallback;
    return req;
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  RemoteMemoryFabric fabric_;
  net::PacketNetwork packet_net_;
  hw::BrickId compute_;
  hw::BrickId membrick_a_;
  hw::BrickId membrick_b_;
};

TEST_F(PacketFallbackTest, FallsBackWhenSwitchExhausted) {
  // First attach takes the only circuit.
  auto a = fabric_.attach(request(membrick_a_), Time::zero());
  ASSERT_TRUE(a);
  EXPECT_EQ(a->medium, LinkMedium::kOptical);
  EXPECT_EQ(switch_.free_ports(), 0u);

  // Second pair cannot get a circuit: packet substrate takes over.
  auto b = fabric_.attach(request(membrick_b_), Time::zero());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->medium, LinkMedium::kPacket);
  EXPECT_EQ(fabric_.packet_links(), 1u);
  // No circuit-facing brick ports were burned for the packet attachment.
  EXPECT_EQ(rack_.brick(membrick_b_).free_port_count(true), 8u);
}

TEST_F(PacketFallbackTest, NoFallbackWithoutOptIn) {
  ASSERT_TRUE(fabric_.attach(request(membrick_a_), Time::zero()));
  auto b = fabric_.attach(request(membrick_b_, /*fallback=*/false), Time::zero());
  EXPECT_FALSE(b.has_value());
  EXPECT_EQ(fabric_.last_error(), AttachError::kNoSwitchPorts);
}

TEST_F(PacketFallbackTest, NoFallbackWithoutNetwork) {
  fabric_.set_packet_network(nullptr);
  ASSERT_TRUE(fabric_.attach(request(membrick_a_), Time::zero()));
  EXPECT_FALSE(fabric_.attach(request(membrick_b_), Time::zero()).has_value());
}

TEST_F(PacketFallbackTest, PacketReadWorksButIsSlower) {
  auto optical = fabric_.attach(request(membrick_a_), Time::zero());
  auto packet = fabric_.attach(request(membrick_b_), Time::zero());
  ASSERT_TRUE(optical && packet);
  ASSERT_EQ(packet->medium, LinkMedium::kPacket);

  const Transaction opt_tx = fabric_.read(compute_, optical->compute_base, 64, Time::zero());
  const Transaction pkt_tx = fabric_.read(compute_, packet->compute_base, 64, Time::ms(1));
  ASSERT_TRUE(opt_tx.ok());
  ASSERT_TRUE(pkt_tx.ok());
  // The packet path carries MAC/PHY overheads the circuit avoids.
  EXPECT_TRUE(pkt_tx.breakdown.has(sim::component("MAC/PHY (dCOMPUBRICK)")));
  EXPECT_FALSE(opt_tx.breakdown.has(sim::component("MAC/PHY (dCOMPUBRICK)")));
  EXPECT_GT(pkt_tx.round_trip(), opt_tx.round_trip());
}

TEST_F(PacketFallbackTest, PacketWriteRoundTrips) {
  ASSERT_TRUE(fabric_.attach(request(membrick_a_), Time::zero()));
  auto packet = fabric_.attach(request(membrick_b_), Time::zero());
  ASSERT_TRUE(packet);
  const Transaction tx = fabric_.write(compute_, packet->compute_base, 256, Time::zero());
  EXPECT_TRUE(tx.ok());
  EXPECT_EQ(tx.destination, membrick_b_);
  EXPECT_GT(tx.round_trip(), Time::zero());
}

TEST_F(PacketFallbackTest, HeldRouteOnAFallbackAttachmentPricesAsTheWalk) {
  ASSERT_TRUE(fabric_.attach(request(membrick_a_), Time::zero()));
  auto packet = fabric_.attach(request(membrick_b_), Time::zero());
  ASSERT_TRUE(packet);
  ASSERT_EQ(packet->medium, LinkMedium::kPacket);
  // Each held op and its walked twin start on an idle substrate, 1 ms
  // apart, so their round trips must agree.
  RemoteMemoryFabric::HeldRoute held;
  for (int i = 0; i < 4; ++i) {
    const auto kind = i % 2 == 0 ? TransactionKind::kRead : TransactionKind::kWrite;
    const std::uint64_t address = packet->compute_base + 4096 * static_cast<std::uint64_t>(i);
    const Time at = Time::ms(2 * i);
    const auto op = fabric_.transact(held, kind, compute_, address, 64, at);
    const Transaction walked = kind == TransactionKind::kRead
                                   ? fabric_.read(compute_, address, 64, at + Time::ms(1))
                                   : fabric_.write(compute_, address, 64, at + Time::ms(1));
    ASSERT_TRUE(op.ok());
    ASSERT_TRUE(walked.ok());
    EXPECT_EQ(op.completed_at - at, walked.round_trip()) << "op " << i;
  }
}

TEST_F(PacketFallbackTest, SecondSegmentSharesPacketLink) {
  ASSERT_TRUE(fabric_.attach(request(membrick_a_), Time::zero()));
  auto p1 = fabric_.attach(request(membrick_b_), Time::zero());
  auto p2 = fabric_.attach(request(membrick_b_), Time::zero());
  ASSERT_TRUE(p1 && p2);
  EXPECT_EQ(p1->circuit, p2->circuit);
  EXPECT_EQ(fabric_.packet_links(), 1u);
}

TEST_F(PacketFallbackTest, DetachReleasesPacketLink) {
  ASSERT_TRUE(fabric_.attach(request(membrick_a_), Time::zero()));
  auto p = fabric_.attach(request(membrick_b_), Time::zero());
  ASSERT_TRUE(p);
  EXPECT_TRUE(fabric_.detach(compute_, p->segment));
  EXPECT_EQ(fabric_.packet_links(), 0u);
  EXPECT_EQ(rack_.memory_brick(membrick_b_).allocated_bytes(), 0u);
}

TEST_F(PacketFallbackTest, MixedMediaCoexist) {
  auto optical = fabric_.attach(request(membrick_a_), Time::zero());
  auto packet = fabric_.attach(request(membrick_b_), Time::zero());
  ASSERT_TRUE(optical && packet);
  EXPECT_EQ(fabric_.attachment_count(), 2u);
  // Detaching the optical one leaves the packet path alive.
  fabric_.detach(compute_, optical->segment);
  const Transaction tx = fabric_.read(compute_, packet->compute_base, 64, Time::sec(1));
  EXPECT_TRUE(tx.ok());
}

TEST_F(PacketFallbackTest, FailoverMovesTheWholePairLink) {
  // Two segments share the pair's optical circuit; failing one over moves
  // the link, so both ride the packet substrate and the circuit is freed.
  auto a1 = fabric_.attach(request(membrick_a_), Time::zero());
  auto a2 = fabric_.attach(request(membrick_a_), Time::zero());
  ASSERT_TRUE(a1 && a2);
  ASSERT_EQ(switch_.free_ports(), 0u);

  auto moved = fabric_.failover_to_packet(compute_, a1->segment, Time::ms(1));
  ASSERT_TRUE(moved);
  EXPECT_EQ(moved->medium, LinkMedium::kPacket);
  for (const auto& a : fabric_.attachments_of(compute_)) {
    EXPECT_EQ(a.medium, LinkMedium::kPacket);
    EXPECT_EQ(a.circuit, moved->circuit);
  }
  EXPECT_EQ(fabric_.packet_links(), 1u);
  EXPECT_EQ(switch_.free_ports(), 2u);
  EXPECT_EQ(rack_.brick(compute_).free_port_count(true), 8u);
  EXPECT_TRUE(fabric_.read(compute_, a2->compute_base, 64, Time::ms(2)).ok());
  fabric_.check_invariants();
}

}  // namespace
}  // namespace dredbox::memsys
