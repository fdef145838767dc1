#include "net/packet_network.hpp"

#include <gtest/gtest.h>

namespace dredbox::net {
namespace {

using sim::Time;

constexpr hw::BrickId kCpu{1};
constexpr hw::BrickId kMem{2};

PacketNetwork make_network(sim::Telemetry& telemetry, optics::FecModel fec = optics::FecModel{}) {
  PacketNetwork net{telemetry, PacketPathLatencies{}, fec};
  net.add_brick(kCpu);
  net.add_brick(kMem);
  net.connect(kCpu, kMem, 10.0);
  return net;
}

TEST(PacketNetworkTest, RemoteReadRoundTripAccounting) {
  sim::Telemetry telemetry;
  auto net = make_network(telemetry);
  const Packet pkt = net.remote_read(kCpu, kMem, 0x1000, 64, Time::zero());
  EXPECT_EQ(pkt.type, PacketType::kMemReadResp);
  // Breakdown total must equal the end-to-end latency.
  EXPECT_EQ(pkt.breakdown.total(), pkt.latency());
  EXPECT_GT(pkt.latency(), Time::zero());
}

TEST(PacketNetworkTest, BreakdownContainsFig8Components) {
  sim::Telemetry telemetry;
  auto net = make_network(telemetry);
  const Packet pkt = net.remote_read(kCpu, kMem, 0x1000, 64, Time::zero());
  EXPECT_TRUE(pkt.breakdown.has(sim::component("TGL / NI injection")));
  EXPECT_TRUE(pkt.breakdown.has(sim::component("on-brick switch (dCOMPUBRICK)")));
  EXPECT_TRUE(pkt.breakdown.has(sim::component("on-brick switch (dMEMBRICK)")));
  EXPECT_TRUE(pkt.breakdown.has(sim::component("MAC/PHY (dCOMPUBRICK)")));
  EXPECT_TRUE(pkt.breakdown.has(sim::component("MAC/PHY (dMEMBRICK)")));
  EXPECT_TRUE(pkt.breakdown.has(sim::component("optical propagation")));
  EXPECT_TRUE(pkt.breakdown.has(sim::component("glue logic (dMEMBRICK)")));
  EXPECT_TRUE(pkt.breakdown.has(sim::component("memory access")));
  EXPECT_FALSE(pkt.breakdown.has(sim::component("FEC encode/decode")));  // FEC-free mainline
}

TEST(PacketNetworkTest, RoundTripLatencyInExpectedRange) {
  // The prototype's packet-path round trip sits in the ~1 microsecond
  // regime (Fig. 8 is a sub-microsecond to low-microsecond breakdown).
  sim::Telemetry telemetry;
  auto net = make_network(telemetry);
  const Packet pkt = net.remote_read(kCpu, kMem, 0x1000, 64, Time::zero());
  EXPECT_GT(pkt.latency(), Time::ns(500));
  EXPECT_LT(pkt.latency(), Time::us(3));
}

TEST(PacketNetworkTest, MacPhyDominatesPropagationInRack) {
  sim::Telemetry telemetry;
  auto net = make_network(telemetry);
  const Packet pkt = net.remote_read(kCpu, kMem, 0x1000, 64, Time::zero());
  const Time mac_phy = pkt.breakdown.of(sim::component("MAC/PHY (dCOMPUBRICK)")) +
                       pkt.breakdown.of(sim::component("MAC/PHY (dMEMBRICK)"));
  EXPECT_GT(mac_phy, pkt.breakdown.of(sim::component("optical propagation")));
}

TEST(PacketNetworkTest, WriteCarriesPayloadOutbound) {
  sim::Telemetry telemetry;
  auto net = make_network(telemetry);
  const Packet rd = net.remote_read(kCpu, kMem, 0x0, 4096, Time::zero());
  const Packet wr = net.remote_write(kCpu, kMem, 0x0, 4096, Time::zero());
  // Both move the same bytes once, so serialization matches.
  constexpr sim::ComponentId kSerialization = sim::component("serialization");
  EXPECT_EQ(rd.breakdown.of(kSerialization), wr.breakdown.of(kSerialization));
  EXPECT_EQ(wr.type, PacketType::kMemWriteAck);
}

TEST(PacketNetworkTest, LargerPayloadsTakeLonger) {
  sim::Telemetry telemetry;
  auto net = make_network(telemetry);
  const Packet small = net.remote_read(kCpu, kMem, 0x0, 64, Time::zero());
  const Packet big = net.remote_read(kCpu, kMem, 0x0, 4096, Time::us(100));
  EXPECT_GT(big.latency(), small.latency());
}

TEST(PacketNetworkTest, HmcFasterThanDdr) {
  sim::Telemetry telemetry;
  auto net = make_network(telemetry);
  const Packet ddr =
      net.remote_read(kCpu, kMem, 0x0, 64, Time::zero(), hw::MemoryTechnology::kDdr4);
  const Packet hmc =
      net.remote_read(kCpu, kMem, 0x0, 64, Time::ms(1), hw::MemoryTechnology::kHmc);
  constexpr sim::ComponentId kMemoryAccess = sim::component("memory access");
  EXPECT_LT(hmc.breakdown.of(kMemoryAccess), ddr.breakdown.of(kMemoryAccess));
}

TEST(PacketNetworkTest, FecAddsLatencyOnBothTraversals) {
  sim::Telemetry telemetry;
  auto plain = make_network(telemetry);
  auto fec = make_network(telemetry, optics::FecModel{optics::FecScheme::kRsLight});
  const Packet p0 = plain.remote_read(kCpu, kMem, 0x0, 64, Time::zero());
  const Packet p1 = fec.remote_read(kCpu, kMem, 0x0, 64, Time::zero());
  EXPECT_TRUE(p1.breakdown.has(sim::component("FEC encode/decode")));
  // One FEC charge per direction.
  EXPECT_EQ(p1.breakdown.of(sim::component("FEC encode/decode")), sim::Time::ns(240));
  EXPECT_GT(p1.latency(), p0.latency() + Time::ns(200));
}

TEST(PacketNetworkTest, FartherBricksHaveMorePropagation) {
  sim::Telemetry telemetry;
  PacketNetwork net{telemetry};
  net.add_brick(kCpu);
  net.add_brick(kMem);
  net.connect(kCpu, kMem, 100.0);
  const Packet far = net.remote_read(kCpu, kMem, 0x0, 64, Time::zero());
  // 100 m at 5 ns/m, twice (request + response) = 1000 ns.
  EXPECT_EQ(far.breakdown.of(sim::component("optical propagation")), Time::ns(1000));
}

TEST(PacketNetworkTest, UnconnectedPairThrows) {
  sim::Telemetry telemetry;
  PacketNetwork net{telemetry};
  net.add_brick(kCpu);
  net.add_brick(kMem);
  EXPECT_THROW(net.remote_read(kCpu, kMem, 0x0, 64, Time::zero()), std::logic_error);
}

TEST(PacketNetworkTest, DuplicateBrickRejected) {
  sim::Telemetry telemetry;
  PacketNetwork net{telemetry};
  net.add_brick(kCpu);
  EXPECT_THROW(net.add_brick(kCpu), std::logic_error);
}

TEST(PacketNetworkTest, BackToBackRequestsQueueAtTheSwitch) {
  sim::Telemetry telemetry;
  auto net = make_network(telemetry);
  const Packet a = net.remote_read(kCpu, kMem, 0x0, 4096, Time::zero());
  const Packet b = net.remote_read(kCpu, kMem, 0x0, 4096, Time::zero());
  EXPECT_GT(b.latency(), a.latency());  // queued behind a's response bytes
}

TEST(PacketNetworkTest, PacketIdsIncrement) {
  sim::Telemetry telemetry;
  auto net = make_network(telemetry);
  const Packet a = net.remote_read(kCpu, kMem, 0x0, 64, Time::zero());
  const Packet b = net.remote_write(kCpu, kMem, 0x0, 64, Time::zero());
  EXPECT_EQ(b.id, a.id + 1);
  EXPECT_EQ(net.packets_sent(), 2u);
}

}  // namespace
}  // namespace dredbox::net
