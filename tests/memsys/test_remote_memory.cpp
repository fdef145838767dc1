#include "memsys/remote_memory.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/packet_network.hpp"

namespace dredbox::memsys {
namespace {

using sim::Time;

class RemoteMemoryTest : public ::testing::Test {
 protected:
  RemoteMemoryTest() : circuits_{switch_, telemetry_}, fabric_{rack_, circuits_, telemetry_} {
    // Compute and memory bricks on *different* trays: these tests exercise
    // the cross-tray optical path. Intra-tray electrical behaviour has its
    // own suite below.
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    compute_ = rack_.add_compute_brick(tray_a).id();
    hw::MemoryBrickConfig mc;
    mc.capacity_bytes = 16ull << 30;
    membrick_ = rack_.add_memory_brick(tray_b, mc).id();
  }

  AttachRequest request(std::uint64_t bytes = 1ull << 30) {
    AttachRequest req;
    req.compute = compute_;
    req.membrick = membrick_;
    req.bytes = bytes;
    return req;
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  RemoteMemoryFabric fabric_;
  hw::BrickId compute_;
  hw::BrickId membrick_;
};

TEST_F(RemoteMemoryTest, AttachWiresEverything) {
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->compute, compute_);
  EXPECT_EQ(a->membrick, membrick_);
  EXPECT_EQ(a->size, 1ull << 30);
  // RMST entry installed on the compute brick.
  const auto& rmst = rack_.compute_brick(compute_).tgl().rmst();
  EXPECT_EQ(rmst.size(), 1u);
  // Segment carved on the memory brick.
  EXPECT_EQ(rack_.memory_brick(membrick_).allocated_bytes(), 1ull << 30);
  // Circuit live on the optical switch.
  EXPECT_EQ(switch_.ports_in_use(), 2u);
  // Brick ports marked connected.
  EXPECT_EQ(rack_.brick(compute_).free_port_count(true), 7u);
  EXPECT_EQ(rack_.brick(membrick_).free_port_count(true), 7u);
}

TEST_F(RemoteMemoryTest, SecondAttachmentReusesCircuit) {
  auto a1 = fabric_.attach(request(), Time::zero());
  auto a2 = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a1 && a2);
  EXPECT_EQ(a1->circuit, a2->circuit);
  EXPECT_EQ(switch_.ports_in_use(), 2u);  // still one circuit
  EXPECT_EQ(fabric_.attached_bytes(compute_), 2ull << 30);
}

TEST_F(RemoteMemoryTest, WindowsDoNotOverlap) {
  auto a1 = fabric_.attach(request(2ull << 30), Time::zero());
  auto a2 = fabric_.attach(request(1ull << 30), Time::zero());
  ASSERT_TRUE(a1 && a2);
  const bool disjoint = a1->compute_base + a1->size <= a2->compute_base ||
                        a2->compute_base + a2->size <= a1->compute_base;
  EXPECT_TRUE(disjoint);
}

TEST_F(RemoteMemoryTest, AttachFailsWhenMemoryExhausted) {
  ASSERT_TRUE(fabric_.attach(request(16ull << 30), Time::zero()));
  EXPECT_FALSE(fabric_.attach(request(1ull << 30), Time::zero()));
  EXPECT_EQ(fabric_.last_error(), AttachError::kNoMemory);
}

TEST_F(RemoteMemoryTest, AttachFailsWhenSwitchExhausted) {
  // Consume every switch port with unrelated circuits.
  for (std::size_t p = 0; p < switch_.port_count(); p += 2) switch_.connect(p, p + 1);
  EXPECT_FALSE(fabric_.attach(request(), Time::zero()));
  EXPECT_EQ(fabric_.last_error(), AttachError::kNoSwitchPorts);
}

TEST_F(RemoteMemoryTest, AttachFailsWhenRmstFull) {
  // Fill the RMST with tiny attachments.
  const std::size_t cap = rack_.compute_brick(compute_).tgl().rmst().capacity();
  for (std::size_t i = 0; i < cap; ++i) {
    ASSERT_TRUE(fabric_.attach(request(1ull << 20), Time::zero()));
  }
  EXPECT_FALSE(fabric_.attach(request(1ull << 20), Time::zero()));
  EXPECT_EQ(fabric_.last_error(), AttachError::kRmstFull);
}

TEST_F(RemoteMemoryTest, DetachUnwindsState) {
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a);
  EXPECT_TRUE(fabric_.detach(compute_, a->segment));
  EXPECT_EQ(rack_.compute_brick(compute_).tgl().rmst().size(), 0u);
  EXPECT_EQ(rack_.memory_brick(membrick_).allocated_bytes(), 0u);
  EXPECT_EQ(switch_.ports_in_use(), 0u);  // last user tears the circuit down
  EXPECT_EQ(rack_.brick(compute_).free_port_count(true), 8u);
  EXPECT_FALSE(fabric_.detach(compute_, a->segment));
}

TEST_F(RemoteMemoryTest, DetachKeepsSharedCircuit) {
  auto a1 = fabric_.attach(request(), Time::zero());
  auto a2 = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a1 && a2);
  fabric_.detach(compute_, a1->segment);
  EXPECT_EQ(switch_.ports_in_use(), 2u);  // a2 still rides the circuit
  fabric_.detach(compute_, a2->segment);
  EXPECT_EQ(switch_.ports_in_use(), 0u);
}

TEST_F(RemoteMemoryTest, ReadTranslatesAndCompletes) {
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a);
  const Transaction tx = fabric_.read(compute_, a->compute_base + 0x123, 64, Time::zero());
  EXPECT_TRUE(tx.ok());
  EXPECT_EQ(tx.destination, membrick_);
  EXPECT_EQ(tx.remote_address, 0x123u);  // first segment starts at pool base 0
  EXPECT_GT(tx.round_trip(), Time::zero());
  EXPECT_EQ(tx.breakdown.total(), tx.round_trip());
}

TEST_F(RemoteMemoryTest, ReadBreakdownHasCircuitPathStages) {
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a);
  const Transaction tx = fabric_.read(compute_, a->compute_base, 64, Time::zero());
  EXPECT_TRUE(tx.breakdown.has(sim::component("TGL lookup (RMST)")));
  EXPECT_TRUE(tx.breakdown.has(sim::component("GTH serdes (TX)")));
  EXPECT_TRUE(tx.breakdown.has(sim::component("optical propagation")));
  EXPECT_TRUE(tx.breakdown.has(sim::component("glue logic (dMEMBRICK)")));
  EXPECT_TRUE(tx.breakdown.has(sim::component("memory access")));
  // No MAC framing on the circuit-switched mainline.
  EXPECT_FALSE(tx.breakdown.has(sim::component("MAC/PHY (dCOMPUBRICK)")));
}

TEST_F(RemoteMemoryTest, UnmappedAddressFaults) {
  const Transaction tx = fabric_.read(compute_, 0xDEAD0000, 64, Time::zero());
  EXPECT_FALSE(tx.ok());
  EXPECT_EQ(tx.status, TransactionStatus::kNoMapping);
}

TEST_F(RemoteMemoryTest, WriteAndReadSymmetry) {
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a);
  const Transaction rd = fabric_.read(compute_, a->compute_base, 256, Time::zero());
  const Transaction wr = fabric_.write(compute_, a->compute_base, 256, Time::ms(1));
  EXPECT_TRUE(rd.ok());
  EXPECT_TRUE(wr.ok());
  // Same payload each way: round trips match (no contention).
  EXPECT_EQ(rd.round_trip(), wr.round_trip());
}

TEST_F(RemoteMemoryTest, CircuitContentionSerializes) {
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a);
  const Transaction t1 = fabric_.write(compute_, a->compute_base, 65536, Time::zero());
  const Transaction t2 = fabric_.write(compute_, a->compute_base, 65536, Time::zero());
  EXPECT_GT(t2.round_trip(), t1.round_trip());
  EXPECT_GT(t2.breakdown.of(sim::component("circuit wait")), Time::zero());
}

TEST_F(RemoteMemoryTest, BondedLanesConsumePortsPerLane) {
  auto req = request();
  req.lanes = 4;
  auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);
  EXPECT_EQ(a->lanes, 4u);
  // 4 ports on each brick, 8 switch ports (2 per lane, 1 hop each).
  EXPECT_EQ(rack_.brick(compute_).free_port_count(true), 4u);
  EXPECT_EQ(rack_.brick(membrick_).free_port_count(true), 4u);
  EXPECT_EQ(switch_.ports_in_use(), 8u);
}

TEST_F(RemoteMemoryTest, BondedLanesSpeedUpLargeTransfers) {
  auto wide_req = request();
  wide_req.lanes = 4;
  auto wide = fabric_.attach(wide_req, Time::zero());
  ASSERT_TRUE(wide);

  // Independent single-lane fabric for the baseline.
  hw::Rack rack2;
  const hw::TrayId t1 = rack2.add_tray();
  const hw::TrayId t2 = rack2.add_tray();
  const hw::BrickId cpu2 = rack2.add_compute_brick(t1).id();
  const hw::BrickId mem2 = rack2.add_memory_brick(t2).id();
  optics::OpticalSwitch sw2;
  sim::Telemetry telemetry;
  optics::CircuitManager circuits2{sw2, telemetry};
  RemoteMemoryFabric fabric2{rack2, circuits2, telemetry};
  AttachRequest narrow_req;
  narrow_req.compute = cpu2;
  narrow_req.membrick = mem2;
  auto narrow = fabric2.attach(narrow_req, Time::zero());
  ASSERT_TRUE(narrow);

  const auto wide_tx = fabric_.read(compute_, wide->compute_base, 16384, Time::zero());
  const auto narrow_tx = fabric2.read(cpu2, narrow->compute_base, 16384, Time::zero());
  ASSERT_TRUE(wide_tx.ok() && narrow_tx.ok());
  // 16 KiB at 10 Gb/s: ~13.1 us single lane vs ~3.3 us over 4 lanes.
  EXPECT_LT(wide_tx.round_trip(), sim::scale(narrow_tx.round_trip(), 0.5));
}

TEST_F(RemoteMemoryTest, BondTearsDownAllLanes) {
  auto req = request();
  req.lanes = 3;
  auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);
  EXPECT_EQ(switch_.ports_in_use(), 6u);
  EXPECT_TRUE(fabric_.detach(compute_, a->segment));
  EXPECT_EQ(switch_.ports_in_use(), 0u);
  EXPECT_EQ(rack_.brick(compute_).free_port_count(true), 8u);
  EXPECT_EQ(rack_.brick(membrick_).free_port_count(true), 8u);
}

TEST_F(RemoteMemoryTest, BondRejectedWhenPortsShort) {
  auto req = request();
  req.lanes = 9;  // bricks only have 8 transceivers
  EXPECT_FALSE(fabric_.attach(req, Time::zero()).has_value());
  EXPECT_EQ(fabric_.last_error(), AttachError::kNoComputePort);
  // Nothing leaked.
  EXPECT_EQ(rack_.brick(compute_).free_port_count(true), 8u);
  EXPECT_EQ(switch_.ports_in_use(), 0u);
}

TEST_F(RemoteMemoryTest, BondRejectedWhenSwitchShort) {
  optics::OpticalSwitchConfig tiny;
  tiny.ports = 4;
  optics::OpticalSwitch small_switch{tiny};
  sim::Telemetry telemetry;
  optics::CircuitManager small_circuits{small_switch, telemetry};
  RemoteMemoryFabric fabric{rack_, small_circuits, telemetry};
  auto req = request();
  req.lanes = 4;  // needs 8 switch ports, only 4 exist
  EXPECT_FALSE(fabric.attach(req, Time::zero()).has_value());
  EXPECT_EQ(fabric.last_error(), AttachError::kNoSwitchPorts);
  EXPECT_EQ(small_switch.ports_in_use(), 0u);
  EXPECT_EQ(rack_.brick(compute_).free_port_count(true), 8u);
}

TEST_F(RemoteMemoryTest, SecondAttachmentInheritsBondLanes) {
  auto req = request();
  req.lanes = 2;
  auto a1 = fabric_.attach(req, Time::zero());
  auto single = request();  // lanes = 1, but the pair link already exists
  auto a2 = fabric_.attach(single, Time::zero());
  ASSERT_TRUE(a1 && a2);
  EXPECT_EQ(a2->lanes, 2u);
  EXPECT_EQ(a1->circuit, a2->circuit);
}

TEST_F(RemoteMemoryTest, MemoryControllerContention) {
  // Two compute bricks hammering one single-controller dMEMBRICK collide
  // at the controller; dimensioning the brick with more controllers
  // (Section II) absorbs the concurrency.
  hw::Rack rack;
  const hw::TrayId tray_a = rack.add_tray();
  const hw::TrayId tray_b = rack.add_tray();
  const hw::BrickId cpu1 = rack.add_compute_brick(tray_a).id();
  const hw::BrickId cpu2 = rack.add_compute_brick(tray_a).id();
  hw::MemoryBrickConfig one_mc;
  one_mc.memory_controllers = 1;
  const hw::BrickId mem1 = rack.add_memory_brick(tray_b, one_mc).id();
  hw::MemoryBrickConfig four_mc;
  four_mc.memory_controllers = 4;
  const hw::BrickId mem4 = rack.add_memory_brick(tray_b, four_mc).id();

  optics::OpticalSwitch sw;
  sim::Telemetry telemetry;
  optics::CircuitManager circuits{sw, telemetry};
  RemoteMemoryFabric fabric{rack, circuits, telemetry};

  auto attach = [&](hw::BrickId cpu, hw::BrickId mem) {
    AttachRequest req;
    req.compute = cpu;
    req.membrick = mem;
    req.bytes = 1ull << 30;
    auto a = fabric.attach(req, Time::zero());
    EXPECT_TRUE(a.has_value());
    return *a;
  };
  const auto a1 = attach(cpu1, mem1);
  const auto a2 = attach(cpu2, mem1);
  const auto b1 = attach(cpu1, mem4);
  const auto b2 = attach(cpu2, mem4);

  // Same instant, addresses in different 4 KiB pages. One controller:
  // the second read waits. Four controllers: both proceed in parallel.
  const auto r1 = fabric.read(cpu1, a1.compute_base, 64, Time::zero());
  const auto r2 = fabric.read(cpu2, a2.compute_base + 4096, 64, Time::zero());
  EXPECT_GT(r2.breakdown.of(sim::component("memory controller wait")), Time::zero());
  EXPECT_GT(r2.round_trip(), r1.round_trip());

  const auto q1 = fabric.read(cpu1, b1.compute_base, 64, Time::ms(1));
  const auto q2 = fabric.read(cpu2, b2.compute_base + 4096, 64, Time::ms(1));
  EXPECT_EQ(q2.breakdown.of(sim::component("memory controller wait")), Time::zero());
  EXPECT_EQ(q1.round_trip(), q2.round_trip());
}

TEST_F(RemoteMemoryTest, CircuitRoundTripBelowPacketPath) {
  // The whole point of circuit switching: minimize remote-access latency.
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a);
  const Transaction tx = fabric_.read(compute_, a->compute_base, 64, Time::zero());
  EXPECT_LT(tx.round_trip(), Time::us(1));
}

TEST_F(RemoteMemoryTest, AttachmentsOfListsPerBrick) {
  auto a1 = fabric_.attach(request(), Time::zero());
  auto a2 = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a1 && a2);
  EXPECT_EQ(fabric_.attachments_of(compute_).size(), 2u);
  EXPECT_TRUE(fabric_.attachments_of(membrick_).empty());
  EXPECT_EQ(fabric_.attachment_count(), 2u);
}

TEST_F(RemoteMemoryTest, CrossTrayAttachmentsAreOptical) {
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a);
  EXPECT_EQ(a->medium, LinkMedium::kOptical);
  EXPECT_EQ(fabric_.electrical_links(), 0u);
}

/// VM migration between two dCOMPUBRICKs on different trays, both
/// cross-tray from the serving dMEMBRICK: the re-pointed attachment gets a
/// fresh optical link and the source link must go away whole.
class MigrationLinkTest : public ::testing::Test {
 protected:
  MigrationLinkTest() : circuits_{switch_, telemetry_}, fabric_{rack_, circuits_, telemetry_} {
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_m = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    from_ = rack_.add_compute_brick(tray_a).id();
    membrick_ = rack_.add_memory_brick(tray_m).id();
    to_ = rack_.add_compute_brick(tray_b).id();
  }

  AttachRequest request() const {
    AttachRequest req;
    req.compute = from_;
    req.membrick = membrick_;
    return req;
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  RemoteMemoryFabric fabric_;
  hw::BrickId from_;
  hw::BrickId membrick_;
  hw::BrickId to_;
};

TEST_F(MigrationLinkTest, MigrateTearsEveryBondedLane) {
  auto req = request();
  req.lanes = 4;
  auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);
  ASSERT_EQ(switch_.ports_in_use(), 8u);

  auto moved = fabric_.migrate_attachment(a->segment, from_, to_, Time::ms(1));
  ASSERT_TRUE(moved);
  EXPECT_TRUE(moved->new_circuit);
  // Only the fresh one-lane circuit remains: the three sibling lanes of the
  // source bond are gone with their brick and switch ports.
  EXPECT_EQ(switch_.ports_in_use(), 2u);
  EXPECT_EQ(circuits_.active_circuits(), 1u);
  EXPECT_EQ(rack_.brick(membrick_).free_port_count(true), 7u);
  EXPECT_EQ(rack_.brick(from_).free_port_count(true), 8u);
  EXPECT_EQ(rack_.brick(to_).free_port_count(true), 7u);
  fabric_.check_invariants();
}

TEST_F(MigrationLinkTest, MigratedAttachmentCarriesItsNewLinkLanes) {
  auto req = request();
  req.lanes = 4;
  auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);

  auto moved = fabric_.migrate_attachment(a->segment, from_, to_, Time::ms(1));
  ASSERT_TRUE(moved);
  EXPECT_EQ(moved->attachment.lanes, 1u);
  EXPECT_EQ(fabric_.attachments_of(to_).front().lanes, 1u);

  // A single lane serializes the payload at one lane's rate: a 16 KiB read
  // must not look four times faster than the wire it rides.
  const auto tx = fabric_.read(to_, moved->attachment.compute_base, 16384, Time::ms(2));
  ASSERT_TRUE(tx.ok());
  const double lane_ns = (16384.0 + fabric_.latencies().framing_bytes) * 8.0 /
                         fabric_.latencies().line_rate_gbps;
  EXPECT_GE(tx.breakdown.of(sim::component("serialization")).as_ns(), lane_ns - 1.0);
  fabric_.check_invariants();
}

TEST_F(MigrationLinkTest, MigrationKeepsHopsAndFibre) {
  auto req = request();
  req.switch_hops = 2;
  req.fiber_length_m = 50.0;
  auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);

  auto moved = fabric_.migrate_attachment(a->segment, from_, to_, Time::ms(1));
  ASSERT_TRUE(moved);
  const optics::Circuit* circuit = circuits_.find(moved->attachment.circuit);
  ASSERT_NE(circuit, nullptr);
  EXPECT_EQ(circuit->hops, 2u);
  EXPECT_DOUBLE_EQ(circuit->fiber_length_m, 50.0);
  EXPECT_EQ(switch_.ports_in_use(), 4u);
  EXPECT_EQ(moved->attachment.switch_hops, 2u);
  EXPECT_DOUBLE_EQ(moved->attachment.fiber_length_m, 50.0);
  fabric_.check_invariants();
}

TEST_F(MigrationLinkTest, MigratingPacketRiderReleasesPacketLink) {
  net::PacketNetwork packet_net{telemetry_};
  packet_net.add_brick(from_);
  packet_net.add_brick(to_);
  packet_net.add_brick(membrick_);
  fabric_.set_packet_network(&packet_net);

  auto req = request();
  req.lanes = 9;  // more lanes than transceivers: falls back to packets
  req.allow_packet_fallback = true;
  auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);
  ASSERT_EQ(a->medium, LinkMedium::kPacket);
  ASSERT_EQ(fabric_.packet_links(), 1u);

  auto moved = fabric_.migrate_attachment(a->segment, from_, to_, Time::ms(1));
  ASSERT_TRUE(moved);
  EXPECT_EQ(moved->attachment.medium, LinkMedium::kOptical);
  EXPECT_EQ(fabric_.packet_links(), 0u);  // its last rider left
  fabric_.check_invariants();
}

/// Intra-tray pairs: both bricks in one tray ride the electrical circuit
/// (Section II) — no optical switch ports are consumed and the round trip
/// is shorter.
class IntraTrayMemoryTest : public ::testing::Test {
 protected:
  IntraTrayMemoryTest() : circuits_{switch_, telemetry_}, fabric_{rack_, circuits_, telemetry_} {
    const hw::TrayId tray = rack_.add_tray();
    compute_ = rack_.add_compute_brick(tray).id();
    hw::MemoryBrickConfig mc;
    mc.capacity_bytes = 16ull << 30;
    membrick_ = rack_.add_memory_brick(tray, mc).id();
  }

  AttachRequest request(std::uint64_t bytes = 1ull << 30) {
    AttachRequest req;
    req.compute = compute_;
    req.membrick = membrick_;
    req.bytes = bytes;
    return req;
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  RemoteMemoryFabric fabric_;
  hw::BrickId compute_;
  hw::BrickId membrick_;
};

TEST_F(IntraTrayMemoryTest, AttachUsesElectricalCircuit) {
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a);
  EXPECT_EQ(a->medium, LinkMedium::kElectrical);
  EXPECT_EQ(switch_.ports_in_use(), 0u);  // no optical switch involvement
  EXPECT_EQ(fabric_.electrical_links(), 1u);
  // Brick transceiver ports are still consumed (backplane lanes).
  EXPECT_EQ(rack_.brick(compute_).free_port_count(true), 7u);
  EXPECT_EQ(rack_.brick(membrick_).free_port_count(true), 7u);
}

TEST_F(IntraTrayMemoryTest, OpticalCanBeForced) {
  auto req = request();
  req.prefer_electrical_intra_tray = false;
  auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);
  EXPECT_EQ(a->medium, LinkMedium::kOptical);
  EXPECT_EQ(switch_.ports_in_use(), 2u);
}

TEST_F(IntraTrayMemoryTest, ElectricalReadFasterThanOptical) {
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a);
  const Transaction tx = fabric_.read(compute_, a->compute_base, 64, Time::zero());
  ASSERT_TRUE(tx.ok());
  EXPECT_TRUE(tx.breakdown.has(sim::component("electrical propagation")));
  EXPECT_FALSE(tx.breakdown.has(sim::component("optical propagation")));

  // Same shape over the optical path, forced, through an independent
  // fabric instance (the first pair already shares an electrical link, and
  // attachments between the same pair reuse the established circuit).
  RemoteMemoryFabric optical_fabric{rack_, circuits_, telemetry_};
  auto req2 = request();
  req2.prefer_electrical_intra_tray = false;
  auto b = optical_fabric.attach(req2, Time::zero());
  ASSERT_TRUE(b);
  const Transaction opt = optical_fabric.read(compute_, b->compute_base, 64, Time::ms(1));
  ASSERT_TRUE(opt.ok());
  EXPECT_LT(tx.round_trip(), opt.round_trip());
}

TEST_F(IntraTrayMemoryTest, DetachReleasesElectricalLink) {
  auto a = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a);
  EXPECT_TRUE(fabric_.detach(compute_, a->segment));
  EXPECT_EQ(fabric_.electrical_links(), 0u);
  EXPECT_EQ(rack_.brick(compute_).free_port_count(true), 8u);
  EXPECT_EQ(rack_.brick(membrick_).free_port_count(true), 8u);
}

TEST_F(IntraTrayMemoryTest, SecondSegmentSharesElectricalLink) {
  auto a1 = fabric_.attach(request(), Time::zero());
  auto a2 = fabric_.attach(request(), Time::zero());
  ASSERT_TRUE(a1 && a2);
  EXPECT_EQ(a1->circuit, a2->circuit);
  EXPECT_EQ(fabric_.electrical_links(), 1u);
  fabric_.detach(compute_, a1->segment);
  EXPECT_EQ(fabric_.electrical_links(), 1u);  // still used by a2
  fabric_.detach(compute_, a2->segment);
  EXPECT_EQ(fabric_.electrical_links(), 0u);
}

/// The Fig. 8 breakdown of every medium, pinned component by component:
/// labels, first-appearance order and exact tick values, plus the round
/// trip. One compute brick reaches three single-controller dMEMBRICKs:
/// one in its own tray (electrical), one across trays on the only optical
/// circuit, and one across trays through the packet fallback (the
/// two-port switch has no room for a second circuit). Each medium sees a
/// 4 KiB write and a word read issued at the same instant — the read
/// waits for the write's serialization on the link and for the write's
/// array access at the controller — then, 1 ms later on an idle path, a
/// 4 KiB read and a word write issued together. The expected strings were
/// recorded from the fabric before it charged each stage once per
/// transaction; any change to the walk must leave them unchanged.
class FabricBreakdownPinTest : public ::testing::Test {
 protected:
  FabricBreakdownPinTest()
      : switch_{two_port_switch()},
        circuits_{switch_, telemetry_},
        fabric_{rack_, circuits_, telemetry_},
        packet_net_{telemetry_} {
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    compute_ = rack_.add_compute_brick(tray_a).id();
    hw::MemoryBrickConfig mc;
    mc.capacity_bytes = 4ull << 30;
    mc.memory_controllers = 1;
    electrical_ = rack_.add_memory_brick(tray_a, mc).id();
    optical_ = rack_.add_memory_brick(tray_b, mc).id();
    packet_ = rack_.add_memory_brick(tray_b, mc).id();
    packet_net_.add_brick(compute_);
    packet_net_.add_brick(packet_);
    fabric_.set_packet_network(&packet_net_);
  }

  static optics::OpticalSwitchConfig two_port_switch() {
    optics::OpticalSwitchConfig cfg;
    cfg.ports = 2;
    return cfg;
  }

  std::uint64_t attach(hw::BrickId membrick, LinkMedium expected) {
    AttachRequest req;
    req.compute = compute_;
    req.membrick = membrick;
    req.bytes = 1ull << 30;
    req.allow_packet_fallback = true;
    const auto a = fabric_.attach(req, Time::zero());
    EXPECT_TRUE(a.has_value());
    EXPECT_EQ(a->medium, expected);
    return a->compute_base;
  }

  /// "label=ticks;..." in first-appearance order, then "rt=ticks".
  static std::string pin(const Transaction& tx) {
    std::string out;
    for (const auto& [label, amount] : tx.breakdown.components()) {
      out.append(label).append("=").append(std::to_string(amount.ticks())).append(";");
    }
    EXPECT_TRUE(tx.ok());
    return out + "rt=" + std::to_string(tx.round_trip().ticks());
  }

  /// The four transactions of one medium, in issue order.
  std::vector<std::string> run(std::uint64_t base) {
    const Time idle = Time::ms(1);
    std::vector<std::string> out;
    out.push_back(pin(fabric_.write(compute_, base, 4096, Time::zero())));
    out.push_back(pin(fabric_.read(compute_, base + 4096, 64, Time::zero())));
    out.push_back(pin(fabric_.read(compute_, base + 8192, 4096, idle)));
    out.push_back(pin(fabric_.write(compute_, base + 12288, 64, idle)));
    return out;
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  RemoteMemoryFabric fabric_;
  net::PacketNetwork packet_net_;
  hw::BrickId compute_;
  hw::BrickId electrical_;
  hw::BrickId optical_;
  hw::BrickId packet_;
};

TEST_F(FabricBreakdownPinTest, ElectricalBreakdownIsPinned) {
  const auto got = run(attach(electrical_, LinkMedium::kElectrical));
  const std::vector<std::string> expected = {
      "TGL lookup (RMST)=25000;circuit wait=0;serialization=2052000;"
      "GTH serdes (TX)=30000;electrical propagation=4000;GTH serdes (RX)=30000;"
      "glue logic (dMEMBRICK)=40000;memory controller wait=0;memory access=264800;"
      "GTH serdes (return)=60000;rt=2505800",
      "TGL lookup (RMST)=25000;circuit wait=2050000;serialization=36000;"
      "GTH serdes (TX)=30000;electrical propagation=4000;GTH serdes (RX)=30000;"
      "glue logic (dMEMBRICK)=40000;memory controller wait=262800;memory access=63200;"
      "GTH serdes (return)=60000;rt=2601000",
      "TGL lookup (RMST)=25000;circuit wait=0;serialization=2052000;"
      "GTH serdes (TX)=30000;electrical propagation=4000;GTH serdes (RX)=30000;"
      "glue logic (dMEMBRICK)=40000;memory controller wait=0;memory access=264800;"
      "GTH serdes (return)=60000;rt=2505800",
      "TGL lookup (RMST)=25000;circuit wait=2000;serialization=36000;"
      "GTH serdes (TX)=30000;electrical propagation=4000;GTH serdes (RX)=30000;"
      "glue logic (dMEMBRICK)=40000;memory controller wait=230800;memory access=63200;"
      "GTH serdes (return)=60000;rt=521000",
  };
  EXPECT_EQ(got, expected);
}

TEST_F(FabricBreakdownPinTest, OpticalBreakdownIsPinned) {
  const auto got = run(attach(optical_, LinkMedium::kOptical));
  const std::vector<std::string> expected = {
      "TGL lookup (RMST)=25000;circuit wait=0;serialization=3283200;"
      "GTH serdes (TX)=50000;optical propagation=100000;GTH serdes (RX)=50000;"
      "glue logic (dMEMBRICK)=40000;memory controller wait=0;memory access=264800;"
      "GTH serdes (return)=100000;rt=3913000",
      "TGL lookup (RMST)=25000;circuit wait=3280000;serialization=57600;"
      "GTH serdes (TX)=50000;optical propagation=100000;GTH serdes (RX)=50000;"
      "glue logic (dMEMBRICK)=40000;memory controller wait=261600;memory access=63200;"
      "GTH serdes (return)=100000;rt=4027400",
      "TGL lookup (RMST)=25000;circuit wait=0;serialization=3283200;"
      "GTH serdes (TX)=50000;optical propagation=100000;GTH serdes (RX)=50000;"
      "glue logic (dMEMBRICK)=40000;memory controller wait=0;memory access=264800;"
      "GTH serdes (return)=100000;rt=3913000",
      "TGL lookup (RMST)=25000;circuit wait=3200;serialization=57600;"
      "GTH serdes (TX)=50000;optical propagation=100000;GTH serdes (RX)=50000;"
      "glue logic (dMEMBRICK)=40000;memory controller wait=210400;memory access=63200;"
      "GTH serdes (return)=100000;rt=699400",
  };
  EXPECT_EQ(got, expected);
}

TEST_F(FabricBreakdownPinTest, ControllersBelongToTheirBrick) {
  // Same-instant reads on two bricks never queue on each other's
  // controller; a second read on the first brick does.
  const std::uint64_t near = attach(electrical_, LinkMedium::kElectrical);
  const std::uint64_t far = attach(optical_, LinkMedium::kOptical);
  const Transaction first = fabric_.read(compute_, near, 4096, Time::zero());
  const Transaction other = fabric_.read(compute_, far, 4096, Time::zero());
  const Transaction again = fabric_.read(compute_, near + 4096, 4096, Time::zero());
  EXPECT_EQ(first.breakdown.of(sim::component("memory controller wait")), Time::zero());
  EXPECT_EQ(other.breakdown.of(sim::component("memory controller wait")), Time::zero());
  EXPECT_GT(again.breakdown.of(sim::component("memory controller wait")), Time::zero());
}

TEST_F(FabricBreakdownPinTest, PacketBreakdownIsPinned) {
  attach(optical_, LinkMedium::kOptical);  // takes the switch's only circuit
  const auto got = run(attach(packet_, LinkMedium::kPacket));
  const std::vector<std::string> expected = {
      "TGL lookup (RMST)=25000;TGL / NI injection=25000;"
      "on-brick switch (dCOMPUBRICK)=85000;serialization=3289600;"
      "MAC/PHY (dCOMPUBRICK)=470000;optical propagation=100000;"
      "MAC/PHY (dMEMBRICK)=470000;glue logic (dMEMBRICK)=40000;memory access=60000;"
      "on-brick switch (dMEMBRICK)=85000;rt=4649600",
      "TGL lookup (RMST)=25000;TGL / NI injection=25000;"
      "on-brick switch (dCOMPUBRICK)=3368200;serialization=64000;"
      "MAC/PHY (dCOMPUBRICK)=470000;optical propagation=100000;"
      "MAC/PHY (dMEMBRICK)=470000;glue logic (dMEMBRICK)=40000;memory access=60000;"
      "on-brick switch (dMEMBRICK)=85000;rt=4707200",
      "TGL lookup (RMST)=25000;TGL / NI injection=25000;"
      "on-brick switch (dCOMPUBRICK)=85000;serialization=3289600;"
      "MAC/PHY (dCOMPUBRICK)=470000;optical propagation=100000;"
      "MAC/PHY (dMEMBRICK)=470000;glue logic (dMEMBRICK)=40000;memory access=60000;"
      "on-brick switch (dMEMBRICK)=85000;rt=4649600",
      "TGL lookup (RMST)=25000;TGL / NI injection=25000;"
      "on-brick switch (dCOMPUBRICK)=91400;serialization=64000;"
      "MAC/PHY (dCOMPUBRICK)=470000;optical propagation=100000;"
      "MAC/PHY (dMEMBRICK)=470000;glue logic (dMEMBRICK)=40000;memory access=60000;"
      "on-brick switch (dMEMBRICK)=3310600;rt=4656000",
  };
  EXPECT_EQ(got, expected);
}

}  // namespace
}  // namespace dredbox::memsys
