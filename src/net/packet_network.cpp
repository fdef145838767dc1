#include "net/packet_network.hpp"

#include <stdexcept>

#include "optics/circuit.hpp"
#include "sim/span.hpp"

namespace dredbox::net {

namespace {

// Breakdown components charged by the per-packet pipeline.
constexpr sim::ComponentId kBdTglInject = sim::component("TGL / NI injection");
constexpr sim::ComponentId kBdSwitchCompute = sim::component("on-brick switch (dCOMPUBRICK)");
constexpr sim::ComponentId kBdSwitchMem = sim::component("on-brick switch (dMEMBRICK)");
constexpr sim::ComponentId kBdSerialization = sim::component("serialization");
constexpr sim::ComponentId kBdCongestion = sim::component("congestion penalty");
constexpr sim::ComponentId kBdMacPhyCompute = sim::component("MAC/PHY (dCOMPUBRICK)");
constexpr sim::ComponentId kBdMacPhyMem = sim::component("MAC/PHY (dMEMBRICK)");
constexpr sim::ComponentId kBdFec = sim::component("FEC encode/decode");
constexpr sim::ComponentId kBdOpticalProp = sim::component("optical propagation");
constexpr sim::ComponentId kBdLossRetrans = sim::component("loss retransmissions");
constexpr sim::ComponentId kBdGlueLogic = sim::component("glue logic (dMEMBRICK)");
constexpr sim::ComponentId kBdMemAccess = sim::component("memory access");

}  // namespace


std::string to_string(PacketType type) {
  switch (type) {
    case PacketType::kMemReadReq:
      return "MemReadReq";
    case PacketType::kMemReadResp:
      return "MemReadResp";
    case PacketType::kMemWriteReq:
      return "MemWriteReq";
    case PacketType::kMemWriteAck:
      return "MemWriteAck";
    case PacketType::kControl:
      return "Control";
  }
  return "<unknown packet type>";
}

PacketNetwork::PacketNetwork(sim::Telemetry& telemetry, const PacketPathLatencies& latencies,
                             optics::FecModel fec)
    : latencies_{latencies},
      mac_phy_{latencies},
      fec_{fec},
      telemetry_{telemetry},
      packets_metric_{telemetry.metrics().counter("net.packets.sent")},
      retransmissions_metric_{telemetry.metrics().counter("net.packets.retransmitted")},
      // Packet round trips land in the single-digit-us range (Fig. 8's
      // packet column); queueing is sub-us unless an output port is
      // congested.
      latency_metric_{telemetry.metrics().histogram("net.packet.latency_ns", 0.0, 20000.0, 50)},
      queueing_metric_{telemetry.metrics().histogram("net.switch.queueing_ns", 0.0, 2000.0, 40)},
      congestion_metric_{telemetry.metrics().gauge("net.packet.congestion_factor")} {
  congestion_metric_.set(congestion_factor_);
}

void PacketNetwork::set_congestion_factor(double factor) {
  if (factor < 1.0) {
    throw std::invalid_argument("PacketNetwork::set_congestion_factor: factor below 1");
  }
  congestion_factor_ = factor;
  congestion_metric_.set(factor);
}

void PacketNetwork::set_loss_retransmissions(double per_packet) {
  if (per_packet < 0.0) {
    throw std::invalid_argument("PacketNetwork::set_loss_retransmissions: negative rate");
  }
  loss_retransmissions_ = per_packet;
}

void PacketNetwork::add_brick(hw::BrickId brick, std::size_t pbn_ports) {
  if (has_brick(brick)) {
    throw std::logic_error("PacketNetwork::add_brick: brick already registered");
  }
  switches_.emplace(brick, std::make_unique<PacketSwitch>(
                               pbn_ports, latencies_.compubrick_switch));
}

PacketSwitch& PacketNetwork::switch_of(hw::BrickId brick) {
  auto it = switches_.find(brick);
  if (it == switches_.end()) {
    throw std::out_of_range("PacketNetwork: brick " + brick.to_string() + " not registered");
  }
  return *it->second;
}

void PacketNetwork::connect(hw::BrickId a, hw::BrickId b, double fiber_length_m) {
  switch_of(a).program_route(b, 0);
  switch_of(b).program_route(a, 0);
  fiber_m_[a][b] = fiber_length_m;
  fiber_m_[b][a] = fiber_length_m;
}

void PacketNetwork::connect_multipath(hw::BrickId a, hw::BrickId b, std::size_t ports,
                                      double fiber_length_m) {
  std::vector<std::size_t> port_list;
  for (std::size_t p = 0; p < ports; ++p) port_list.push_back(p);
  switch_of(a).program_multipath(b, port_list);
  switch_of(b).program_multipath(a, port_list);
  fiber_m_[a][b] = fiber_length_m;
  fiber_m_[b][a] = fiber_length_m;
}

bool PacketNetwork::connected(hw::BrickId a, hw::BrickId b) const {
  auto it = fiber_m_.find(a);
  return it != fiber_m_.end() && it->second.count(b) != 0;
}

sim::Time PacketNetwork::propagation(hw::BrickId a, hw::BrickId b) const {
  auto ita = fiber_m_.find(a);
  if (ita == fiber_m_.end() || ita->second.count(b) == 0) {
    throw std::logic_error("PacketNetwork: bricks " + a.to_string() + " and " + b.to_string() +
                           " are not connected");
  }
  return sim::Time::ns(ita->second.at(b) * optics::Circuit::kPropagationNsPerMeter);
}

sim::Time PacketNetwork::memory_access_time(hw::MemoryTechnology tech) const {
  return tech == hw::MemoryTechnology::kHmc ? latencies_.hmc_access : latencies_.ddr_access;
}

// dredbox-lint: hot-path-begin — traverse/remote_read/remote_write run
// once per packet; steady state is allocation-free (misrouted packets and
// tracing-gated spans are the cold exceptions, suppressed below).
sim::Time PacketNetwork::traverse(hw::BrickId src, hw::BrickId dst, std::uint32_t bytes,
                                  sim::Time start, bool from_compute,
                                  sim::Breakdown& breakdown) {
  // Static per-direction labels: building "... (side)" strings here would
  // allocate on every packet of the exploratory-path datapath.
  const sim::ComponentId switch_label = from_compute ? kBdSwitchCompute : kBdSwitchMem;
  const sim::ComponentId mac_phy_tx_label = from_compute ? kBdMacPhyCompute : kBdMacPhyMem;
  const sim::ComponentId mac_phy_rx_label = from_compute ? kBdMacPhyMem : kBdMacPhyCompute;
  sim::Time t = start;

  if (from_compute) {
    // TGL decode + NI injection only happens on the requesting brick.
    breakdown.charge(kBdTglInject, latencies_.tgl_inject);
    t += latencies_.tgl_inject;
  }

  // On-brick packet switch: round-robin arbitration + output queueing.
  const sim::Time serialization = mac_phy_.serialization_time(bytes);
  auto fwd = switch_of(src).forward(dst, t, serialization);
  if (!fwd) {
    throw std::logic_error("PacketNetwork: no route from " + src.to_string() + " to " +
                           dst.to_string() + " (lookup table not programmed)");
  }
  const sim::Time switch_cost = from_compute ? latencies_.compubrick_switch
                                             : latencies_.membrick_switch;
  queueing_metric_.observe(fwd->queueing.as_ns());
  breakdown.charge(switch_label, switch_cost + fwd->queueing);
  breakdown.charge(kBdSerialization, serialization);
  t = fwd->departure;

  // Congestion burst: the switch fabric services this packet slower than
  // nominal; the extra time shows up as its own breakdown stage.
  if (congestion_factor_ > 1.0) {
    const sim::Time penalty =
        sim::scale(switch_cost + fwd->queueing + serialization, congestion_factor_ - 1.0);
    breakdown.charge(kBdCongestion, penalty);
    t += penalty;
  }

  // MAC + PHY on the transmit side.
  breakdown.charge(mac_phy_tx_label, mac_phy_.traversal_latency());
  t += mac_phy_.traversal_latency();

  // Optional FEC encode (the architecture requires FEC-free; modelled for
  // the ablation study).
  if (fec_.added_latency() > sim::Time::zero()) {
    breakdown.charge(kBdFec, fec_.added_latency());
    t += fec_.added_latency();
  }

  // Optical path propagation.
  const sim::Time prop = propagation(src, dst);
  breakdown.charge(kBdOpticalProp, prop);
  t += prop;

  // Loss burst: each modelled retransmission re-pays serialization plus
  // the wire (deterministic mean-rate model, no per-packet dice).
  if (loss_retransmissions_ > 0.0) {
    const sim::Time penalty = sim::scale(serialization + prop, loss_retransmissions_);
    breakdown.charge(kBdLossRetrans, penalty);
    t += penalty;
    retransmissions_metric_.add();
  }

  // MAC + PHY on the receive side.
  breakdown.charge(mac_phy_rx_label, mac_phy_.traversal_latency());
  t += mac_phy_.traversal_latency();

  return t;
}

Packet PacketNetwork::remote_read(hw::BrickId src, hw::BrickId dst, std::uint64_t address,
                                  std::uint32_t payload_bytes, sim::Time when,
                                  hw::MemoryTechnology tech, const sim::TraceContext& ctx) {
  // Header-only request out, payload back.
  return round_trip(PacketType::kMemReadResp, src, dst, address, payload_bytes, /*bytes_out=*/0,
                    /*bytes_back=*/payload_bytes, when, tech, ctx);
}

Packet PacketNetwork::remote_write(hw::BrickId src, hw::BrickId dst, std::uint64_t address,
                                   std::uint32_t payload_bytes, sim::Time when,
                                   hw::MemoryTechnology tech, const sim::TraceContext& ctx) {
  // Request carries the payload; a short acknowledgement comes back.
  return round_trip(PacketType::kMemWriteAck, src, dst, address, payload_bytes,
                    /*bytes_out=*/payload_bytes, /*bytes_back=*/0, when, tech, ctx);
}

Packet PacketNetwork::round_trip(PacketType delivered, hw::BrickId src, hw::BrickId dst,
                                 std::uint64_t address, std::uint32_t payload_bytes,
                                 std::uint32_t bytes_out, std::uint32_t bytes_back,
                                 sim::Time when, hw::MemoryTechnology tech,
                                 const sim::TraceContext& ctx) {
  Packet pkt;
  pkt.id = next_packet_++;
  pkt.src = src;
  pkt.dst = dst;
  pkt.address = address;
  pkt.payload_bytes = payload_bytes;
  pkt.injected_at = when;

  sim::Time t = traverse(src, dst, bytes_out, when, /*from_compute=*/true, pkt.breakdown);

  // dMEMBRICK glue logic forwards to the local memory controller
  // (Section II, ingress direction) and the array is accessed.
  pkt.breakdown.charge(kBdGlueLogic, latencies_.glue_logic);
  t += latencies_.glue_logic;
  pkt.breakdown.charge(kBdMemAccess, memory_access_time(tech));
  t += memory_access_time(tech);

  // The reply travels back through the local switch (egress).
  t = traverse(dst, src, bytes_back, t, /*from_compute=*/false, pkt.breakdown);

  pkt.delivered_at = t;
  pkt.type = delivered;
  packets_metric_.add();
  latency_metric_.observe((pkt.delivered_at - pkt.injected_at).as_ns());
  if (telemetry_.tracing()) {
    sim::Span span{telemetry_.tracer(), sim::TraceCategory::kFabric, "packet round trip",
                   pkt.injected_at};
    span.context(telemetry_.tracer().child_of(ctx));
    span.arg("type", to_string(pkt.type))
        .arg("bytes", std::to_string(pkt.payload_bytes))  // dredbox-lint: ignore[hot-path-alloc] tracing-gated
        .arg("src", std::to_string(pkt.src.value))  // dredbox-lint: ignore[hot-path-alloc] tracing-gated
        .arg("dst", std::to_string(pkt.dst.value));  // dredbox-lint: ignore[hot-path-alloc] tracing-gated
    span.end(pkt.delivered_at);
  }
  return pkt;
}
// dredbox-lint: hot-path-end

}  // namespace dredbox::net
