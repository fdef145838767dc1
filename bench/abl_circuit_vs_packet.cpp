// Ablation: circuit-switched mainline vs exploratory packet-switched
// interconnect (Sections II-III). Memory interconnection occurs via
// circuit switching "as a means of minimizing the critical KPI of remote
// access latency"; packet switching exists to cater for cases where the
// system runs low on physical ports. This bench quantifies the latency
// cost of the packet fallback and the port-scalability it buys.

#include "repro.hpp"

namespace dredbox::repro {

void abl_circuit_vs_packet(Report& report) {
  std::printf("=== Ablation: circuit-switched vs packet-switched remote access ===\n\n");

  // --- circuit path (cross-tray, so the optical substrate carries it;
  // the electrical intra-tray case is abl_intra_tray's subject) ---
  CircuitRack fab;
  const hw::BrickId cpu = fab.rack.add_compute_brick(fab.tray_a).id();
  const hw::BrickId mem = fab.rack.add_memory_brick(fab.tray_b).id();
  const auto attachment = fab.attach(cpu, mem);

  // --- packet path ---
  PacketPair packet{cpu, mem};

  sim::TextTable table{{"payload (B)", "circuit RT (ns)", "packet RT (ns)", "packet overhead"}};
  double circuit64 = 0.0, packet64 = 0.0;
  sim::Breakdown circuit64_breakdown, packet64_breakdown;
  for (std::uint32_t bytes : {64u, 256u, 1024u, 4096u}) {
    const auto circuit_tx =
        fab.fabric.read(cpu, attachment.compute_base, bytes, sim::Time::ms(bytes));
    const auto packet_tx = packet.read(bytes, sim::Time::ms(bytes));
    const double c = circuit_tx.round_trip().as_ns();
    const double p = packet_tx.latency().as_ns();
    if (bytes == 64) {
      circuit64 = c;
      packet64 = p;
      circuit64_breakdown = circuit_tx.breakdown;
      packet64_breakdown = packet_tx.breakdown;
    }
    table.add_row({std::to_string(bytes), sim::TextTable::num(c, 0),
                   sim::TextTable::num(p, 0), sim::TextTable::pct((p - c) / c)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("64 B circuit-path breakdown:\n%s\n", circuit64_breakdown.to_string().c_str());
  std::printf("64 B packet-path breakdown:\n%s\n", packet64_breakdown.to_string().c_str());

  std::printf("Port economics: a circuit pins 2 switch ports per brick pair for its\n");
  std::printf("lifetime; the packet substrate multiplexes many destinations over one\n");
  std::printf("port via lookup tables programmed by orchestration (Section III).\n\n");

  report.check("64 B circuit round trip (ns) vs packet", "§III", circuit64, below(packet64));
}

}  // namespace dredbox::repro
