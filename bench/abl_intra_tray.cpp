// Ablation: intra-tray electrical vs cross-tray optical circuits
// (Section II: "Intra-tray bricks are connected over a low latency/high-
// throughput electrical circuit, whereas trays utilize optical networks
// for cross-tray, in-rack interconnection."). Quantifies the latency gap
// and the optical-switch ports the electrical substrate saves — and hence
// why the SDM-C prefers same-tray dMEMBRICKs.

#include "repro.hpp"

namespace dredbox::repro {

void abl_intra_tray(Report& report) {
  std::printf("=== Ablation: intra-tray electrical vs cross-tray optical ===\n\n");

  CircuitRack fab;
  const hw::BrickId cpu = fab.rack.add_compute_brick(fab.tray_a).id();
  const hw::BrickId mem_local = fab.rack.add_memory_brick(fab.tray_a).id();   // same tray
  const hw::BrickId mem_remote = fab.rack.add_memory_brick(fab.tray_b).id();  // other tray
  const auto local = fab.attach(cpu, mem_local);
  const auto remote = fab.attach(cpu, mem_remote);
  auto& fabric = fab.fabric;
  std::printf("intra-tray attach medium: %s (switch ports used: %zu)\n",
              memsys::to_string(local.medium).c_str(), fab.sw.ports_in_use());
  std::printf("cross-tray attach medium: %s (switch ports used: %zu)\n\n",
              memsys::to_string(remote.medium).c_str(), fab.sw.ports_in_use());

  sim::TextTable table{{"payload (B)", "intra-tray RT (ns)", "cross-tray RT (ns)", "saving"}};
  for (std::uint32_t bytes : {64u, 256u, 1024u, 4096u}) {
    const auto e = fabric.read(cpu, local.compute_base, bytes, sim::Time::ms(bytes));
    const auto o = fabric.read(cpu, remote.compute_base, bytes, sim::Time::ms(bytes) + sim::Time::us(500));
    table.add_row({std::to_string(bytes), sim::TextTable::num(e.round_trip().as_ns(), 0),
                   sim::TextTable::num(o.round_trip().as_ns(), 0),
                   sim::TextTable::pct((o.round_trip() - e.round_trip()).as_ns() /
                                       o.round_trip().as_ns())});
  }
  std::printf("%s\n", table.to_string().c_str());

  const auto e64 = fabric.read(cpu, local.compute_base, 64, sim::Time::sec(10));
  std::printf("64 B intra-tray breakdown:\n%s\n", e64.breakdown.to_string().c_str());

  std::printf("Port economics: the intra-tray attachment consumed 0 optical switch\n");
  std::printf("ports; each cross-tray circuit pins 2 (of 48). Keeping intra-tray\n");
  std::printf("traffic electrical preserves the switch for cross-tray circuits — the\n");
  std::printf("scarcity that otherwise forces the packet-switched fallback (Sec. III).\n\n");

  const auto e = fabric.read(cpu, local.compute_base, 64, sim::Time::sec(20));
  const auto o = fabric.read(cpu, remote.compute_base, 64, sim::Time::sec(30));
  report.check("64 B intra-tray electrical round trip (ns) vs cross-tray optical", "§II",
               e.round_trip().as_ns(), below(o.round_trip().as_ns()));
}

}  // namespace dredbox::repro
