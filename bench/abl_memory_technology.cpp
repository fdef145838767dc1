// Ablation: memory technology behind the dMEMBRICK glue logic
// (Section II). "The dMEMBRICK architecture can seamlessly support both
// DDR and HMC memory technologies; the glue logic is connected to an AXI
// interconnect, hence directly interfacing both Xilinx DDR and HMC
// controller IPs." This bench compares end-to-end remote access with the
// two back-ends over both interconnect modes.

#include "repro.hpp"

namespace dredbox::repro {
namespace {

double circuit_rt_ns(hw::MemoryTechnology tech) {
  CircuitRack fab;
  const hw::BrickId cpu = fab.rack.add_compute_brick(fab.tray_a).id();
  hw::MemoryBrickConfig mc;
  mc.technology = tech;
  const hw::BrickId mem = fab.rack.add_memory_brick(fab.tray_b, mc).id();
  const auto a = fab.attach(cpu, mem);
  return fab.fabric.read(cpu, a.compute_base, 64, sim::Time::zero()).round_trip().as_ns();
}

double packet_rt_ns(hw::MemoryTechnology tech) {
  return PacketPair{}.read(64, sim::Time::zero(), tech).latency().as_ns();
}

}  // namespace

void abl_memory_technology(Report& report) {
  std::printf("=== Ablation: DDR4 vs HMC dMEMBRICK back-end ===\n\n");

  sim::TextTable table{{"path", "DDR4 RT (ns)", "HMC RT (ns)", "HMC advantage"}};
  const double c_ddr = circuit_rt_ns(hw::MemoryTechnology::kDdr4);
  const double c_hmc = circuit_rt_ns(hw::MemoryTechnology::kHmc);
  const double p_ddr = packet_rt_ns(hw::MemoryTechnology::kDdr4);
  const double p_hmc = packet_rt_ns(hw::MemoryTechnology::kHmc);
  table.add_row({"circuit (mainline)", sim::TextTable::num(c_ddr, 0),
                 sim::TextTable::num(c_hmc, 0), sim::TextTable::pct((c_ddr - c_hmc) / c_ddr)});
  table.add_row({"packet (exploratory)", sim::TextTable::num(p_ddr, 0),
                 sim::TextTable::num(p_hmc, 0), sim::TextTable::pct((p_ddr - p_hmc) / p_ddr)});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Observation: the interconnect (serdes/MAC/PHY/switching) dominates the\n");
  std::printf("round trip, so swapping the memory controller IP moves the total by\n");
  std::printf("only %.0f%%/%.0f%% — the glue-logic abstraction is cheap, which is why\n",
              100.0 * (c_ddr - c_hmc) / c_ddr, 100.0 * (p_ddr - p_hmc) / p_ddr);
  std::printf("the brick can be dimensioned by capacity/bandwidth need, not latency.\n");
  report.check("circuit-path HMC round trip (ns) vs DDR4", "§II", c_hmc, below(c_ddr));
  report.check("packet-path HMC round trip (ns) vs DDR4", "§II", p_hmc, below(p_ddr));
  // The interconnect dominates the round trip, so the back-end moves it
  // by little.
  report.check("circuit-path HMC gain over DDR4", "§II", (c_ddr - c_hmc) / c_ddr, below(0.10));
  report.check("packet-path HMC gain over DDR4", "§II", (p_ddr - p_hmc) / p_ddr, below(0.10));
}

}  // namespace dredbox::repro
