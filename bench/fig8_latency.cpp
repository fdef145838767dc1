// Reproduces Fig. 8: preliminary breakdown of the (hardware-level)
// measured remote-memory round-trip access latency over the exploratory
// packet-switched interconnect. The contributions are the on-brick switch
// and the MAC/PHY blocks on both the dMEMBRICK and the dCOMPUBRICK, plus
// the optical path propagation delay.

#include "repro.hpp"
#include "sim/breakdown.hpp"
#include "sim/stats.hpp"

namespace dredbox::repro {

void fig8_latency(Report& report) {
  std::printf("=== Fig. 8: round-trip remote memory access latency breakdown ===\n");
  std::printf("Path: APU -> TGL/NI -> on-brick switch -> MAC/PHY -> optics -> \n");
  std::printf("      MAC/PHY -> on-brick switch -> glue logic -> DDR (and back)\n\n");

  PacketPair path;

  // Average over a stream of isolated 64 B reads (one outstanding at a
  // time, spaced far apart: pure hardware latency, no queueing).
  constexpr int kReads = 1000;
  sim::Breakdown avg;
  sim::SampleSet round_trip_ns;
  for (int i = 0; i < kReads; ++i) {
    const net::Packet pkt = path.read(64, sim::Time::us(10.0 * i));
    avg.merge(pkt.breakdown);
    round_trip_ns.add(pkt.latency().as_ns());
  }
  avg.scale_all(1.0 / kReads);

  std::printf("Per-component contribution (mean over %d isolated 64 B reads):\n", kReads);
  std::printf("%s\n", avg.to_string().c_str());
  std::printf("Round trip: mean %.1f ns (min %.1f, max %.1f)\n\n", round_trip_ns.mean(),
              round_trip_ns.min(), round_trip_ns.max());

  const double total = avg.total().as_ns();
  const double mac_phy = avg.of(sim::component("MAC/PHY (dCOMPUBRICK)")).as_ns() +
                         avg.of(sim::component("MAC/PHY (dMEMBRICK)")).as_ns();
  const double switches = avg.of(sim::component("on-brick switch (dCOMPUBRICK)")).as_ns() +
                          avg.of(sim::component("on-brick switch (dMEMBRICK)")).as_ns();
  const double prop = avg.of(sim::component("optical propagation")).as_ns();

  report.check("MAC/PHY + on-brick switching share of the round trip", "Fig. 8",
               (mac_phy + switches) / total, above(0.5));
  report.check("optical propagation share of the round trip", "Fig. 8", prop / total,
               below(0.15));
  report.check("round trip (ns) at rack scale", "Fig. 8", total, below(2000.0));
  std::printf("\nNote: 'work is on-going on further optimizing IP designs' (Section III);\n");
  std::printf("the abl_circuit_vs_packet bench shows the mainline circuit path beating this.\n");
}

}  // namespace dredbox::repro
