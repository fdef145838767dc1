// Ablation: dMEMBRICK memory-controller dimensioning (Section II: "a
// dMEMBRICK can be dimensioned in terms of memory size as well as the
// number of memory controllers it supports, so as to adapt to the size
// and bandwidth needs at the tray and system level"). Four dCOMPUBRICKs
// stream concurrent reads at one dMEMBRICK; the bench sweeps the
// controller count and reports sustained latency.

#include "repro.hpp"
#include "sim/stats.hpp"

namespace dredbox::repro {
namespace {

struct Outcome {
  double mean_rt_ns;
  double p95_rt_ns;
  double mean_mc_wait_ns;
};

Outcome run(std::size_t controllers) {
  CircuitRack fab;
  std::vector<hw::BrickId> cpus;
  for (int i = 0; i < 4; ++i) cpus.push_back(fab.rack.add_compute_brick(fab.tray_a).id());
  hw::MemoryBrickConfig mc;
  mc.memory_controllers = controllers;
  const hw::BrickId mem = fab.rack.add_memory_brick(fab.tray_b, mc).id();

  std::vector<memsys::Attachment> attachments;
  for (hw::BrickId cpu : cpus) attachments.push_back(fab.attach(cpu, mem));

  // Each brick issues a 64 B read every 110 ns (interleaved pages), for
  // 1000 rounds: enough pressure that a single controller saturates.
  sim::SampleSet round_trips;
  sim::SampleSet waits;
  for (int round = 0; round < 1000; ++round) {
    const sim::Time when = sim::Time::ns(110.0 * round);
    for (std::size_t b = 0; b < cpus.size(); ++b) {
      const std::uint64_t addr =
          attachments[b].compute_base + (static_cast<std::uint64_t>(round % 64) << 12);
      const auto tx = fab.fabric.read(cpus[b], addr, 64, when);
      round_trips.add(tx.round_trip().as_ns());
      waits.add(tx.breakdown.of(sim::component("memory controller wait")).as_ns());
    }
  }
  return Outcome{round_trips.mean(), round_trips.percentile(95), waits.mean()};
}

}  // namespace

void abl_memory_controllers(Report& report) {
  std::printf("=== Ablation: dMEMBRICK memory-controller dimensioning ===\n");
  std::printf("4 dCOMPUBRICKs x 64 B read every 110 ns at one dMEMBRICK\n\n");

  sim::TextTable table{{"controllers", "mean RT (ns)", "p95 RT (ns)", "mean MC wait (ns)"}};
  double rt1 = 0, rt4 = 0;
  for (std::size_t mcs : {1u, 2u, 4u, 8u}) {
    const Outcome out = run(mcs);
    if (mcs == 1) rt1 = out.mean_rt_ns;
    if (mcs == 4) rt4 = out.mean_rt_ns;
    table.add_row({std::to_string(mcs), sim::TextTable::num(out.mean_rt_ns, 0),
                   sim::TextTable::num(out.p95_rt_ns, 0),
                   sim::TextTable::num(out.mean_mc_wait_ns, 1)});
  }
  std::printf("%s\n", table.to_string().c_str());

  report.check("mean 64 B round trip (ns) with 4 memory controllers vs 1", "§II", rt4,
               below(rt1));
  std::printf("This is why the brick is *dimensioned*, not fixed: bandwidth-hungry\n");
  std::printf("trays take more controllers, capacity-hungry trays take more DRAM.\n");
}

}  // namespace dredbox::repro
