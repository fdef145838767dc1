// Fabric stress: aggregate bulk-transfer throughput as dCOMPUBRICKs,
// dMEMBRICK controllers and bonded lanes scale. Every transfer runs
// through the DMA engines (Fig. 3) on the shared event-driven timeline,
// so the numbers include chunk-level pipelining, circuit serialization
// and memory-controller contention — the end-to-end question "how much
// bandwidth can one dMEMBRICK actually serve?".

#include "memsys/dma.hpp"
#include "repro.hpp"

namespace dredbox::repro {
namespace {

struct Scenario {
  std::size_t compute_bricks;
  std::size_t lanes_per_brick;
  std::size_t memory_controllers;
};

double run(const Scenario& sc) {
  sim::Simulator sim;
  optics::OpticalSwitchConfig swc;
  swc.ports = 96;
  CircuitRack fab{swc};
  std::vector<hw::BrickId> cpus;
  for (std::size_t i = 0; i < sc.compute_bricks; ++i) {
    cpus.push_back(fab.rack.add_compute_brick(fab.tray_a).id());
  }
  hw::MemoryBrickConfig mc;
  mc.capacity_bytes = 64 * kGiB;
  mc.memory_controllers = sc.memory_controllers;
  const hw::BrickId mem = fab.rack.add_memory_brick(fab.tray_b, mc).id();

  // One bonded attachment and one dual-channel DMA engine per brick.
  std::vector<std::unique_ptr<memsys::DmaEngine>> engines;
  std::vector<memsys::Attachment> attachments;
  for (hw::BrickId cpu : cpus) {
    attachments.push_back(fab.attach(cpu, mem, 8 * kGiB, sc.lanes_per_brick));
    engines.push_back(std::make_unique<memsys::DmaEngine>(sim, fab.fabric, cpu, 2, 65536));
  }

  // Every brick pushes 64 MiB; measure wall-clock of the slowest.
  const std::uint64_t per_brick = 64 * kMiB;
  sim::Time last_done;
  std::size_t completions = 0;
  for (std::size_t b = 0; b < engines.size(); ++b) {
    memsys::DmaDescriptor d;
    d.address = attachments[b].compute_base;
    d.bytes = per_brick;
    engines[b]->enqueue(d, [&](const memsys::DmaCompletion& c) {
      if (!c.ok) throw std::runtime_error("transfer failed: " + c.error);
      last_done = std::max(last_done, c.completed_at);
      ++completions;
    });
  }
  sim.run();
  if (completions != engines.size()) throw std::runtime_error("missing completions");
  const double total_bytes = static_cast<double>(per_brick * sc.compute_bricks);
  return total_bytes * 8.0 / last_done.as_sec() / 1e9;  // Gb/s aggregate
}

}  // namespace

void abl_fabric_throughput(Report& report) {
  std::printf("=== Fabric stress: aggregate DMA throughput into one dMEMBRICK ===\n");
  std::printf("64 MiB pushed per dCOMPUBRICK, dual-channel DMA, 64 KiB chunks\n\n");

  sim::TextTable table{{"dCOMPUBRICKs", "lanes/brick", "controllers", "aggregate (Gb/s)"}};
  const Scenario scenarios[] = {
      {1, 1, 2}, {2, 1, 2}, {4, 1, 2},  // consumers scale, 10G lanes each
      {4, 1, 1},                        // controller-starved
      {4, 1, 4},                        // controller-rich
      {1, 2, 2}, {1, 4, 4},             // lane bonding for one consumer
  };
  double starved = 0, rich = 0, one_lane = 0, four_lane = 0;
  for (const auto& sc : scenarios) {
    const double gbps = run(sc);
    table.add_row({std::to_string(sc.compute_bricks), std::to_string(sc.lanes_per_brick),
                   std::to_string(sc.memory_controllers), sim::TextTable::num(gbps, 2)});
    if (sc.compute_bricks == 4 && sc.memory_controllers == 1) starved = gbps;
    if (sc.compute_bricks == 4 && sc.memory_controllers == 4) rich = gbps;
    if (sc.compute_bricks == 1 && sc.lanes_per_brick == 1) one_lane = gbps;
    if (sc.compute_bricks == 1 && sc.lanes_per_brick == 4) four_lane = gbps;
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Observations:\n");
  std::printf("  consumers scale linearly (one 10G lane each): the fabric, not the\n");
  std::printf("  brick, is the unit of bandwidth. Lane bonding scales one consumer\n");
  std::printf("  %.1f -> %.1f Gb/s with 4 lanes.\n", one_lane, four_lane);
  std::printf("  controllers barely matter for bulk (%.1f vs %.1f Gb/s at 1 vs 4 MCs):\n",
              starved, rich);
  std::printf("  a single DDR controller (~160 Gb/s array) outruns several 10G lanes.\n");
  std::printf("  Controller count is a *transaction-rate* knob (see\n");
  std::printf("  abl_memory_controllers for the 64 B-read latency cliff), while link\n");
  std::printf("  count is the *bandwidth* knob — exactly how Section II frames the\n");
  std::printf("  dMEMBRICK's two dimensioning axes.\n");
  report.check("one consumer's throughput (Gb/s) on 4 bonded lanes vs twice 1 lane", "§II",
               four_lane, above(2.0 * one_lane));
  report.check("4-consumer throughput (Gb/s) with 4 controllers vs 1", "§II", rich,
               at_least(starved));
}

}  // namespace dredbox::repro
