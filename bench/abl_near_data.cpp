// Ablation: near-data processing on dACCELBRICKs (Section II): "instead
// of transmitting data to a remote dCOMPUBRICK, data are offloaded by
// remote dCOMPUBRICKs to dACCELBRICKs, thus improving performance and at
// the same time reducing network utilization." This bench sweeps the
// dataset size and compares offload against hauling the data to the CPU.

#include <algorithm>

#include "optics/circuit.hpp"
#include "orch/accel_manager.hpp"
#include "repro.hpp"

namespace dredbox::repro {

void abl_near_data(Report& report) {
  std::printf("=== Ablation: near-data offload vs haul-to-CPU ===\n\n");

  hw::Rack rack;
  const hw::TrayId tray = rack.add_tray();
  const hw::BrickId cpu = rack.add_compute_brick(tray).id();
  rack.add_accelerator_brick(tray);
  const hw::BrickId membrick = rack.add_memory_brick(tray).id();
  sim::Telemetry telemetry;
  optics::OpticalSwitch sw;
  optics::CircuitManager circuits{sw, telemetry};
  orch::AcceleratorManager mgr{rack};

  hw::Bitstream kernel;
  kernel.name = "packet-filter";
  kernel.size_bytes = 24ull << 20;
  kernel.kernel_ops_per_sec = 50e9;  // streaming filter, bandwidth-bound
  const auto deployment = mgr.deploy(cpu, kernel, sim::Time::zero());
  if (!deployment) throw std::runtime_error("deploy failed");
  std::printf("deployment: bitstream push %.1f ms + PCAP %.1f ms (one-time)\n\n",
              deployment->breakdown.of(sim::component("bitstream transfer")).as_ms(),
              deployment->breakdown.of(sim::component("PCAP reconfiguration")).as_ms());

  // Fig. 5 mode: the wrapper's own transceivers wired straight to the
  // dMEMBRICK hosting the dataset (4 bonded lanes).
  if (!mgr.link_memory(deployment->accel, membrick, 4, circuits)) {
    throw std::runtime_error("direct link failed");
  }

  sim::TextTable table{{"dataset", "near-data (ms)", "direct dMEMBRICK link (ms)",
                        "haul-to-CPU (ms)", "best speedup", "net bytes (near)",
                        "net bytes (haul)"}};
  double min_speedup = 1e30;  // haul-to-CPU time over the slower offload mode
  double max_byte_share = 0.0;  // near-data network bytes over haul-to-CPU bytes
  for (const std::uint64_t mib : {64ull, 256ull, 1024ull, 4096ull, 16384ull}) {
    const std::uint64_t bytes = mib * kMiB;
    const auto near = mgr.offload(deployment->accel, bytes / 64, bytes, deployment->ready_at);
    const auto direct =
        mgr.offload_from_membrick(deployment->accel, bytes / 64, bytes, deployment->ready_at);
    const auto haul = mgr.process_on_compute(bytes, /*cpu_gbps=*/20.0, deployment->ready_at);
    const double near_ms = (near.completed_at - deployment->ready_at).as_ms();
    const double direct_ms = (direct.completed_at - deployment->ready_at).as_ms();
    const double haul_ms = (haul.completed_at - deployment->ready_at).as_ms();
    min_speedup = std::min(min_speedup, haul_ms / std::max(near_ms, direct_ms));
    max_byte_share = std::max(max_byte_share, static_cast<double>(near.network_bytes) /
                                                  static_cast<double>(haul.network_bytes));
    table.add_row({std::to_string(mib) + " MiB", sim::TextTable::num(near_ms, 1),
                   sim::TextTable::num(direct_ms, 1), sim::TextTable::num(haul_ms, 1),
                   sim::TextTable::num(haul_ms / std::min(near_ms, direct_ms), 1) + "x",
                   std::to_string(near.network_bytes), std::to_string(haul.network_bytes)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Design-choice checks:\n");
  report.check("smallest speedup of either offload mode over haul-to-CPU", "§II", min_speedup,
               above(1.0));
  report.check("largest near-data share of haul-to-CPU network bytes", "§II", max_byte_share,
               below(0.01));
  std::printf("  network utilization reduced to descriptors+results (~KB vs GB)\n");
  std::printf("  -> the Section II rationale for hosting accelerators near the data.\n");
}

}  // namespace dredbox::repro
