#pragma once
// The paper-reproduction driver, dredbox_repro. Each bench/<name>.cpp
// defines one experiment `void <name>(Report&)`: it prints the tables of
// the figure, table or design rationale it reproduces and records every
// paper claim it tests through Report::check. dredbox_repro.cpp holds the
// registry (paper order), the shared fixtures and main(). Experiments
// print with std::printf and sim::TextTable, so both come with this header.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "memsys/remote_memory.hpp"
#include "net/packet_network.hpp"
#include "optics/circuit.hpp"
#include "orch/sdm_controller.hpp"
#include "sim/report.hpp"

namespace dredbox::repro {

inline constexpr std::uint64_t kMiB = 1ull << 20;
inline constexpr std::uint64_t kGiB = 1ull << 30;

/// The side of a bound (or the closed range) a measured value must lie on
/// for a claim to hold. Built with below/at_most/above/at_least/within.
struct Bound {
  enum class Op { kBelow, kAtMost, kAbove, kAtLeast, kWithin };
  Op op;
  double value;
  double upper = 0.0;  // kWithin only: the range is [value, upper]

  bool holds(double measured) const;
  /// "< 0.5", "in [1, 32]", ...
  std::string to_string() const;
};
inline Bound below(double v) { return {Bound::Op::kBelow, v}; }
inline Bound at_most(double v) { return {Bound::Op::kAtMost, v}; }
inline Bound above(double v) { return {Bound::Op::kAbove, v}; }
inline Bound at_least(double v) { return {Bound::Op::kAtLeast, v}; }
inline Bound within(double lo, double hi) { return {Bound::Op::kWithin, lo, hi}; }

/// The claims checked in one driver run. check() prints one verdict line,
///   <claim> (<section>): <measured> <op> <bound> -> REPRODUCED | NOT reproduced
/// rendered from the same bound it tests, and remembers failures.
class Report {
 public:
  bool check(const std::string& claim, const std::string& section, double measured,
             const Bound& bound);

  std::size_t checks() const { return checks_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t checks_ = 0;
  std::vector<std::string> failures_;
};

/// Fig. 8's packet-switched path: `cpu` and `mem` joined by 10 m of
/// in-rack fibre, with the given FEC on every traversal.
struct PacketPair {
  explicit PacketPair(hw::BrickId cpu = hw::BrickId{1}, hw::BrickId mem = hw::BrickId{2},
                      optics::FecScheme fec = optics::FecScheme::kNone);
  /// One remote read of `bytes` from address 0, issued at `when`.
  net::Packet read(std::uint32_t bytes, sim::Time when,
                   hw::MemoryTechnology tech = hw::MemoryTechnology::kDdr4);

  hw::BrickId cpu;
  hw::BrickId mem;
  sim::Telemetry telemetry;
  net::PacketNetwork network;
};

/// One rack's circuit-switched remote-memory datapath: the optical switch,
/// its circuit manager and the fabric over `rack`, which starts with two
/// empty trays. Experiments add the bricks.
struct CircuitRack {
  explicit CircuitRack(const optics::OpticalSwitchConfig& sw_config = {});
  // The circuit manager and fabric hold references into this object.
  CircuitRack(const CircuitRack&) = delete;
  CircuitRack& operator=(const CircuitRack&) = delete;
  /// Attaches `bytes` of `membrick` to `compute` at t = 0; throws when the
  /// fabric refuses.
  memsys::Attachment attach(hw::BrickId compute, hw::BrickId membrick,
                            std::uint64_t bytes = kGiB, std::size_t lanes = 1);

  sim::Telemetry telemetry;
  hw::Rack rack;
  optics::OpticalSwitch sw;
  optics::CircuitManager circuits{sw, telemetry};
  memsys::RemoteMemoryFabric fabric{rack, circuits, telemetry};
  const hw::TrayId tray_a = rack.add_tray();
  const hw::TrayId tray_b = rack.add_tray();
};

/// A CircuitRack under an SDM controller. Compute bricks added through
/// add_compute() run the bare-metal OS, hypervisor and SDM agent stack.
struct ManagedRack : CircuitRack {
  struct Stack {
    Stack(hw::ComputeBrick& brick, sim::Telemetry& telemetry)
        : os{brick}, hypervisor{brick, os, telemetry}, agent{hypervisor, os} {}
    os::BareMetalOs os;
    hyp::Hypervisor hypervisor;
    orch::SdmAgent agent;
  };

  hw::BrickId add_compute(hw::TrayId tray, const hw::ComputeBrickConfig& config);

  orch::SdmController sdm{rack, fabric, circuits, telemetry};
  std::vector<std::unique_ptr<Stack>> stacks;
};

// The experiments, in the registry's (paper) order.
void fig7_ber(Report&);
void fig8_latency(Report&);
void fig10_scaleup(Report&);
void table1_workloads(Report&);
void fig12_poweroff(Report&);
void fig13_power(Report&);
void abl_fec_latency(Report&);
void abl_circuit_vs_packet(Report&);
void abl_link_partitioning(Report&);
void abl_memory_technology(Report&);
void abl_intra_tray(Report&);
void abl_placement_policy(Report&);
void abl_migration(Report&);
void abl_elasticity_tiers(Report&);
void abl_power_management(Report&);
void abl_near_data(Report&);
void abl_memory_controllers(Report&);
void abl_tco_refresh(Report&);
void abl_consolidation(Report&);
void abl_app_slowdown(Report&);
void abl_fabric_throughput(Report&);

}  // namespace dredbox::repro
