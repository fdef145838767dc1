// dredbox_repro: reproduces the paper's evaluation. Each experiment prints
// the tables of one figure, table or design rationale and checks the claims
// the paper makes about them; the driver exits non-zero when any claim does
// not reproduce or an experiment fails to run.
//
//   dredbox_repro              # every experiment, in paper order
//   dredbox_repro fig8_latency abl_migration
//
// DREDBOX_CSV_DIR=dir additionally writes the figure tables as CSV.

#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <vector>

#include "repro.hpp"
#include "sim/format.hpp"

namespace dredbox::repro {

bool Bound::holds(double measured) const {
  switch (op) {
    case Op::kBelow: return measured < value;
    case Op::kAtMost: return measured <= value;
    case Op::kAbove: return measured > value;
    case Op::kAtLeast: return measured >= value;
    case Op::kWithin: return measured >= value && measured <= upper;
  }
  return false;
}

std::string Bound::to_string() const {
  switch (op) {
    case Op::kBelow: return sim::strformat("< %.4g", value);
    case Op::kAtMost: return sim::strformat("<= %.4g", value);
    case Op::kAbove: return sim::strformat("> %.4g", value);
    case Op::kAtLeast: return sim::strformat(">= %.4g", value);
    case Op::kWithin: return sim::strformat("in [%.4g, %.4g]", value, upper);
  }
  return "?";
}

bool Report::check(const std::string& claim, const std::string& section, double measured,
                   const Bound& bound) {
  const bool ok = bound.holds(measured);
  std::printf("%s (%s): %.4g %s -> %s\n", claim.c_str(), section.c_str(), measured,
              bound.to_string().c_str(), ok ? "REPRODUCED" : "NOT reproduced");
  ++checks_;
  if (!ok) failures_.push_back(claim + " (" + section + ")");
  return ok;
}

PacketPair::PacketPair(hw::BrickId cpu_id, hw::BrickId mem_id, optics::FecScheme fec)
    : cpu{cpu_id},
      mem{mem_id},
      network{telemetry, net::PacketPathLatencies{}, optics::FecModel{fec}} {
  network.add_brick(cpu);
  network.add_brick(mem);
  network.connect(cpu, mem, 10.0);
}

net::Packet PacketPair::read(std::uint32_t bytes, sim::Time when, hw::MemoryTechnology tech) {
  return network.remote_read(cpu, mem, 0x0, bytes, when, tech);
}

CircuitRack::CircuitRack(const optics::OpticalSwitchConfig& sw_config) : sw{sw_config} {}

memsys::Attachment CircuitRack::attach(hw::BrickId compute, hw::BrickId membrick,
                                       std::uint64_t bytes, std::size_t lanes) {
  memsys::AttachRequest req;
  req.compute = compute;
  req.membrick = membrick;
  req.bytes = bytes;
  req.lanes = lanes;
  const auto a = fabric.attach(req, sim::Time::zero());
  if (!a) throw std::runtime_error("attach failed: " + to_string(fabric.last_error()));
  return *a;
}

hw::BrickId ManagedRack::add_compute(hw::TrayId tray, const hw::ComputeBrickConfig& config) {
  auto& brick = rack.add_compute_brick(tray, config);
  stacks.push_back(std::make_unique<Stack>(brick, telemetry));
  sdm.register_agent(stacks.back()->agent);
  return brick.id();
}

namespace {

struct Experiment {
  const char* name;
  void (*run)(Report&);
};

// Paper order: the figures and Table I, then the design-rationale ablations.
constexpr Experiment kExperiments[] = {
    {"fig7_ber", fig7_ber},
    {"fig8_latency", fig8_latency},
    {"fig10_scaleup", fig10_scaleup},
    {"table1_workloads", table1_workloads},
    {"fig12_poweroff", fig12_poweroff},
    {"fig13_power", fig13_power},
    {"abl_fec_latency", abl_fec_latency},
    {"abl_circuit_vs_packet", abl_circuit_vs_packet},
    {"abl_link_partitioning", abl_link_partitioning},
    {"abl_memory_technology", abl_memory_technology},
    {"abl_intra_tray", abl_intra_tray},
    {"abl_placement_policy", abl_placement_policy},
    {"abl_migration", abl_migration},
    {"abl_elasticity_tiers", abl_elasticity_tiers},
    {"abl_power_management", abl_power_management},
    {"abl_near_data", abl_near_data},
    {"abl_memory_controllers", abl_memory_controllers},
    {"abl_tco_refresh", abl_tco_refresh},
    {"abl_consolidation", abl_consolidation},
    {"abl_app_slowdown", abl_app_slowdown},
    {"abl_fabric_throughput", abl_fabric_throughput},
};

const Experiment* find(const char* name) {
  for (const Experiment& e : kExperiments) {
    if (std::strcmp(e.name, name) == 0) return &e;
  }
  return nullptr;
}

}  // namespace
}  // namespace dredbox::repro

int main(int argc, char** argv) {
  using namespace dredbox::repro;
  std::vector<const Experiment*> selected;
  for (int i = 1; i < argc; ++i) {
    const Experiment* e = find(argv[i]);
    if (e == nullptr) {
      std::fprintf(stderr, "dredbox_repro: unknown experiment '%s'; known:\n", argv[i]);
      for (const Experiment& known : kExperiments) std::fprintf(stderr, "  %s\n", known.name);
      return 2;
    }
    selected.push_back(e);
  }
  if (selected.empty()) {
    for (const Experiment& e : kExperiments) selected.push_back(&e);
  }

  Report report;
  std::vector<std::string> errors;
  for (const Experiment* e : selected) {
    const std::size_t before = report.checks();
    try {
      e->run(report);
      if (report.checks() == before) errors.push_back(std::string{e->name} + ": checked no claim");
    } catch (const std::exception& ex) {
      errors.push_back(std::string{e->name} + ": " + ex.what());
    }
  }

  std::fflush(stdout);
  for (const std::string& f : report.failures()) {
    std::fprintf(stderr, "dredbox_repro: NOT reproduced: %s\n", f.c_str());
  }
  for (const std::string& err : errors) std::fprintf(stderr, "dredbox_repro: %s\n", err.c_str());
  return errors.empty() && report.failures().empty() ? 0 : 1;
}
