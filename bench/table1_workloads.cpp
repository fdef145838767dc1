// Reproduces Table I: the six VM workload mixes with different types of
// resource requirements used for the TCO studies, plus empirical moments
// of the generator that drives Figs. 12-13.

#include "repro.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "tco/workload.hpp"

namespace dredbox::repro {
namespace {

/// Table I's intent for a mix's CPU:RAM ratio: RAM-heavy mixes well below
/// one vCPU per GB, CPU-heavy mixes well above, balanced mixes at one.
Bound cpu_ram_ratio_bound(tco::WorkloadType type) {
  switch (type) {
    case tco::WorkloadType::kHighRam:
    case tco::WorkloadType::kMoreRam: return below(0.5);
    case tco::WorkloadType::kHighCpu:
    case tco::WorkloadType::kMoreCpu: return above(2.0);
    default: return within(0.9, 1.1);
  }
}

}  // namespace

void table1_workloads(Report& report) {
  std::printf("=== Table I: VM workloads for the TCO studies ===\n\n");

  sim::TextTable table{{"Configuration", "vCPUs", "RAM"}};
  for (tco::WorkloadType type : tco::all_workload_types()) {
    const auto r = tco::ranges_for(type);
    const std::string cpus = r.cpu_lo == r.cpu_hi
                                 ? std::to_string(r.cpu_lo) + " cores"
                                 : std::to_string(r.cpu_lo) + "-" + std::to_string(r.cpu_hi) +
                                       " cores";
    const std::string ram = r.ram_lo_gb == r.ram_hi_gb
                                ? std::to_string(r.ram_lo_gb) + " GB"
                                : std::to_string(r.ram_lo_gb) + "-" +
                                      std::to_string(r.ram_hi_gb) + " GB";
    table.add_row({tco::to_string(type), cpus, ram});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Empirical generator moments (100k draws per mix):\n");
  sim::TextTable moments{{"Configuration", "mean vCPUs", "mean RAM (GB)", "CPU:RAM ratio"}};
  struct Moments {
    tco::WorkloadType type;
    double cpus, ram;
  };
  std::vector<Moments> measured;
  for (tco::WorkloadType type : tco::all_workload_types()) {
    const tco::WorkloadGenerator gen{type};
    sim::Rng rng{1};
    sim::RunningStats cpus, ram;
    for (int i = 0; i < 100000; ++i) {
      const auto vm = gen.next(rng);
      cpus.add(static_cast<double>(vm.vcpus));
      ram.add(static_cast<double>(vm.ram_gb));
    }
    moments.add_row({tco::to_string(type), sim::TextTable::num(cpus.mean(), 2),
                     sim::TextTable::num(ram.mean(), 2),
                     sim::TextTable::num(cpus.mean() / ram.mean(), 2)});
    measured.push_back({type, cpus.mean(), ram.mean()});
  }
  std::printf("%s\n", moments.to_string().c_str());
  sim::maybe_write_csv("table1_workloads", table);
  sim::maybe_write_csv("table1_moments", moments);
  std::printf("Unbalanced mixes (High RAM, High CPU, More Ram, More CPU) are the ones\n");
  std::printf("where Figs. 12-13 show the dReDBox advantage.\n");

  for (const Moments& m : measured) {
    const auto r = tco::ranges_for(m.type);
    const std::string mix = tco::to_string(m.type);
    report.check(mix + " mean vCPUs vs its range", "Table I", m.cpus,
                 within(static_cast<double>(r.cpu_lo), static_cast<double>(r.cpu_hi)));
    report.check(mix + " mean RAM (GB) vs its range", "Table I", m.ram,
                 within(static_cast<double>(r.ram_lo_gb), static_cast<double>(r.ram_hi_gb)));
    report.check(mix + " CPU:RAM ratio", "Table I", m.cpus / m.ram,
                 cpu_ram_ratio_bound(m.type));
  }
}

}  // namespace dredbox::repro
