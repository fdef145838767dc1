// Reproduces Fig. 11 (resource-equivalent datacenter configurations) and
// Fig. 12 (percentage of unutilized resources that can be powered off).
// The paper reports that depending on the VM mix, up to 88% of
// dMEMBRICKs or dCOMPUBRICKs can be powered off, whereas in a
// conventional datacenter only ~15% of hosts can.

#include <algorithm>

#include "repro.hpp"
#include "tco/tco_study.hpp"

namespace dredbox::repro {

void fig12_poweroff(Report& report) {
  tco::TcoConfig config;
  config.servers = 64;
  config.repetitions = 10;
  const tco::TcoStudy study{config};

  std::printf("=== Fig. 11: resource-equivalent datacenters ===\n%s\n\n",
              study.describe_datacenters().c_str());
  std::printf("Scheduling: FCFS, workload bounded at %.0f%% of the binding resource\n\n",
              config.target_utilization * 100);

  std::printf("=== Fig. 12: %% of unutilized resources that can be powered off ===\n\n");
  sim::TextTable table{{"Workload", "conventional (servers)", "dReDBox (dCOMPUBRICKs)",
                        "dReDBox (dMEMBRICKs)", "dReDBox (all bricks)", "VMs"}};
  double best_dd = 0.0;
  double best_conv = 0.0;
  for (const auto& row : study.run_poweroff_all()) {
    table.add_row({tco::to_string(row.workload), sim::TextTable::pct(row.conventional_off),
                   sim::TextTable::pct(row.dd_compute_off),
                   sim::TextTable::pct(row.dd_memory_off),
                   sim::TextTable::pct(row.dd_combined_off),
                   sim::TextTable::num(row.vms_scheduled, 0)});
    best_dd = std::max({best_dd, row.dd_compute_off, row.dd_memory_off});
    best_conv = std::max(best_conv, row.conventional_off);
  }
  std::printf("%s\n", table.to_string().c_str());
  sim::maybe_write_csv("fig12_poweroff", table);

  std::printf("Bars (best powered-off class per workload):\n");
  for (const auto& row : study.run_poweroff_all()) {
    const double dd = std::max(row.dd_compute_off, row.dd_memory_off);
    std::printf("  %-9s dReDBox      %5.1f%% |%s\n", tco::to_string(row.workload).c_str(),
                dd * 100, sim::ascii_bar(dd, 1.0, 40).c_str());
    std::printf("  %-9s conventional %5.1f%% |%s\n", tco::to_string(row.workload).c_str(),
                row.conventional_off * 100, sim::ascii_bar(row.conventional_off, 1.0, 40).c_str());
  }

  std::printf("\n");
  report.check("best share of one brick class powered off (paper: up to ~88%)", "Fig. 12",
               best_dd, above(0.75));
  report.check("best share of conventional servers powered off (paper: ~15%)", "Fig. 12",
               best_conv, at_most(0.20));
}

}  // namespace dredbox::repro
