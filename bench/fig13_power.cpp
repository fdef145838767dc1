// Reproduces Fig. 13: estimation of power consumption, normalized to the
// conventional datacenter. The paper reports that powering down unused
// resources can translate into almost 50% energy savings for workloads
// with diverse, unbalanced resource requirements.

#include <algorithm>

#include "repro.hpp"
#include "tco/tco_study.hpp"

namespace dredbox::repro {

void fig13_power(Report& report) {
  tco::TcoConfig config;
  config.servers = 64;
  config.repetitions = 10;
  const tco::TcoStudy study{config};

  std::printf("=== Fig. 13: power consumption normalized to conventional ===\n");
  std::printf("%s\n", study.describe_datacenters().c_str());
  std::printf("Power model: dCOMPUBRICK %.0f W, dMEMBRICK %.0f W, server = brick-\n",
              config.power.compute_brick_w, config.power.memory_brick_w);
  std::printf("equivalent %.0f W, switch %.1f W per active brick; off units draw 0 W.\n\n",
              config.server_equivalent_w(), config.power.switch_share_per_active_brick_w);

  sim::TextTable table{{"Workload", "conventional", "dReDBox", "savings"}};
  double best_savings = 0.0;
  double halfhalf_savings = 0.0;
  for (const auto& row : study.run_power_all()) {
    table.add_row({tco::to_string(row.workload), sim::TextTable::num(row.conventional_norm, 2),
                   sim::TextTable::num(row.dredbox_norm, 3),
                   sim::TextTable::pct(row.savings())});
    best_savings = std::max(best_savings, row.savings());
    if (row.workload == tco::WorkloadType::kHalfHalf) halfhalf_savings = row.savings();
  }
  std::printf("%s\n", table.to_string().c_str());
  sim::maybe_write_csv("fig13_power", table);

  std::printf("Normalized power (conventional = 1.00):\n");
  for (const auto& row : study.run_power_all()) {
    std::printf("  %-9s conventional 1.00 |%s\n", tco::to_string(row.workload).c_str(),
                sim::ascii_bar(1.0, 1.0, 40).c_str());
    std::printf("  %-9s dReDBox      %.2f |%s\n", tco::to_string(row.workload).c_str(),
                row.dredbox_norm, sim::ascii_bar(row.dredbox_norm, 1.0, 40).c_str());
  }

  std::printf("\n");
  report.check("best savings on unbalanced workloads (paper: almost 50%)", "Fig. 13",
               best_savings, within(0.35, 0.70));
  report.check("balanced Half-Half savings", "Fig. 13", halfhalf_savings, below(0.15));
}

}  // namespace dredbox::repro
