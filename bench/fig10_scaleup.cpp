// Reproduces Fig. 10: per-VM average delay (seconds) of dynamically
// scaling up/down memory, under 32/16/8-way scale-up concurrency,
// compared to elasticity through conventional VM scale-out [13].
// Lower is better; the paper reports memory expansion agility superior in
// the disaggregated approach even at the most extreme concurrency.

#include <algorithm>

#include "core/scaleup_experiment.hpp"
#include "repro.hpp"

namespace dredbox::repro {

void fig10_scaleup(Report& report) {
  std::printf("=== Fig. 10: scale-up agility vs conventional scale-out ===\n");
  std::printf("N VMs post memory scale-up requests within a 1 s interval;\n");
  std::printf("scale-out baseline spawns an additional VM per request [13].\n\n");

  core::Fig10Config config;
  config.concurrency_levels = {32, 16, 8};
  config.repetitions = 5;
  core::ScaleUpAgilityExperiment experiment{config};
  const auto rows = experiment.run();

  sim::TextTable table{{"concurrency", "scale-up avg (s)", "scale-up p95 (s)",
                        "scale-down avg (s)", "scale-out avg (s)", "speedup"}};
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.concurrency),
                   sim::TextTable::num(row.scale_up_avg_s, 3) + " ± " +
                       sim::TextTable::num(row.scale_up_ci95_s, 3),
                   sim::TextTable::num(row.scale_up_p95_s, 3),
                   sim::TextTable::num(row.scale_down_avg_s, 3),
                   sim::TextTable::num(row.scale_out_avg_s, 1) + " ± " +
                       sim::TextTable::num(row.scale_out_ci95_s, 1),
                   sim::TextTable::num(row.speedup(), 0) + "x"});
  }
  std::printf("%s\n", table.to_string().c_str());
  sim::maybe_write_csv("fig10_scaleup", table);

  std::printf("Per-VM average delay (lower is better):\n");
  double full_scale = 0.0;
  for (const auto& row : rows) full_scale = std::max(full_scale, row.scale_out_avg_s);
  for (const auto& row : rows) {
    std::printf("  %2zu VMs  scale-up  %8.3f s |%s\n", row.concurrency, row.scale_up_avg_s,
                sim::ascii_bar(row.scale_up_avg_s, full_scale, 50).c_str());
    std::printf("  %2zu VMs  scale-out %8.3f s |%s\n", row.concurrency, row.scale_out_avg_s,
                sim::ascii_bar(row.scale_out_avg_s, full_scale, 50).c_str());
  }

  // Extension: sensitivity to the grant size (the paper fixes one size;
  // hotplug and guest-online costs scale with GiB).
  std::printf("\nGrant-size sensitivity (16-way concurrency):\n");
  sim::TextTable size_tbl{{"grant", "scale-up avg (s)", "scale-out avg (s)", "speedup"}};
  for (const std::uint64_t gib : {1ull, 2ull, 4ull}) {
    core::Fig10Config size_cfg;
    size_cfg.concurrency_levels = {16};
    size_cfg.repetitions = 3;
    size_cfg.bytes_per_request = gib << 30;
    core::ScaleUpAgilityExperiment size_exp{size_cfg};
    const auto row = size_exp.run_level(16);
    size_tbl.add_row({std::to_string(gib) + " GiB",
                      sim::TextTable::num(row.scale_up_avg_s, 3),
                      sim::TextTable::num(row.scale_out_avg_s, 1),
                      sim::TextTable::num(row.speedup(), 0) + "x"});
  }
  std::printf("%s\n", size_tbl.to_string().c_str());

  double min_speedup = rows.front().speedup();
  for (const auto& row : rows) min_speedup = std::min(min_speedup, row.speedup());
  report.check("smallest scale-out/scale-up delay ratio over 32/16/8 VMs", "Fig. 10",
               min_speedup, above(1.0));
  report.check("32-VM scale-up delay (s) vs 16 VMs", "Fig. 10", rows.at(0).scale_up_avg_s,
               at_least(rows.at(1).scale_up_avg_s));
  report.check("16-VM scale-up delay (s) vs 8 VMs", "Fig. 10", rows.at(1).scale_up_avg_s,
               at_least(rows.at(2).scale_up_avg_s));
}

}  // namespace dredbox::repro
