// Ablation: application slowdown vs interconnect design point. The
// paper's introduction leans on prior studies ([1] SparkSQL over 40Gbps,
// [2] network requirements for disaggregation, [3] disaggregated blade
// memory) to argue feasibility; its own contribution is an interconnect
// whose remote-access round trip is sub-microsecond ("transparent access
// to remote memory with minimal latency"). This bench puts the measured
// round trips of every substrate this repository models through the
// first-order slowdown model, with 50% of each application's working set
// disaggregated.

#include <algorithm>

#include "core/app_performance.hpp"
#include "repro.hpp"

namespace dredbox::repro {
namespace {

struct Interconnect {
  const char* name;
  sim::Time round_trip;
};

}  // namespace

void abl_app_slowdown(Report& report) {
  std::printf("=== Ablation: application slowdown vs interconnect (50%% remote) ===\n\n");

  // Round trips measured by the other benches of this repository, plus
  // the commodity alternatives the related work evaluated.
  const Interconnect interconnects[] = {
      {"electrical intra-tray (abl_intra_tray)", sim::Time::ns(285)},
      {"optical circuit (abl_circuit_vs_packet)", sim::Time::ns(486)},
      {"packet substrate (fig8)", sim::Time::ns(1399)},
      {"RDMA/InfiniBand-class [5][6]", sim::Time::us(3)},
      {"40GbE block device-class", sim::Time::us(20)},
  };

  core::DisaggregationSlowdownModel model;
  const auto apps = core::DisaggregationSlowdownModel::reference_profiles();

  std::vector<std::string> header{"application"};
  for (const auto& ic : interconnects) header.push_back(ic.name);
  sim::TextTable table{header};
  for (const auto& app : apps) {
    std::vector<std::string> row{app.name};
    for (const auto& ic : interconnects) {
      row.push_back(sim::TextTable::num(model.slowdown(app, 0.5, ic.round_trip), 2) + "x");
    }
    table.add_row(row);
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Latency budget for <=10%% slowdown at 50%% remote working set:\n");
  sim::TextTable budget{{"application", "budget (round trip)"}};
  for (const auto& app : apps) {
    budget.add_row({app.name, model.latency_budget(app, 0.5, 1.10).to_string()});
  }
  std::printf("%s\n", budget.to_string().c_str());

  // The design-point check: the circuit path holds the pilot-class apps
  // near native; the commodity paths do not hold the demanding ones.
  double worst_pilot = 0.0, worst_analytics = 0.0, worst_commodity = 0.0;
  for (const auto& app : apps) {
    if (app.name.find("KV store") != std::string::npos) continue;
    const double s486 = model.slowdown(app, 0.5, sim::Time::ns(486));
    const bool pilot = app.name.find("video") != std::string::npos ||
                       app.name.find("NFV") != std::string::npos;
    double& worst = pilot ? worst_pilot : worst_analytics;
    worst = std::max(worst, s486);
    worst_commodity = std::max(worst_commodity, model.slowdown(app, 0.5, sim::Time::us(20)));
  }
  report.check("worst pilot slowdown on the sub-us circuit path", "§I", worst_pilot,
               below(1.10));
  report.check("worst analytics slowdown on the sub-us circuit path", "§I", worst_analytics,
               below(1.35));
  report.check("worst slowdown on a 40GbE-class path", "§I", worst_commodity, at_least(1.5));
  std::printf("\nThis is the quantitative case for the FEC-free, circuit-switched\n");
  std::printf("design: every 100 ns on the round trip is ~%.0f%% slowdown for the\n",
              (model.slowdown(apps[3], 0.5, sim::Time::ns(586)) -
               model.slowdown(apps[3], 0.5, sim::Time::ns(486))) *
                  100.0);
  std::printf("memory-intensive analytics profile at 50%% remote.\n");
}

}  // namespace dredbox::repro
