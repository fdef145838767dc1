// Extension bench: multi-year TCO with component-level technology refresh
// — the study the paper explicitly defers ("the modularity and
// interchangeability of the dBRICKs ... delivering technology refreshes
// at the component level instead of the server level. This study does not
// consider how these aspects ... affect the TCO; the latter is targeted
// by our on-going work", Section VI).

#include "repro.hpp"
#include "tco/refresh_model.hpp"

namespace dredbox::repro {

void abl_tco_refresh(Report& report) {
  tco::TcoConfig config;
  config.servers = 64;
  config.repetitions = 5;
  const tco::RefreshStudy study{config};
  const auto& costs = study.costs();

  std::printf("=== Extension: 5-year TCO with technology refresh ===\n");
  std::printf("procurement: server $%.0f | compute brick $%.0f | memory brick $%.0f\n",
              costs.server_cost, costs.compute_brick_cost, costs.memory_brick_cost);
  std::printf("refresh: servers every %.0fy (whole box) | compute bricks %.0fy |\n",
              costs.server_refresh_years, costs.compute_brick_refresh_years);
  std::printf("memory bricks %.0fy | salvage %.0f%% | energy $%.2f/kWh\n\n",
              costs.memory_brick_refresh_years, costs.salvage_fraction * 100,
              costs.usd_per_kwh);

  const double horizon = 5.0;
  sim::TextTable table{{"Workload", "conv capex+refresh", "conv energy", "conv total",
                        "dReDBox capex+refresh", "dReDBox energy", "dReDBox total",
                        "savings"}};
  double min_savings = 1.0;
  for (tco::WorkloadType type : tco::all_workload_types()) {
    const auto conv = study.conventional(type, horizon);
    const auto dd = study.dredbox(type, horizon);
    const double savings = study.savings(type, horizon);
    min_savings = std::min(min_savings, savings);
    auto usd_k = [](double v) { return sim::TextTable::num(v / 1000.0, 1) + "k"; };
    table.add_row({tco::to_string(type), usd_k(conv.capex_usd + conv.refresh_usd),
                   usd_k(conv.energy_usd), usd_k(conv.total()),
                   usd_k(dd.capex_usd + dd.refresh_usd), usd_k(dd.energy_usd),
                   usd_k(dd.total()), sim::TextTable::pct(savings)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Horizon sensitivity (Random mix):\n");
  sim::TextTable horizon_tbl{{"horizon", "savings"}};
  for (double years : {2.0, 4.0, 5.0, 7.0, 10.0}) {
    horizon_tbl.add_row({sim::TextTable::num(years, 0) + "y",
                         sim::TextTable::pct(study.savings(tco::WorkloadType::kRandom, years))});
  }
  std::printf("%s\n", horizon_tbl.to_string().c_str());

  report.check("smallest 5-year TCO savings over the six mixes", "§VI", min_savings,
               above(0.0));
  std::printf("The driver: each server refresh re-buys DRAM/chassis that the brick\n");
  std::printf("model keeps for another cadence.\n");
}

}  // namespace dredbox::repro
