// Ablation: power-aware VM consolidation (project objective: "aggressive
// power-aware resource management/scheduling"). After a burst of tenant
// churn leaves single VMs scattered across many dCOMPUBRICKs, one
// consolidation pass packs them — cheap because disaggregated segments
// are re-pointed, not copied — and the emptied bricks power off.

#include "orch/consolidator.hpp"
#include "repro.hpp"

namespace dredbox::repro {

void abl_consolidation(Report& report) {
  std::printf("=== Ablation: consolidation + power-off closed loop ===\n\n");

  ManagedRack fab;
  hw::Rack& rack = fab.rack;
  orch::MigrationEngine engine{rack, fab.fabric, fab.sdm, fab.telemetry};
  orch::PowerManager power{rack, fab.telemetry};

  std::vector<hw::BrickId> computes;
  hw::ComputeBrickConfig cc;
  cc.apu_cores = 4;
  cc.local_memory_bytes = 8 * kGiB;
  for (int i = 0; i < 8; ++i) {
    computes.push_back(fab.add_compute(i < 4 ? fab.tray_a : fab.tray_b, cc));
  }
  hw::MemoryBrickConfig mc;
  mc.capacity_bytes = 64 * kGiB;
  rack.add_memory_brick(fab.tray_b, mc);

  // Tenant churn aftermath: one 1-core VM stranded on each brick, each
  // holding 1 GiB of disaggregated memory.
  for (std::size_t i = 0; i < fab.stacks.size(); ++i) {
    auto vm = fab.stacks[i]->hypervisor.create_vm(1, kGiB);
    orch::ScaleUpRequest req;
    req.vm = *vm;
    req.compute = computes[i];
    req.bytes = kGiB;
    req.posted_at = sim::Time::sec(static_cast<double>(i));
    if (!fab.sdm.scale_up(req).ok) throw std::runtime_error("setup scale-up failed");
  }

  hw::PowerModel pm;
  auto active_bricks = [&] {
    std::size_t n = 0;
    for (hw::BrickId cb : computes) {
      if (rack.brick(cb).power_state() != hw::PowerState::kOff) ++n;
    }
    return n;
  };
  const double power_before = rack.power_draw_watts(pm, fab.sw.ports_in_use());
  const std::size_t bricks_before = active_bricks();

  orch::Consolidator consolidator{rack, fab.sdm, engine, power};
  const auto pass = consolidator.consolidate(sim::Time::sec(100));

  const double power_after = rack.power_draw_watts(pm, fab.sw.ports_in_use());
  const std::size_t bricks_after = active_bricks();

  sim::TextTable table{{"", "before", "after one pass"}};
  table.add_row({"powered compute bricks", std::to_string(bricks_before),
                 std::to_string(bricks_after)});
  table.add_row({"rack power (W)", sim::TextTable::num(power_before, 1),
                 sim::TextTable::num(power_after, 1)});
  std::printf("%s\n", table.to_string().c_str());

  std::printf("pass summary: %zu migrations in %s total (memory re-pointed, not\n",
              pass.migrations, pass.total_migration_time.to_string().c_str());
  std::uint64_t repointed = 0;
  for (const auto& m : pass.moves) repointed += m.repointed_bytes;
  std::printf("copied: %llu GiB followed the VMs); %zu bricks emptied, %zu swept off\n\n",
              static_cast<unsigned long long>(repointed >> 30), pass.bricks_emptied,
              pass.bricks_powered_off);

  report.check("rack power cut by one consolidation pass", "objectives",
               (power_before - power_after) / power_before, above(0.2));
}

}  // namespace dredbox::repro
