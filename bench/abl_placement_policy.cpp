// Ablation: the SDM-C's power-consumption-conscious resource selection
// (Section IV-C, role (b)) vs a naive spreading policy. The packing
// policy is what turns independent resource pools into the Fig. 12/13
// power-off opportunity: it concentrates segments on already-active
// dMEMBRICKs so the rest can stay powered off.

#include "core/datacenter.hpp"
#include "repro.hpp"

namespace dredbox::repro {
namespace {

core::DatacenterConfig config() {
  core::DatacenterConfig cfg;
  cfg.trays = 2;
  cfg.compute_bricks_per_tray = 2;
  cfg.memory_bricks_per_tray = 4;  // 8 dMEMBRICKs x 32 GiB
  cfg.optical_switch.ports = 96;
  return cfg;
}

struct Outcome {
  std::size_t active_membricks = 0;
  std::size_t idle_membricks = 0;
  double power_w = 0.0;
};

/// Boots 4 VMs and issues 12 x 2 GiB scale-ups under the given policy.
Outcome run(bool power_conscious) {
  core::Datacenter dc{config()};
  std::vector<std::pair<hw::VmId, hw::BrickId>> vms;
  for (int i = 0; i < 4; ++i) {
    const auto r = dc.boot_vm("vm" + std::to_string(i), 1, kGiB);
    if (!r.ok) throw std::runtime_error("boot failed: " + r.error);
    vms.emplace_back(r.vm, r.compute);
  }

  const auto membricks = dc.memory_bricks();
  std::size_t rr = 0;
  for (int i = 0; i < 12; ++i) {
    auto [vm, brick] = vms[static_cast<std::size_t>(i) % vms.size()];
    dc.advance_to(sim::Time::sec(10.0 * (i + 1)));
    if (power_conscious) {
      const auto r = dc.scale_up(vm, brick, 2 * kGiB);
      if (!r.ok) throw std::runtime_error("scale-up failed: " + r.error);
    } else {
      // Naive spreading: round-robin the pool, waking every brick.
      memsys::AttachRequest areq;
      areq.compute = brick;
      areq.membrick = membricks[rr++ % membricks.size()];
      areq.bytes = 2 * kGiB;
      if (dc.rack().brick(areq.membrick).power_state() == hw::PowerState::kOff) {
        dc.rack().brick(areq.membrick).power_on();
      }
      const auto a = dc.fabric().attach(areq, dc.simulator().now());
      if (!a) throw std::runtime_error("attach failed");
      dc.agent_of(brick).attach_physical(*a);
      dc.agent_of(brick).expand_guest(vm, *a, dc.simulator().now());
    }
  }

  Outcome out;
  for (hw::BrickId mb : dc.memory_bricks()) {
    if (dc.rack().brick(mb).power_state() == hw::PowerState::kActive) {
      ++out.active_membricks;
    } else {
      ++out.idle_membricks;  // candidates for power-off
    }
  }
  // Power once idle bricks are actually powered off.
  for (hw::BrickId mb : dc.memory_bricks()) {
    auto& b = dc.rack().brick(mb);
    if (b.power_state() == hw::PowerState::kIdle) b.power_off();
  }
  out.power_w = dc.power_draw_watts();
  return out;
}

}  // namespace

void abl_placement_policy(Report& report) {
  std::printf("=== Ablation: power-conscious (SDM-C) vs naive spreading placement ===\n");
  std::printf("Workload: 4 VMs, 12 x 2 GiB scale-ups across an 8-dMEMBRICK pool\n\n");

  const Outcome packed = run(/*power_conscious=*/true);
  const Outcome spread = run(/*power_conscious=*/false);

  sim::TextTable table{{"policy", "active dMEMBRICKs", "power-off candidates", "rack power (W)"}};
  table.add_row({"SDM-C power-conscious", std::to_string(packed.active_membricks),
                 std::to_string(packed.idle_membricks),
                 sim::TextTable::num(packed.power_w, 1)});
  table.add_row({"naive spreading", std::to_string(spread.active_membricks),
                 std::to_string(spread.idle_membricks),
                 sim::TextTable::num(spread.power_w, 1)});
  std::printf("%s\n", table.to_string().c_str());

  const double saving = (spread.power_w - packed.power_w) / spread.power_w;
  report.check("active dMEMBRICKs under SDM-C packing vs naive spreading", "§IV-C",
               static_cast<double>(packed.active_membricks),
               below(static_cast<double>(spread.active_membricks)));
  report.check("rack power saved by packing for the same served memory", "§IV-C", saving,
               above(0.0));
}

}  // namespace dredbox::repro
