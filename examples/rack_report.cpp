// Operator's rack health report: builds a working deployment, drives some
// load onto it, then renders the SDM-C resource inventory, per-circuit
// optical link budgets with BER margins, and the rack power picture —
// the introspection surface an operations dashboard would poll.
//
//   $ ./rack_report

#include <cstdio>

#include "core/dredbox.hpp"
#include "core/scenario.hpp"
#include "sim/trace_export.hpp"

using namespace dredbox;
constexpr std::uint64_t kGiB = 1ull << 30;

int main() {
  std::printf("dReDBox rack report (library v%s)\n", kVersionString);

  auto scenario = core::ScenarioBuilder{}.racks(2, 2, 2).telemetry().build();
  core::Datacenter& dc = scenario.datacenter();

  // Put the rack under some load: three tenants, one with remote memory
  // on another tray (an optical circuit), one intra-tray (electrical).
  const auto web = dc.boot_vm("web", 2, 2 * kGiB);
  const auto db = dc.boot_vm("db", 2, 2 * kGiB);
  const auto cache = dc.boot_vm("cache", 2, 2 * kGiB);
  if (!web.ok || !db.ok || !cache.ok) {
    std::printf("boot failed\n");
    return 1;
  }
  dc.advance_to(sim::Time::sec(10));
  dc.scale_up(db.vm, db.compute, 4 * kGiB);
  dc.advance_to(sim::Time::sec(20));
  dc.scale_up(cache.vm, cache.compute, 8 * kGiB);
  dc.advance_to(sim::Time::sec(30));

  // One cross-tray, dual-lane attachment so the optical fabric carries
  // live circuits for the link-budget section below.
  hw::BrickId far_membrick;
  const hw::TrayId web_tray = dc.rack().brick(web.compute).tray();
  for (hw::BrickId mb : dc.memory_bricks()) {
    if (dc.rack().brick(mb).tray() != web_tray) {
      far_membrick = mb;
      break;
    }
  }
  memsys::AttachRequest xreq;
  xreq.compute = web.compute;
  xreq.membrick = far_membrick;
  xreq.bytes = 2 * kGiB;
  xreq.lanes = 2;
  if (auto attached = dc.fabric().attach(xreq, dc.simulator().now())) {
    dc.agent_of(web.compute).attach_physical(*attached);
    dc.agent_of(web.compute).expand_guest(web.vm, *attached, dc.simulator().now());
  }

  // --- inventory ---
  std::printf("\n== SDM-C resource inventory ==\n");
  sim::TextTable inv{{"brick", "kind", "tray", "power", "cores", "memory", "segments",
                      "ports", "VMs"}};
  for (const auto& s : dc.sdm().inventory()) {
    std::string cores = s.kind == hw::BrickKind::kCompute
                            ? std::to_string(s.cores_used) + "/" + std::to_string(s.cores_total)
                            : "-";
    std::string memory =
        s.kind == hw::BrickKind::kMemory
            ? std::to_string(s.memory_used >> 30) + "/" + std::to_string(s.memory_total >> 30) +
                  " GiB"
            : "-";
    inv.add_row({s.brick.to_string(), hw::to_string(s.kind), s.tray.to_string(),
                 hw::to_string(s.power), cores, memory,
                 s.kind == hw::BrickKind::kMemory ? std::to_string(s.segments) : "-",
                 std::to_string(s.ports_used) + "/" + std::to_string(s.ports_total),
                 s.kind == hw::BrickKind::kCompute ? std::to_string(s.vms) : "-"});
  }
  std::printf("%s", inv.to_string().c_str());

  // --- attachments and media ---
  std::printf("\n== Remote-memory attachments ==\n");
  sim::TextTable att{{"compute", "dMEMBRICK", "size", "medium", "lanes", "window base"}};
  for (hw::BrickId cb : dc.compute_bricks()) {
    for (const auto& a : dc.fabric().attachments_of(cb)) {
      char base[32];
      std::snprintf(base, sizeof base, "0x%llx",
                    static_cast<unsigned long long>(a.compute_base));
      att.add_row({a.compute.to_string(), a.membrick.to_string(),
                   std::to_string(a.size >> 30) + " GiB", memsys::to_string(a.medium),
                   std::to_string(a.lanes), base});
    }
  }
  std::printf("%s", att.to_string().c_str());

  // --- optical link health ---
  std::printf("\n== Optical circuit link budgets ==\n");
  const optics::ReceiverModel rx{-16.5, 10.0};
  std::printf("receiver sensitivity: %.1f dBm at BER 1e-12\n", rx.sensitivity_dbm());
  std::printf("switch: %zu/%zu ports in use, %.2f W\n", dc.optical_switch().ports_in_use(),
              dc.optical_switch().port_count(), dc.optical_switch().power_draw_watts());
  for (hw::BrickId cb : dc.compute_bricks()) {
    for (const auto& a : dc.fabric().attachments_of(cb)) {
      if (a.medium != memsys::LinkMedium::kOptical) continue;
      const optics::Circuit* circuit = dc.circuits().find(a.circuit);
      if (circuit == nullptr) continue;
      const auto budget = dc.circuits().budget(*circuit, /*from_a=*/true);
      const double margin = budget.received_dbm() - rx.required_power_dbm(1e-12);
      std::printf("  circuit %s (brick %s <-> %s): rx %.2f dBm, BER %.1e, margin %.1f dB\n",
                  a.circuit.to_string().c_str(), circuit->a.brick.to_string().c_str(),
                  circuit->b.brick.to_string().c_str(), budget.received_dbm(),
                  rx.ber(budget.received_dbm()), margin);
    }
  }

  // --- power ---
  std::printf("\n== Power ==\n");
  std::printf("rack draw: %.1f W\n", dc.power_draw_watts());

  // --- telemetry health snapshot: every named instrument the layers
  // recorded while the load above ran (the dashboard's raw feed; also
  // written to $DREDBOX_CSV_DIR/rack_telemetry.csv when that is set) ---
  std::printf("\n== Telemetry ==\n%s", dc.metrics().snapshot().to_string().c_str());
  try {
    dc.metrics().write_csv("rack_telemetry");
    sim::maybe_write_trace(dc.tracer());
  } catch (const std::exception& e) {
    std::printf("telemetry export failed: %s\n", e.what());
    return 1;
  }

  // --- CSV export of the inventory (for dashboards) ---
  std::printf("\n== Inventory CSV ==\n%s", inv.to_csv().c_str());
  return 0;
}
