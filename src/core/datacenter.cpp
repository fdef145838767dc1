#include "core/datacenter.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "sim/contract.hpp"
#include "sim/digest.hpp"
#include "sim/format.hpp"

namespace dredbox::core {

namespace {

/// Worst plausible receiver sensitivity: no deployable photodetector
/// recovers a signal this faint, so a link budget that lands below it is
/// a configuration error, not a marginal design.
constexpr double kAbsurdSensitivityDbm = -40.0;

void require(std::vector<std::string>& errors, bool ok, const std::string& message) {
  if (!ok) errors.push_back(message);
}

void require_non_negative(std::vector<std::string>& errors, sim::Time t, const char* field) {
  if (t < sim::Time::zero()) {
    errors.push_back(sim::strformat("%s: control-path time must be non-negative, got %s",
                                    field, t.to_string().c_str()));
  }
}

}  // namespace

std::vector<std::string> DatacenterConfig::validate() const {
  std::vector<std::string> errors;

  // --- rack shape ---
  require(errors, trays >= 1, "trays: rack must carry at least one tray");
  const std::size_t bricks_per_tray =
      compute_bricks_per_tray + memory_bricks_per_tray + accelerator_bricks_per_tray;
  require(errors, trays == 0 || bricks_per_tray >= 1,
          "compute_bricks_per_tray/memory_bricks_per_tray/accelerator_bricks_per_tray: "
          "zero-brick rack (every per-tray brick count is 0)");

  // --- optical switch ---
  require(errors, optical_switch.ports >= 2,
          sim::strformat("optical_switch.ports: switch radix must be >= 2, got %zu",
                         optical_switch.ports));
  require(errors,
          std::isfinite(optical_switch.insertion_loss_db) &&
              optical_switch.insertion_loss_db >= 0.0,
          sim::strformat("optical_switch.insertion_loss_db: must be finite and >= 0, got %g",
                         optical_switch.insertion_loss_db));
  require(errors, optical_switch.power_per_port_w >= 0.0,
          sim::strformat("optical_switch.power_per_port_w: must be >= 0, got %g",
                         optical_switch.power_per_port_w));
  require_non_negative(errors, optical_switch.reconfiguration_time,
                       "optical_switch.reconfiguration_time");

  // --- per-brick resources (checked only for brick kinds the rack hosts) ---
  const auto check_ports = [&](std::size_t ports, const char* field) {
    require(errors, ports >= 1,
            sim::strformat("%s: brick needs at least one circuit-facing port", field));
    require(errors, ports <= optical_switch.ports,
            sim::strformat("%s: %zu transceiver lanes exceed the optical switch radix "
                           "(optical_switch.ports = %zu)",
                           field, ports, optical_switch.ports));
  };
  if (compute_bricks_per_tray > 0) {
    require(errors, compute.apu_cores >= 1, "compute.apu_cores: must be >= 1");
    require(errors, compute.local_memory_bytes > 0,
            "compute.local_memory_bytes: brick-local DDR must be non-empty");
    check_ports(compute.transceiver_ports, "compute.transceiver_ports");
    require(errors, compute.port_rate_gbps > 0.0,
            sim::strformat("compute.port_rate_gbps: line rate must be positive, got %g",
                           compute.port_rate_gbps));
    require(errors, compute.rmst_entries >= 1,
            "compute.rmst_entries: the segment table needs at least one entry");
    require(errors, compute.remote_window_base > compute.local_memory_bytes,
            "compute.remote_window_base: remote window must sit above local DDR");
  }
  if (memory_bricks_per_tray > 0) {
    require(errors, memory.capacity_bytes > 0,
            "memory.capacity_bytes: dMEMBRICK pool must be non-empty");
    require(errors, memory.memory_controllers >= 1,
            "memory.memory_controllers: must be >= 1");
    check_ports(memory.transceiver_ports, "memory.transceiver_ports");
    require(errors, memory.port_rate_gbps > 0.0,
            sim::strformat("memory.port_rate_gbps: line rate must be positive, got %g",
                           memory.port_rate_gbps));
  }
  if (accelerator_bricks_per_tray > 0) {
    require(errors, accelerator.pl_ddr_bytes > 0,
            "accelerator.pl_ddr_bytes: accelerator-local DDR must be non-empty");
    check_ports(accelerator.transceiver_ports, "accelerator.transceiver_ports");
    require(errors, accelerator.port_rate_gbps > 0.0,
            sim::strformat("accelerator.port_rate_gbps: line rate must be positive, got %g",
                           accelerator.port_rate_gbps));
    require(errors, accelerator.pcap_bandwidth_bytes_per_sec > 0.0,
            "accelerator.pcap_bandwidth_bytes_per_sec: PCAP rate must be positive");
  }

  // --- mid-board optics & link budget ---
  require(errors, mbo.channels >= 1, "mbo.channels: MBO needs at least one transceiver");
  require(errors, mbo.channels <= optical_switch.ports,
          sim::strformat("mbo.channels: %zu channels exceed the optical switch radix "
                         "(optical_switch.ports = %zu)",
                         mbo.channels, optical_switch.ports));
  require(errors, mbo.rate_gbps > 0.0,
          sim::strformat("mbo.rate_gbps: line rate must be positive, got %g", mbo.rate_gbps));
  require(errors, std::isfinite(mbo.coupling_loss_db) && mbo.coupling_loss_db >= 0.0,
          sim::strformat("mbo.coupling_loss_db: must be finite and >= 0, got %g",
                         mbo.coupling_loss_db));
  require(errors, mbo.channel_spread_db >= 0.0,
          sim::strformat("mbo.channel_spread_db: must be >= 0, got %g", mbo.channel_spread_db));
  require(errors, mbo.wavelength_nm > 0.0,
          sim::strformat("mbo.wavelength_nm: must be positive, got %g", mbo.wavelength_nm));
  if (std::isfinite(mbo.mean_launch_dbm) && std::isfinite(mbo.coupling_loss_db) &&
      std::isfinite(optical_switch.insertion_loss_db)) {
    // Single-hop budget: launch power minus both fibre couplings and one
    // switch traversal. A non-positive budget (below any receiver) means
    // the configured losses consume the whole launch power.
    const double received_dbm = mbo.mean_launch_dbm - 2.0 * mbo.coupling_loss_db -
                                optical_switch.insertion_loss_db;
    require(errors, received_dbm > kAbsurdSensitivityDbm,
            sim::strformat("mbo.mean_launch_dbm: single-hop link budget is not positive "
                           "(%.1f dBm launch - %.1f dB coupling - %.1f dB insertion = "
                           "%.1f dBm received, below the %.1f dBm floor)",
                           mbo.mean_launch_dbm, 2.0 * mbo.coupling_loss_db,
                           optical_switch.insertion_loss_db, received_dbm,
                           kAbsurdSensitivityDbm));
  } else {
    require(errors, false, "mbo.mean_launch_dbm: link-budget terms must be finite");
  }

  // --- data-path latency models ---
  require_non_negative(errors, circuit_path.tgl_lookup, "circuit_path.tgl_lookup");
  require_non_negative(errors, circuit_path.serdes, "circuit_path.serdes");
  require_non_negative(errors, circuit_path.glue_logic, "circuit_path.glue_logic");
  require_non_negative(errors, circuit_path.ddr_access, "circuit_path.ddr_access");
  require_non_negative(errors, circuit_path.hmc_access, "circuit_path.hmc_access");
  require(errors, circuit_path.line_rate_gbps > 0.0,
          "circuit_path.line_rate_gbps: must be positive");
  require(errors, circuit_path.ddr_bandwidth_gbps > 0.0,
          "circuit_path.ddr_bandwidth_gbps: must be positive");
  require(errors, circuit_path.hmc_bandwidth_gbps > 0.0,
          "circuit_path.hmc_bandwidth_gbps: must be positive");
  require(errors, circuit_path.electrical_rate_gbps > 0.0,
          "circuit_path.electrical_rate_gbps: must be positive");

  // --- control-path service times ---
  require_non_negative(errors, sdm.api_relay, "sdm.api_relay");
  require_non_negative(errors, sdm.inspect_and_select, "sdm.inspect_and_select");
  require_non_negative(errors, sdm.agent_rpc, "sdm.agent_rpc");
  require_non_negative(errors, sdm.glue_configure, "sdm.glue_configure");
  require_non_negative(errors, sdm.hypervisor_handoff, "sdm.hypervisor_handoff");
  require_non_negative(errors, hotplug.fixed_cost, "hotplug.fixed_cost");
  require_non_negative(errors, hotplug.per_gib_cost, "hotplug.per_gib_cost");
  require_non_negative(errors, hotplug.remove_fixed_cost, "hotplug.remove_fixed_cost");
  require_non_negative(errors, hotplug.remove_per_gib_cost, "hotplug.remove_per_gib_cost");
  require_non_negative(errors, hypervisor.dimm_insert_fixed, "hypervisor.dimm_insert_fixed");
  require_non_negative(errors, hypervisor.guest_online_per_gib,
                       "hypervisor.guest_online_per_gib");
  require_non_negative(errors, hypervisor.balloon_per_gib, "hypervisor.balloon_per_gib");

  // --- orchestration policies ---
  require(errors, migration.network_bandwidth_gbps > 0.0,
          "migration.network_bandwidth_gbps: must be positive");
  require(errors, migration.max_precopy_iterations >= 1,
          "migration.max_precopy_iterations: must be >= 1");
  require(errors,
          oom_guard.pressure_threshold > 0.0 && oom_guard.pressure_threshold <= 1.0,
          sim::strformat("oom_guard.pressure_threshold: must be in (0, 1], got %g",
                         oom_guard.pressure_threshold));
  require(errors, oom_guard.relax_threshold < oom_guard.pressure_threshold,
          sim::strformat("oom_guard.relax_threshold: must be below pressure_threshold "
                         "(%g >= %g)",
                         oom_guard.relax_threshold, oom_guard.pressure_threshold));
  require(errors, oom_guard.scale_chunk_bytes > 0,
          "oom_guard.scale_chunk_bytes: must be positive");

  // --- retry policy ---
  if (fabric_retry) {
    try {
      fabric_retry->validate();
    } catch (const std::invalid_argument& e) {
      errors.push_back(std::string{"fabric_retry: "} + e.what());
    }
  }

  // --- multi-rack topology (only armed when racks were declared) ---
  if (!racks.empty()) {
    for (std::size_t i = 0; i < racks.size(); ++i) {
      const RackSpec& rack = racks[i];
      require(errors, rack.trays >= 1,
              sim::strformat("racks[%zu].trays: rack must carry at least one tray", i));
      require(errors,
              rack.compute_bricks_per_tray + rack.memory_bricks_per_tray +
                      rack.accelerator_bricks_per_tray >= 1,
              sim::strformat("racks[%zu]: rack needs at least one brick per tray", i));
      require(errors, rack.compute_bricks_per_tray >= 1,
              sim::strformat("racks[%zu].compute_bricks_per_tray: a cluster rack needs a "
                             "compute brick to host its spine gateway",
                             i));
      require(errors, rack.memory_bricks_per_tray >= 1,
              sim::strformat("racks[%zu].memory_bricks_per_tray: a cluster rack needs "
                             "memory bricks to export a gateway window",
                             i));
    }
    require(errors, spine.ports >= racks.size(),
            sim::strformat("spine.ports: radix %zu below the %zu racks to attach",
                           spine.ports, racks.size()));
    require(errors, spine.propagation > sim::Time::zero(),
            "spine.propagation: must be strictly positive (it is the partitioned "
            "kernel's conservative lookahead)");
    require(errors, spine.bandwidth_gbps > 0.0,
            "spine.bandwidth_gbps: must be positive");
    require(errors, spine.per_port_power_w >= 0.0,
            "spine.per_port_power_w: cannot be negative");
    require(errors, spine.gateway_bytes >= (1u << 20),
            "spine.gateway_bytes: each rack's cross-rack window needs at least 1 MiB");
    require(errors, spine.cross_share >= 0.0 && spine.cross_share <= 1.0,
            sim::strformat("spine.cross_share: %g outside [0, 1]", spine.cross_share));
    for (std::size_t i = 0; i < spine.faults.size(); ++i) {
      const sim::FaultEvent& fault = spine.faults.events()[i];
      require(errors, fault.kind == sim::FaultKind::kSpineLinkDown,
              sim::strformat("spine.faults[%zu].kind: %s is not spine-down", i,
                             sim::to_string(fault.kind).c_str()));
      require(errors, fault.target < racks.size(),
              sim::strformat("spine.faults[%zu].target: rack %llu out of range (%zu racks)", i,
                             static_cast<unsigned long long>(fault.target), racks.size()));
      require(errors, fault.at >= sim::Time::zero(),
              sim::strformat("spine.faults[%zu].at: cannot be negative", i));
      require(errors, fault.duration > sim::Time::zero(),
              sim::strformat("spine.faults[%zu].duration: must be positive", i));
    }
  }
  require(errors, partitions >= 1, "partitions: must be at least 1");
  return errors;
}

std::uint64_t DatacenterConfig::digest() const {
  sim::Digest d;
  const auto fold_double = [&d](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    d.update(bits);
  };
  const auto fold_time = [&d](sim::Time t) {
    d.update(static_cast<std::uint64_t>(t.ticks()));
  };
  d.update(static_cast<std::uint64_t>(trays));
  d.update(static_cast<std::uint64_t>(compute_bricks_per_tray));
  d.update(static_cast<std::uint64_t>(memory_bricks_per_tray));
  d.update(static_cast<std::uint64_t>(accelerator_bricks_per_tray));
  d.update(seed);
  d.update(static_cast<std::uint64_t>(enable_power_management ? 1 : 0));
  d.update(static_cast<std::uint64_t>(compute.apu_cores));
  d.update(compute.local_memory_bytes);
  d.update(static_cast<std::uint64_t>(compute.transceiver_ports));
  fold_double(compute.port_rate_gbps);
  d.update(memory.capacity_bytes);
  d.update(static_cast<std::uint64_t>(memory.technology == hw::MemoryTechnology::kHmc ? 1 : 0));
  d.update(static_cast<std::uint64_t>(optical_switch.ports));
  fold_double(optical_switch.insertion_loss_db);
  fold_time(optical_switch.reconfiguration_time);
  fold_time(circuit_path.tgl_lookup);
  fold_time(circuit_path.serdes);
  fold_time(circuit_path.glue_logic);
  fold_time(circuit_path.ddr_access);
  fold_double(circuit_path.line_rate_gbps);
  fold_time(packet_path.tgl_inject);
  fold_time(packet_path.compubrick_switch);
  fold_time(packet_path.membrick_switch);
  fold_time(sdm.api_relay);
  fold_time(sdm.inspect_and_select);
  fold_time(sdm.agent_rpc);
  fold_time(hotplug.fixed_cost);
  fold_time(hypervisor.dimm_insert_fixed);
  d.update(static_cast<std::uint64_t>(prefer_optical_attach ? 1 : 0));
  d.update(static_cast<std::uint64_t>(fabric_retry.has_value() ? 1 : 0));
  if (fabric_retry) {
    d.update(static_cast<std::uint64_t>(fabric_retry->max_attempts));
    fold_time(fabric_retry->initial_backoff);
    fold_time(fabric_retry->timeout);
  }
  // Multi-rack topology folds only when declared, so a single-rack
  // config's digest is byte-identical to what it was before these fields
  // existed (the examples' digest pins rely on this).
  if (!racks.empty()) {
    d.update("racks").update(static_cast<std::uint64_t>(racks.size()));
    for (const RackSpec& rack : racks) {
      d.update(static_cast<std::uint64_t>(rack.trays));
      d.update(static_cast<std::uint64_t>(rack.compute_bricks_per_tray));
      d.update(static_cast<std::uint64_t>(rack.memory_bricks_per_tray));
      d.update(static_cast<std::uint64_t>(rack.accelerator_bricks_per_tray));
    }
    d.update("spine").update(static_cast<std::uint64_t>(spine.ports));
    fold_time(spine.propagation);
    fold_double(spine.bandwidth_gbps);
    fold_double(spine.per_port_power_w);
    d.update(spine.gateway_bytes);
    fold_double(spine.cross_share);
    d.update(static_cast<std::uint64_t>(spine.faults.size()));
    for (const sim::FaultEvent& fault : spine.faults.events()) {
      d.update(fault.target);
      fold_time(fault.at);
      fold_time(fault.duration);
    }
    d.update(static_cast<std::uint64_t>(partitions));
  }
  return d.value();
}

namespace {

/// Gate run before any hardware is assembled: every validate() finding is
/// reported at once, so a caller fixing a config sees the whole list.
DatacenterConfig checked(const DatacenterConfig& config) {
  sim::throw_if_invalid("DatacenterConfig", config.validate());
  return config;
}

}  // namespace

Datacenter::Datacenter(const DatacenterConfig& config)
    : config_{checked(config)},
      sim_{config.seed},
      switch_{config.optical_switch},
      circuits_{switch_, telemetry_},
      fabric_{rack_, circuits_, telemetry_, config.circuit_path},
      packet_net_{telemetry_, config.packet_path},
      sdm_{rack_, fabric_, circuits_, telemetry_, config.sdm},
      openstack_{sdm_},
      migration_{rack_, fabric_, sdm_, telemetry_, config.migration},
      oom_guard_{sdm_, config.oom_guard},
      accel_mgr_{rack_, config.accelerators},
      power_mgr_{rack_, telemetry_, config.power_policy},
      injector_{sim_, telemetry_} {
  if (config.enable_power_management) {
    sdm_.set_power_manager(&power_mgr_);
  }
  fabric_.set_packet_network(&packet_net_);
  fabric_.set_retry_policy(config.fabric_retry);
  sdm_.set_prefer_optical(config.prefer_optical_attach);

  // Every instrumented layer bound its instruments to telemetry_ when it
  // was constructed, so instrumented hot paths never do a registry lookup
  // (and cost one branch while telemetry is off). Trace-id minting rides
  // its own splitmix64 stream seeded from the run seed: deterministic span
  // identities without touching the sim Rng.
  telemetry_.tracer().seed_trace_ids(config.seed);

  for (std::size_t t = 0; t < config.trays; ++t) {
    const hw::TrayId tray = rack_.add_tray();
    for (std::size_t i = 0; i < config.compute_bricks_per_tray; ++i) {
      auto& brick = rack_.add_compute_brick(tray, config.compute);
      auto& stack = stacks_[brick.id()];
      stack.os = std::make_unique<os::BareMetalOs>(brick, os::MemoryHotplug::kDefaultBlockBytes,
                                                   config.hotplug);
      stack.hypervisor =
          std::make_unique<hyp::Hypervisor>(brick, *stack.os, telemetry_, config.hypervisor);
      stack.agent = std::make_unique<orch::SdmAgent>(*stack.hypervisor, *stack.os);
      sdm_.register_agent(*stack.agent);
      mbos_.emplace(brick.id(), std::make_unique<optics::MidBoardOptics>(config.mbo, sim_.rng()));
      packet_net_.add_brick(brick.id());
    }
    for (std::size_t i = 0; i < config.memory_bricks_per_tray; ++i) {
      auto& brick = rack_.add_memory_brick(tray, config.memory);
      mbos_.emplace(brick.id(), std::make_unique<optics::MidBoardOptics>(config.mbo, sim_.rng()));
      packet_net_.add_brick(brick.id());
    }
    for (std::size_t i = 0; i < config.accelerator_bricks_per_tray; ++i) {
      auto& brick = rack_.add_accelerator_brick(tray, config.accelerator);
      mbos_.emplace(brick.id(), std::make_unique<optics::MidBoardOptics>(config.mbo, sim_.rng()));
      packet_net_.add_brick(brick.id());
    }
  }

  // Program the packet substrate pairwise between every compute and
  // memory brick (the exploratory fallback path is always reachable).
  for (hw::BrickId cb : compute_bricks()) {
    for (hw::BrickId mb : memory_bricks()) {
      packet_net_.connect(cb, mb);
    }
  }

  wire_fault_handlers();
}

void Datacenter::repair_all_down() {
  // repair() heals every attachment sharing the re-provisioned circuit, so
  // later entries of this deterministic record-order sweep usually find
  // theirs healthy already.
  for (const auto& a : fabric_.all_attachments()) {
    if (a.medium != memsys::LinkMedium::kOptical) continue;
    if (circuits_.find(a.circuit) != nullptr) continue;
    fabric_.repair(a.compute, a.segment, sim_.now());
  }
}

void Datacenter::wire_fault_handlers() {
  using sim::FaultKind;

  // Link flap: one optical circuit drops (target = circuit id; 0 picks the
  // first live optical attachment). Recovery re-provisions every downed
  // attachment through the beam-steering switch.
  injector_.on(FaultKind::kLinkFlap, [this](const sim::FaultEvent& e) {
    hw::CircuitId victim{static_cast<std::uint32_t>(e.target)};
    if (e.target == 0) {
      victim = hw::CircuitId{};
      for (const auto& a : fabric_.all_attachments()) {
        if (a.medium == memsys::LinkMedium::kOptical && circuits_.find(a.circuit) != nullptr) {
          victim = a.circuit;
          break;
        }
      }
    }
    if (victim.valid()) fabric_.fail_circuit(victim);
  });
  injector_.on_recover(FaultKind::kLinkFlap,
                       [this](const sim::FaultEvent&) { repair_all_down(); });

  // Insertion-loss drift: every port's loss rises by `magnitude` dB and
  // circuits whose pre-FEC BER falls below the correctable floor are torn
  // down. Recovery removes the drift and re-provisions.
  injector_.on(FaultKind::kInsertionLossDrift, [this](const sim::FaultEvent& e) {
    const double drift = e.magnitude != 0.0 ? e.magnitude : 1.0;
    switch_.set_insertion_loss_drift_db(switch_.insertion_loss_drift_db() + drift);
    fabric_.on_circuits_torn(circuits_.teardown_below_floor());
  });
  injector_.on_recover(FaultKind::kInsertionLossDrift, [this](const sim::FaultEvent& e) {
    const double drift = e.magnitude != 0.0 ? e.magnitude : 1.0;
    switch_.set_insertion_loss_drift_db(switch_.insertion_loss_drift_db() - drift);
    repair_all_down();
  });

  // Switch-port failure: the port dies and every circuit (and bonded
  // sibling lane) riding it is torn down. Recovery repairs failed ports
  // and re-provisions downed attachments on fresh ports.
  injector_.on(FaultKind::kSwitchPortFailure, [this](const sim::FaultEvent& e) {
    std::size_t port = static_cast<std::size_t>(e.target);
    if (e.target == 0 && !switch_.peer(0).has_value()) {
      for (std::size_t p = 0; p < switch_.port_count(); ++p) {
        if (switch_.peer(p).has_value()) {
          port = p;
          break;
        }
      }
    }
    if (port < switch_.port_count() && !switch_.port_failed(port)) {
      fabric_.on_circuits_torn(circuits_.fail_switch_port(port));
    }
  });
  injector_.on_recover(FaultKind::kSwitchPortFailure, [this](const sim::FaultEvent&) {
    for (std::size_t p = 0; p < switch_.port_count(); ++p) {
      if (switch_.port_failed(p)) circuits_.repair_switch_port(p);
    }
    repair_all_down();
  });

  // Packet-substrate bursts: congestion multiplies queueing/serialization,
  // a loss burst charges `magnitude` retransmissions per packet.
  injector_.on(FaultKind::kCongestionBurst, [this](const sim::FaultEvent& e) {
    packet_net_.set_congestion_factor(e.magnitude > 1.0 ? e.magnitude : 4.0);
  });
  injector_.on_recover(FaultKind::kCongestionBurst, [this](const sim::FaultEvent&) {
    packet_net_.set_congestion_factor(1.0);
  });
  injector_.on(FaultKind::kLossBurst, [this](const sim::FaultEvent& e) {
    packet_net_.set_loss_retransmissions(e.magnitude > 0.0 ? e.magnitude : 2.0);
  });
  injector_.on_recover(FaultKind::kLossBurst, [this](const sim::FaultEvent&) {
    packet_net_.set_loss_retransmissions(0.0);
  });

  // Brick crash: the brick goes dark; a crashed dMEMBRICK's segments are
  // evacuated by the SDM-C (graceful degradation for whatever cannot be
  // relocated). target = brick id; 0 picks the first dMEMBRICK serving an
  // attachment, then the first live dMEMBRICK.
  injector_.on(FaultKind::kBrickCrash, [this](const sim::FaultEvent& e) {
    hw::BrickId victim{static_cast<std::uint32_t>(e.target)};
    if (e.target == 0) {
      victim = hw::BrickId{};
      for (const auto& a : fabric_.all_attachments()) {
        if (!rack_.brick(a.membrick).failed()) {
          victim = a.membrick;
          break;
        }
      }
      if (!victim.valid()) {
        for (hw::BrickId mb : memory_bricks()) {
          if (!rack_.brick(mb).failed()) {
            victim = mb;
            break;
          }
        }
      }
    }
    if (!victim.valid() || !rack_.has_brick(victim)) return;
    hw::Brick& brick = rack_.brick(victim);
    if (brick.failed()) return;
    brick.fail();
    if (brick.kind() == hw::BrickKind::kMemory) {
      sdm_.evacuate_membrick(victim, sim_.now());
    }
  });
  const auto restart = [this](const sim::FaultEvent& e) {
    hw::BrickId victim{static_cast<std::uint32_t>(e.target)};
    if (e.target == 0) {
      victim = hw::BrickId{};
      for (hw::BrickId id : rack_.all_bricks()) {
        if (rack_.brick(id).failed()) {
          victim = id;
          break;
        }
      }
    }
    if (!victim.valid() || !rack_.has_brick(victim)) return;
    hw::Brick& brick = rack_.brick(victim);
    if (!brick.failed()) return;
    brick.restore();
    if (brick.kind() == hw::BrickKind::kMemory) {
      sdm_.note_brick_recovered(victim);
    }
  };
  injector_.on_recover(FaultKind::kBrickCrash, restart);
  injector_.on(FaultKind::kBrickRestart, restart);

  // RMST corruption: one translation entry on a dCOMPUBRICK is mangled
  // (target = compute brick, 0 picks the first with attachments; aux =
  // attachment ordinal). The fabric's scrub path repairs it on demand.
  injector_.on(FaultKind::kRmstCorruption, [this](const sim::FaultEvent& e) {
    hw::BrickId victim{static_cast<std::uint32_t>(e.target)};
    if (e.target == 0) {
      victim = hw::BrickId{};
      for (const auto& a : fabric_.all_attachments()) {
        victim = a.compute;
        break;
      }
    }
    if (victim.valid() && rack_.has_brick(victim)) {
      fabric_.corrupt_rmst(victim, static_cast<std::size_t>(e.aux));
    }
  });

  // SDM-C stall: the serialized inspect+reserve queue stops draining.
  injector_.on(FaultKind::kControllerStall, [this](const sim::FaultEvent& e) {
    sdm_.stall(sim_.now(),
               e.duration > sim::Time::zero() ? e.duration : sim::Time::ms(10));
  });
}

os::BareMetalOs& Datacenter::os_of(hw::BrickId compute) {
  auto it = stacks_.find(compute);
  if (it == stacks_.end()) {
    throw std::out_of_range("Datacenter::os_of: brick " + compute.to_string() +
                            " is not a compute brick");
  }
  return *it->second.os;
}

hyp::Hypervisor& Datacenter::hypervisor_of(hw::BrickId compute) {
  auto it = stacks_.find(compute);
  if (it == stacks_.end()) {
    throw std::out_of_range("Datacenter::hypervisor_of: brick " + compute.to_string() +
                            " is not a compute brick");
  }
  return *it->second.hypervisor;
}

orch::SdmAgent& Datacenter::agent_of(hw::BrickId compute) {
  auto it = stacks_.find(compute);
  if (it == stacks_.end()) {
    throw std::out_of_range("Datacenter::agent_of: brick " + compute.to_string() +
                            " is not a compute brick");
  }
  return *it->second.agent;
}

optics::MidBoardOptics& Datacenter::mbo_of(hw::BrickId brick) {
  auto it = mbos_.find(brick);
  if (it == mbos_.end()) {
    throw std::out_of_range("Datacenter::mbo_of: unknown brick " + brick.to_string());
  }
  return *it->second;
}

const os::BareMetalOs& Datacenter::os_of(hw::BrickId compute) const {
  return const_cast<Datacenter*>(this)->os_of(compute);  // NOLINT: shares lookup/throw path
}

const hyp::Hypervisor& Datacenter::hypervisor_of(hw::BrickId compute) const {
  return const_cast<Datacenter*>(this)->hypervisor_of(compute);  // NOLINT
}

const orch::SdmAgent& Datacenter::agent_of(hw::BrickId compute) const {
  return const_cast<Datacenter*>(this)->agent_of(compute);  // NOLINT
}

const optics::MidBoardOptics& Datacenter::mbo_of(hw::BrickId brick) const {
  return const_cast<Datacenter*>(this)->mbo_of(brick);  // NOLINT
}

orch::AllocationResult Datacenter::boot_vm(const std::string& name, std::size_t vcpus,
                                           std::uint64_t memory_bytes) {
  auto result = openstack_.boot(name, vcpus, memory_bytes, sim_.now());
  if (result.ok) {
    telemetry_.tracer().record(result.completed_at, sim::TraceCategory::kOrchestration,
                   "booted '" + name + "' as vm#" + result.vm.to_string() + " on brick " +
                       result.compute.to_string() + " (" +
                       std::to_string(result.remote_bytes >> 20) + " MiB remote)");
  } else {
    telemetry_.tracer().record(sim_.now(), sim::TraceCategory::kOrchestration,
                   "boot of '" + name + "' failed: " + result.error);
  }
  return result;
}

orch::ScaleUpResult Datacenter::scale_up(hw::VmId vm, hw::BrickId compute,
                                         std::uint64_t bytes) {
  orch::ScaleUpRequest request;
  request.vm = vm;
  request.compute = compute;
  request.bytes = bytes;
  request.posted_at = sim_.now();
  auto result = sdm_.scale_up(request);
  if (result.ok) {
    telemetry_.tracer().record(result.completed_at, sim::TraceCategory::kFabric,
                   "scale-up vm#" + vm.to_string() + " +" + std::to_string(bytes >> 20) +
                       " MiB from dMEMBRICK " + result.membrick.to_string() + " in " +
                       result.delay().to_string());
  } else {
    telemetry_.tracer().record(sim_.now(), sim::TraceCategory::kFabric,
                   "scale-up vm#" + vm.to_string() + " failed: " + result.error);
  }
  return result;
}

orch::ScaleUpResult Datacenter::scale_down(hw::VmId vm, hw::BrickId compute,
                                           hw::SegmentId segment) {
  auto result = sdm_.scale_down(vm, compute, segment, sim_.now());
  if (result.ok) {
    telemetry_.tracer().record(result.completed_at, sim::TraceCategory::kFabric,
                   "scale-down vm#" + vm.to_string() + " released segment " +
                       segment.to_string() + " in " + result.delay().to_string());
  }
  return result;
}

memsys::Transaction Datacenter::remote_read(hw::BrickId compute, std::uint64_t address,
                                            std::uint32_t bytes) {
  return fabric_.read(compute, address, bytes, sim_.now());
}

orch::MigrationResult Datacenter::migrate_vm(hw::VmId vm, hw::BrickId from, hw::BrickId to) {
  auto result = migration_.migrate(vm, from, to, sim_.now());
  if (result.ok) {
    telemetry_.tracer().record(sim_.now() + result.total_time, sim::TraceCategory::kMigration,
                   "migrated vm#" + vm.to_string() + " brick " + from.to_string() + " -> " +
                       to.to_string() + " (copied " +
                       std::to_string(result.copied_bytes >> 20) + " MiB, re-pointed " +
                       std::to_string(result.repointed_bytes >> 20) + " MiB, downtime " +
                       result.downtime.to_string() + ")");
  }
  return result;
}

void Datacenter::advance_to(sim::Time t) {
  if (t > sim_.now()) sim_.run_until(t);
}

double Datacenter::power_draw_watts() const {
  return rack_.power_draw_watts(config_.power, switch_.ports_in_use());
}

std::string Datacenter::describe() const {
  return rack_.describe() + "\n" + switch_.describe();
}

}  // namespace dredbox::core
