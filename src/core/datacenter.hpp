#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/rack.hpp"
#include "hyp/hypervisor.hpp"
#include "memsys/remote_memory.hpp"
#include "net/packet_network.hpp"
#include "optics/circuit.hpp"
#include "optics/mbo.hpp"
#include "optics/optical_switch.hpp"
#include "orch/accel_manager.hpp"
#include "orch/migration.hpp"
#include "orch/oom_guard.hpp"
#include "orch/openstack.hpp"
#include "orch/power_manager.hpp"
#include "orch/sdm_controller.hpp"
#include "os/baremetal_os.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/retry.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace dredbox::core {

/// Shape of one rack of a multi-rack deployment (DatacenterConfig::racks).
/// Timing models, sizing and behaviour flags are inherited from the
/// enclosing DatacenterConfig; only the physical rack shape varies per
/// rack. Defaults mirror the single-rack defaults.
struct RackSpec {
  std::size_t trays = 2;
  std::size_t compute_bricks_per_tray = 2;
  std::size_t memory_bricks_per_tray = 2;
  std::size_t accelerator_bricks_per_tray = 0;
};

/// The inter-rack optical spine of a multi-rack deployment: the circuit
/// layer racks bind remote-memory segments across, plus the per-rack
/// gateway window those segments are served from.
struct SpineSpec {
  /// Spine switch duplex port radix (>= number of racks).
  std::size_t ports = 64;
  /// One-way rack-to-rack propagation through the spine. Also the
  /// partitioned kernel's conservative lookahead, so strictly positive.
  sim::Time propagation = sim::Time::ns(500);
  double bandwidth_gbps = 100.0;
  /// Static power of each lit port (one per rack).
  double per_port_power_w = 1.5;
  /// Disaggregated window each rack exports to its peers (served by a
  /// gateway VM booted at wiring through the rack's own control plane).
  /// Must be hotplug-block aligned — 1 GiB granularity by default.
  std::uint64_t gateway_bytes = 1ull << 30;
  /// Deployment default for the fraction of a tenant's read/write stream
  /// that targets cross-rack segments; a TenantSpec placement overrides
  /// it per tenant.
  double cross_share = 0.0;
  /// Scripted spine-uplink faults: `spine-down` events (target = rack
  /// index) that Cluster::arm_spine_faults() shifts by its base — the
  /// cluster workload engine arms at its window start, so faults land a
  /// known offset into the measured window however long boot took.
  sim::FaultPlan faults;
};

/// Shape of a dReDBox deployment assembled by the Datacenter facade.
struct DatacenterConfig {
  std::size_t trays = 2;
  std::size_t compute_bricks_per_tray = 2;
  std::size_t memory_bricks_per_tray = 2;
  std::size_t accelerator_bricks_per_tray = 0;

  hw::ComputeBrickConfig compute;
  hw::MemoryBrickConfig memory;
  hw::AccelBrickConfig accelerator;
  optics::OpticalSwitchConfig optical_switch;
  optics::MboConfig mbo;
  memsys::CircuitPathLatencies circuit_path;
  net::PacketPathLatencies packet_path;
  orch::SdmTiming sdm;
  os::HotplugTiming hotplug;
  hyp::HypervisorTiming hypervisor;
  hw::PowerModel power;
  orch::MigrationConfig migration;
  orch::OomGuardConfig oom_guard;
  orch::AcceleratorManagerConfig accelerators;
  orch::PowerPolicyConfig power_policy;
  /// When true the power manager is wired into the SDM-C from the start
  /// (wake latencies charged, idle sweeps on tick()).
  bool enable_power_management = false;

  /// When true the SDM-C wires every remote-memory attachment as an
  /// optical circuit through the beam-steering switch, even for intra-tray
  /// pairs that could ride the tray's electrical wiring. Burns switch
  /// ports but exercises the paper's optical data path (and its
  /// re-provisioning recovery ladder) on any rack shape.
  bool prefer_optical_attach = false;

  /// Data-plane retry policy installed into the fabric (retry with
  /// exponential backoff, RMST scrubbing, circuit re-provisioning, packet
  /// failover). Set to nullopt for the fail-fast behaviour of a rack with
  /// no recovery logic.
  std::optional<sim::RetryPolicy> fabric_retry = sim::RetryPolicy{};

  std::uint64_t seed = 1;

  /// Multi-rack topology (core::Cluster). Empty — the default — means the
  /// classic single-rack deployment and leaves validate() and digest()
  /// byte-identical to a config that predates these fields. Non-empty
  /// racks make the top-level shape fields irrelevant (each rack carries
  /// its own) and arm the spine/partitions fields below.
  std::vector<RackSpec> racks;
  SpineSpec spine;
  /// Ignored (>= 1); benchmark/dredbox_bench.cpp is its only setter (ROADMAP item 1).
  std::size_t partitions = 1;

  /// Checks the whole deployment shape for physical and numerical sanity
  /// before any hardware is assembled. Returns one human-readable error
  /// per offending field, each prefixed with the dotted field name (e.g.
  /// "compute.transceiver_ports: ..."), so callers can surface precise
  /// diagnostics. An empty vector means the config is constructible.
  ///
  /// Rejected shapes include: zero-brick racks (no bricks of any kind, or
  /// zero trays), brick port counts exceeding the optical switch radix,
  /// non-positive line rates/bandwidths, negative optical losses or
  /// control-path timings, link budgets whose fixed losses exceed the
  /// launch power by any plausible receiver margin, and malformed retry
  /// policies. The Datacenter constructor calls this and throws
  /// std::invalid_argument listing every error at once.
  std::vector<std::string> validate() const;

  /// FNV-1a fingerprint of the deployment shape (rack counts, seed, data-
  /// and control-path timing models). Two runs whose reports carry the
  /// same config digest were driven against the same rack; the run-report
  /// artifact embeds it so results stay attributable to a configuration.
  std::uint64_t digest() const;
};

/// The full-stack rack-scale system: hardware (bricks, trays, optical
/// fabric), the circuit- and packet-based interconnects, the per-brick
/// software stack (baremetal OS, Type-1 hypervisor, SDM agent), and the
/// rack-level orchestration (SDM-C plus an OpenStack-like front-end).
///
/// This is the public entry point a downstream user programs against; the
/// examples/ directory shows the intended call patterns.
class Datacenter {
 public:
  explicit Datacenter(const DatacenterConfig& config = {});

  // Non-copyable, non-movable: subcomponents hold references into each
  // other; the facade owns them all for its lifetime.
  Datacenter(const Datacenter&) = delete;
  Datacenter& operator=(const Datacenter&) = delete;

  const DatacenterConfig& config() const { return config_; }

  // --- layers ---
  // Every accessor has a const overload so read-only consumers (the sweep
  // reducer holds `const Datacenter&` per completed run) can introspect a
  // finished rack without write access.
  sim::Simulator& simulator() { return sim_; }
  const sim::Simulator& simulator() const { return sim_; }
  hw::Rack& rack() { return rack_; }
  const hw::Rack& rack() const { return rack_; }
  optics::OpticalSwitch& optical_switch() { return switch_; }
  const optics::OpticalSwitch& optical_switch() const { return switch_; }
  optics::CircuitManager& circuits() { return circuits_; }
  const optics::CircuitManager& circuits() const { return circuits_; }
  memsys::RemoteMemoryFabric& fabric() { return fabric_; }
  const memsys::RemoteMemoryFabric& fabric() const { return fabric_; }
  net::PacketNetwork& packet_network() { return packet_net_; }
  const net::PacketNetwork& packet_network() const { return packet_net_; }
  orch::SdmController& sdm() { return sdm_; }
  const orch::SdmController& sdm() const { return sdm_; }
  orch::OpenStackFrontend& openstack() { return openstack_; }
  const orch::OpenStackFrontend& openstack() const { return openstack_; }
  orch::MigrationEngine& migration() { return migration_; }
  const orch::MigrationEngine& migration() const { return migration_; }
  orch::OomGuard& oom_guard() { return oom_guard_; }
  const orch::OomGuard& oom_guard() const { return oom_guard_; }
  orch::AcceleratorManager& accelerators() { return accel_mgr_; }
  const orch::AcceleratorManager& accelerators() const { return accel_mgr_; }
  orch::PowerManager& power_manager() { return power_mgr_; }
  const orch::PowerManager& power_manager() const { return power_mgr_; }

  /// The rack's fault-injection engine, pre-wired with a handler (and,
  /// where it makes sense, a recovery handler) for every in-rack FaultKind:
  /// link flaps re-provision, loss drift tears circuits below the FEC
  /// floor, brick crashes trigger SDM-C evacuation, and so on; a Cluster
  /// adds spine-down. Use it directly for counters; schedule plans through
  /// inject_faults().
  sim::FaultInjector& faults() { return injector_; }
  const sim::FaultInjector& faults() const { return injector_; }

  /// Schedules a fault plan onto the simulation timeline (clamped to
  /// now()). Returns the number of events scheduled; advance_to() makes
  /// them land interleaved with the workload.
  std::size_t inject_faults(const sim::FaultPlan& plan) { return injector_.schedule(plan); }

  /// The rack's observability bundle: named metrics (counters, gauges,
  /// latency histograms from every layer) plus the event/span tracer.
  /// Disabled by default — call telemetry().enable_all() before driving
  /// the rack; export with telemetry().metrics().snapshot()/write_csv()
  /// and sim::maybe_write_trace(tracer()) (see README "Observability").
  sim::Telemetry& telemetry() { return telemetry_; }
  const sim::Telemetry& telemetry() const { return telemetry_; }

  /// Shorthand for telemetry().metrics().
  sim::metrics::MetricsRegistry& metrics() { return telemetry_.metrics(); }
  const sim::metrics::MetricsRegistry& metrics() const { return telemetry_.metrics(); }

  /// Event log of high-level operations (disabled by default; call
  /// tracer().enable() before driving the rack to capture a timeline).
  sim::Tracer& tracer() { return telemetry_.tracer(); }
  const sim::Tracer& tracer() const { return telemetry_.tracer(); }

  os::BareMetalOs& os_of(hw::BrickId compute);
  const os::BareMetalOs& os_of(hw::BrickId compute) const;
  hyp::Hypervisor& hypervisor_of(hw::BrickId compute);
  const hyp::Hypervisor& hypervisor_of(hw::BrickId compute) const;
  orch::SdmAgent& agent_of(hw::BrickId compute);
  const orch::SdmAgent& agent_of(hw::BrickId compute) const;
  optics::MidBoardOptics& mbo_of(hw::BrickId brick);
  const optics::MidBoardOptics& mbo_of(hw::BrickId brick) const;

  std::vector<hw::BrickId> compute_bricks() const {
    return rack_.bricks_of_kind(hw::BrickKind::kCompute);
  }
  std::vector<hw::BrickId> memory_bricks() const {
    return rack_.bricks_of_kind(hw::BrickKind::kMemory);
  }
  std::vector<hw::BrickId> accelerator_bricks() const {
    return rack_.bricks_of_kind(hw::BrickKind::kAccelerator);
  }

  // --- high-level operations ---
  /// Boots a VM through the OpenStack front-end / SDM-C.
  orch::AllocationResult boot_vm(const std::string& name, std::size_t vcpus,
                                 std::uint64_t memory_bytes);

  /// Dynamic memory scale-up for a running VM (the Scale-up API path).
  orch::ScaleUpResult scale_up(hw::VmId vm, hw::BrickId compute, std::uint64_t bytes);
  orch::ScaleUpResult scale_down(hw::VmId vm, hw::BrickId compute, hw::SegmentId segment);

  /// Live-migrates a VM to another dCOMPUBRICK (local memory pre-copied,
  /// disaggregated segments re-pointed with zero copy).
  orch::MigrationResult migrate_vm(hw::VmId vm, hw::BrickId from, hw::BrickId to);

  /// One remote read over the mainline circuit-switched path.
  memsys::Transaction remote_read(hw::BrickId compute, std::uint64_t address,
                                  std::uint32_t bytes);

  /// Advances simulation time (no-op when `t` is in the past). Workload
  /// drivers call this between operations so control-plane queues drain
  /// realistically instead of piling up at t=0.
  void advance_to(sim::Time t);

  /// Instantaneous rack power draw (bricks + switch ports).
  double power_draw_watts() const;

  std::string describe() const;

 private:
  DatacenterConfig config_;
  /// Declared before every subsystem: each binds instrument references
  /// into this registry at construction, so it must outlive them all.
  sim::Telemetry telemetry_;
  sim::Simulator sim_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  memsys::RemoteMemoryFabric fabric_;
  net::PacketNetwork packet_net_;
  orch::SdmController sdm_;
  orch::OpenStackFrontend openstack_;
  orch::MigrationEngine migration_;
  orch::OomGuard oom_guard_;
  orch::AcceleratorManager accel_mgr_;
  orch::PowerManager power_mgr_;
  sim::FaultInjector injector_;

  /// Maps every FaultKind onto its owning subsystem (ctor-time).
  void wire_fault_handlers();
  /// Re-provisions every optical attachment whose circuit is gone (the
  /// recovery sweep behind flap/drift/port-failure healing).
  void repair_all_down();

  struct BrickStack {
    std::unique_ptr<os::BareMetalOs> os;
    std::unique_ptr<hyp::Hypervisor> hypervisor;
    std::unique_ptr<orch::SdmAgent> agent;
  };
  std::unordered_map<hw::BrickId, BrickStack> stacks_;
  std::unordered_map<hw::BrickId, std::unique_ptr<optics::MidBoardOptics>> mbos_;
};

}  // namespace dredbox::core
