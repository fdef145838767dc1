#pragma once

#include <cstdint>
#include <optional>
#include <map>
#include <vector>

#include "hw/rack.hpp"
#include "memsys/remote_memory.hpp"
#include "orch/demand_registry.hpp"
#include "orch/power_manager.hpp"
#include "orch/sdm_agent.hpp"
#include "orch/sdm_types.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"

namespace dredbox::orch {

/// The Software-Defined Memory Controller (SDM-C, Section IV-C): an
/// autonomous service integrated with the OpenStack front-end that
/// (a) receives VM/bare-metal allocation requests,
/// (b) safely inspects availability and makes a power-consumption
///     conscious selection of resources,
/// (c) safely reserves the selected resources, and
/// (d) generates and pushes configurations to all involved devices
///     (circuit switches via their control plane, glue logic and kernels
///     via the per-brick SDM agents).
///
/// Concurrency model: the inspect+reserve transaction is serialized inside
/// the service (safety), the optical-switch control plane programs one
/// reconfiguration at a time, and kernel hotplug serializes per brick
/// while distinct bricks proceed in parallel. These three queues are what
/// shapes the concurrency curves of Fig. 10.
class SdmController {
 public:
  /// Binds the decision counters (allocations, scale-ups/-downs, balloon
  /// rebalances), the end-to-end scale-up latency histogram (the Fig. 10
  /// quantity) and kOrchestration / kHotplug trace spans.
  SdmController(hw::Rack& rack, memsys::RemoteMemoryFabric& fabric,
                optics::CircuitManager& circuits, sim::Telemetry& telemetry,
                const SdmTiming& timing = {});

  void register_agent(SdmAgent& agent);

  /// Optional: with a power manager attached, the SDM-C pays a realistic
  /// wake latency when its selection lands on a powered-off brick (and
  /// reports activity so idle bricks can be swept). Without one, bricks
  /// power on instantly (the Fig. 10 configuration).
  void set_power_manager(PowerManager* manager) { power_mgr_ = manager; }

  /// When on, attachments are wired as optical circuits even for
  /// intra-tray pairs (switch programmed, ports burned) instead of riding
  /// the tray's electrical wiring. See DatacenterConfig::prefer_optical_attach.
  void set_prefer_optical(bool on) { prefer_optical_ = on; }
  SdmAgent& agent_for(hw::BrickId compute);
  bool has_agent(hw::BrickId compute) const { return agents_.count(compute) != 0; }

  // --- role (a): VM allocation ---
  AllocationResult allocate_vm(const AllocationRequest& request, sim::Time now);

  // --- Scale-up API path (Fig. 10) ---
  ScaleUpResult scale_up(const ScaleUpRequest& request);
  ScaleUpResult scale_down(hw::VmId vm, hw::BrickId compute, hw::SegmentId segment,
                           sim::Time now);

  /// Balloon-based redistribution (the revisited ballooning subsystem):
  /// reclaims `bytes` from a donor VM and hands them to a recipient VM on
  /// the same dCOMPUBRICK. No circuit setup and no kernel hotplug are
  /// involved, so this is the fastest elasticity tier — used when a
  /// co-located guest is over-provisioned.
  ScaleUpResult rebalance(hw::VmId donor, hw::VmId recipient, hw::BrickId compute,
                          std::uint64_t bytes, sim::Time now);

  /// Demand-aware scale-up: when a recent usage report shows a co-located
  /// guest with enough slack, the grant is served from the balloon tier
  /// (no circuits, no hotplug); otherwise the normal attach path runs.
  /// Feed the registry through demand_registry().report(...) — the same
  /// balloon-stats channel the OOM guard uses.
  ScaleUpResult scale_up_smart(const ScaleUpRequest& request);

  MemoryDemandRegistry& demand_registry() { return demand_; }
  /// Reports older than this are distrusted by scale_up_smart.
  sim::Time demand_staleness_limit() const { return sim::Time::sec(30); }

  /// Agent-side entry point for the periodic balloon-stats report: keeps
  /// the demand registry current so scale_up_smart can find donors.
  /// Usable-bytes is read from the hypervisor, so callers only pass what
  /// the guest actually uses.
  void report_guest_usage(hw::VmId vm, hw::BrickId compute, std::uint64_t used_bytes,
                          sim::Time now);

  // --- role (b): power-conscious selection ---
  /// Picks the dMEMBRICK to serve `bytes` for `compute`. Preference order:
  /// bricks already wired to this compute brick (no switch programming),
  /// then already-active bricks (packing keeps others off), then idle
  /// powered bricks, then powered-off bricks (powered on on demand).
  /// Within each class, same-tray bricks win (the tray's electrical
  /// circuit is lower-latency and burns no optical switch ports), and
  /// ties break best-fit.
  std::optional<hw::BrickId> select_membrick(std::uint64_t bytes, hw::BrickId compute) const;

  /// Picks a hosting dCOMPUBRICK for a VM, packing active bricks first.
  std::optional<hw::BrickId> select_compute(std::size_t vcpus) const;

  // --- fault reaction (graceful degradation) ---
  /// SDM-C service stall (software fault / overload in the controller
  /// node): the serialized inspect+reserve queue stops draining for
  /// `duration`; requests arriving meanwhile queue up behind it.
  void stall(sim::Time now, sim::Time duration);

  /// Reaction to a dMEMBRICK crash: walks every attachment served by
  /// `membrick` (deterministically, by compute-brick id) and relocates its
  /// segment to a replacement brick chosen by the usual power-conscious
  /// policy. Guests whose DIMMs rode an evacuated segment are re-bound;
  /// segments with no replacement brick are reported lost to the
  /// hypervisor, which degrades the owning VM instead of killing it.
  /// Returns the number of segments successfully evacuated.
  std::size_t evacuate_membrick(hw::BrickId membrick, sim::Time now);

  /// A crashed dMEMBRICK came back (restart): refreshes the degraded-mode
  /// gauge and lifts degradation from VMs whose segments still live there.
  void note_brick_recovered(hw::BrickId membrick);

  const SdmTiming& timing() const { return timing_; }
  std::uint64_t completed_scale_ups() const { return completed_scale_ups_; }

  /// Point-in-time view of one brick in the resource database.
  struct BrickStatus {
    hw::BrickId brick;
    hw::BrickKind kind = hw::BrickKind::kCompute;
    hw::TrayId tray;
    hw::PowerState power = hw::PowerState::kIdle;
    // Compute bricks.
    std::size_t cores_total = 0;
    std::size_t cores_used = 0;
    std::size_t vms = 0;
    // Memory bricks.
    std::uint64_t memory_total = 0;
    std::uint64_t memory_used = 0;
    std::size_t segments = 0;
    // Both.
    std::size_t ports_total = 0;
    std::size_t ports_used = 0;
  };

  /// Snapshot of the whole resource database (role (b)'s "safely inspect
  /// resource availability" made visible) — what an operator dashboard or
  /// the rack_report example renders.
  std::vector<BrickStatus> inventory() const;

  /// Resets the pipeline queues (between experiment repetitions).
  void reset_queues();

 private:
  hw::Rack& rack_;
  memsys::RemoteMemoryFabric& fabric_;
  optics::CircuitManager& circuits_;
  SdmTiming timing_;
  PowerManager* power_mgr_ = nullptr;
  bool prefer_optical_ = false;
  MemoryDemandRegistry demand_;
  // Ordered by id: rack-wide agent sweeps must be deterministic.
  std::map<hw::BrickId, SdmAgent*> agents_;
  sim::Time controller_busy_until_;
  sim::Time switch_ctl_busy_until_;
  std::uint64_t completed_scale_ups_ = 0;

  sim::Telemetry& telemetry_;
  sim::metrics::Counter& allocations_metric_;
  sim::metrics::Counter& allocation_failures_metric_;
  sim::metrics::Counter& scale_ups_metric_;
  sim::metrics::Counter& scale_up_failures_metric_;
  sim::metrics::Counter& scale_downs_metric_;
  sim::metrics::Counter& rebalances_metric_;
  sim::metrics::Histogram& scale_up_latency_metric_;
  sim::metrics::Counter& stalls_metric_;
  sim::metrics::Counter& evacuated_metric_;
  sim::metrics::Counter& evacuation_failures_metric_;
  sim::metrics::Gauge& degraded_membricks_metric_;

  void refresh_degraded_membricks();

  AllocationResult allocate_vm_impl(const AllocationRequest& request, sim::Time now);
  ScaleUpResult scale_up_impl(const ScaleUpRequest& request, const sim::TraceContext& ctx);

  /// Serialized inspect+reserve step; returns the time it completes and
  /// charges queueing + service into `breakdown`.
  sim::Time controller_transaction(sim::Time arrival, sim::Breakdown& breakdown);

  /// Serialized optical-switch programming; no-op charge when the circuit
  /// already exists.
  sim::Time program_switch(sim::Time ready, bool new_circuit, sim::Breakdown& breakdown);

  /// Powers a brick on (through the power manager when attached, paying
  /// the wake latency). Returns the adjusted ready time.
  sim::Time wake_brick(hw::BrickId brick, sim::Time ready, sim::Breakdown& breakdown);

  bool circuit_exists(hw::BrickId compute, hw::BrickId membrick) const;
};

}  // namespace dredbox::orch
