#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/datacenter.hpp"
#include "sim/fault.hpp"

namespace dredbox::core {

/// A constructed deployment: the Datacenter plus everything the builder
/// wired around it (telemetry enablement, a scheduled fault plan). This is
/// what ScenarioBuilder::build() returns and the single blessed way for
/// examples, benches and the sweep runner to obtain a rack.
///
/// Movable (so build() can return it by value); the Datacenter itself is
/// heap-held because its subcomponents hold references into each other.
class Scenario {
 public:
  /// Single-rack deployments only (is_cluster() false — the default).
  Datacenter& datacenter() { return *dc_; }
  const Datacenter& datacenter() const { return *dc_; }
  Datacenter* operator->() { return dc_.get(); }
  const Datacenter* operator->() const { return dc_.get(); }
  Datacenter& operator*() { return *dc_; }
  const Datacenter& operator*() const { return *dc_; }

  /// True when the builder declared a multi-rack topology (add_rack());
  /// then cluster() is the deployment and datacenter() must not be used.
  bool is_cluster() const { return cluster_ != nullptr; }
  Cluster& cluster() { return *cluster_; }
  const Cluster& cluster() const { return *cluster_; }

  /// The fault plan scheduled at build time (nullopt when none was
  /// declared or DREDBOX_FAULT_PLAN was unset).
  const std::optional<sim::FaultPlan>& fault_plan() const { return fault_plan_; }
  std::size_t faults_scheduled() const { return faults_scheduled_; }

  /// Latest end time of any scheduled fault (zero without a plan): advance
  /// past this and every injected fault has fired and recovered.
  sim::Time fault_horizon() const;

  /// Runs the simulation through the whole fault plan (one extra
  /// millisecond so trailing recoveries land). No-op without a plan.
  void run_fault_plan();

 private:
  friend class ScenarioBuilder;
  Scenario() = default;

  std::unique_ptr<Datacenter> dc_;
  std::unique_ptr<Cluster> cluster_;
  std::optional<sim::FaultPlan> fault_plan_;
  std::size_t faults_scheduled_ = 0;
};

/// Declarative front door to the whole stack: describe the deployment
/// (rack shape, sizing, behaviour, faults), then build() validates the
/// resulting DatacenterConfig — every field error reported at once — and
/// assembles the rack. Replaces the hand-wired DatacenterConfig field
/// pokes that used to open every example.
///
///   auto scenario = core::ScenarioBuilder{}
///                       .racks(2, 2, 2)          // trays × compute × memory
///                       .telemetry()
///                       .fault_plan_from_env()
///                       .build();
///   auto& dc = scenario.datacenter();
///
/// Setters apply immediately to the underlying config (last write wins);
/// configure() is the escape hatch for fields without a dedicated setter.
class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;
  explicit ScenarioBuilder(DatacenterConfig base) : config_{std::move(base)} {}

  // --- rack shape ---
  ScenarioBuilder& trays(std::size_t n);
  ScenarioBuilder& compute_bricks_per_tray(std::size_t n);
  ScenarioBuilder& memory_bricks_per_tray(std::size_t n);
  ScenarioBuilder& accelerator_bricks_per_tray(std::size_t n);
  /// Shorthand for the three per-tray counts in one call.
  ScenarioBuilder& racks(std::size_t trays, std::size_t compute_per_tray,
                         std::size_t memory_per_tray, std::size_t accel_per_tray = 0);

  // --- multi-rack topology ---
  // Declaring at least one rack switches build() to cluster mode: the
  // scenario holds a core::Cluster joined by an optical spine instead of
  // a lone Datacenter, and the top-level shape fields above stop
  // mattering (each rack carries its own RackSpec).
  /// Appends one rack to the topology.
  ScenarioBuilder& add_rack(const RackSpec& rack = {});
  /// Appends `n` identical racks in one call.
  ScenarioBuilder& add_racks(std::size_t n, const RackSpec& rack = {});
  /// Inter-rack spine parameters (propagation doubles as the partitioned
  /// kernel's conservative lookahead). Faults and a cross-rack share
  /// declared earlier survive unless `spec` sets its own.
  ScenarioBuilder& spine(const SpineSpec& spec);
  /// Sets DatacenterConfig::partitions, which is ignored;
  /// benchmark/dredbox_bench.cpp is its only caller (ROADMAP item 1).
  ScenarioBuilder& partitions(std::size_t n);
  /// Deployment-wide fraction of every tenant's read/write stream that
  /// crosses the spine to a peer rack (TenantSpec::cross_rack_share
  /// overrides per tenant).
  ScenarioBuilder& cross_rack_share(double share);
  /// Scripted spine-uplink fault: rack `rack` loses its uplink at `at`
  /// for `duration` (appends one `spine-down` event to spine.faults).
  ScenarioBuilder& spine_fault(std::size_t rack, sim::Time at, sim::Time duration);

  // --- sizing ---
  ScenarioBuilder& compute_cores(std::size_t apu_cores);
  ScenarioBuilder& compute_local_memory_bytes(std::uint64_t bytes);
  ScenarioBuilder& memory_pool_bytes(std::uint64_t bytes);
  ScenarioBuilder& switch_ports(std::size_t ports);

  // --- behaviour ---
  ScenarioBuilder& seed(std::uint64_t seed);
  /// Enables metrics + tracer right after construction.
  ScenarioBuilder& telemetry(bool on = true);
  /// Enables only the tracer (operation timeline, no metrics).
  ScenarioBuilder& tracing(bool on = true);
  ScenarioBuilder& power_management(bool on = true);
  /// Wire every attachment as an optical circuit, even intra-tray (see
  /// DatacenterConfig::prefer_optical_attach).
  ScenarioBuilder& prefer_optical(bool on = true);
  ScenarioBuilder& fabric_retry(std::optional<sim::RetryPolicy> policy);
  ScenarioBuilder& oom_guard(const orch::OomGuardConfig& guard);
  /// Enables the event-kernel self-profiler (per-event-type dispatch
  /// counts and host-time attribution; see EventQueue::profile_to_string).
  /// Host timings never feed digests, so profiling cannot perturb a run's
  /// determinism contract — only its wall-clock cost.
  ScenarioBuilder& profile_kernel(bool on = true);
  /// Enables the profiler iff $DREDBOX_PROFILE is set (to anything) at
  /// build() time.
  ScenarioBuilder& profile_kernel_from_env();

  // --- faults ---
  ScenarioBuilder& fault_plan(sim::FaultPlan plan);
  /// Mini-language spec (see sim/fault.hpp); parsed at build() so a bad
  /// spec surfaces as std::invalid_argument from build.
  ScenarioBuilder& fault_plan(const std::string& spec);
  /// Reads DREDBOX_FAULT_PLAN at build(); absent variable means no plan.
  ScenarioBuilder& fault_plan_from_env();

  /// Escape hatch for config fields without a dedicated setter; the
  /// callback mutates the config in place, immediately.
  ScenarioBuilder& configure(const std::function<void(DatacenterConfig&)>& fn);

  /// The config as declared so far (not yet validated).
  const DatacenterConfig& config() const { return config_; }
  /// Field-naming validation errors for the config as declared so far.
  std::vector<std::string> validate() const { return config_.validate(); }

  /// Validates (throwing std::invalid_argument that lists every field
  /// error, or names `fault_plan[i].target` for a spine-down event whose
  /// rack does not exist), assembles the Datacenter, enables the requested
  /// telemetry and schedules the fault plan. The builder can be reused —
  /// build() again produces a fresh, fully independent rack (the sweep
  /// runner's per-cell isolation relies on this).
  Scenario build() const;

 private:
  /// The fault plan build() injects: the environment's when
  /// fault_plan_from_env() was called, else the parsed spec string, else
  /// the plan object (each setter clears the other two). A bad spec or
  /// environment value throws here, before any rack is assembled.
  std::optional<sim::FaultPlan> resolved_fault_plan() const;

  DatacenterConfig config_;
  bool enable_telemetry_ = false;
  bool enable_tracing_ = false;
  bool enable_profiling_ = false;
  bool profile_env_ = false;
  std::optional<sim::FaultPlan> fault_plan_;
  std::optional<std::string> fault_spec_;
  bool fault_plan_env_ = false;
};

}  // namespace dredbox::core
