#include "core/scenario.hpp"

#include <cstdlib>
#include <stdexcept>

#include "sim/format.hpp"

namespace dredbox::core {

sim::Time Scenario::fault_horizon() const {
  return fault_plan_ ? fault_plan_->horizon() : sim::Time::zero();
}

void Scenario::run_fault_plan() {
  if (!fault_plan_) return;
  const sim::Time until = fault_horizon() + sim::Time::ms(1);
  if (cluster_ != nullptr) {
    cluster_->advance_all(until);
  } else {
    dc_->advance_to(until);
  }
}

ScenarioBuilder& ScenarioBuilder::trays(std::size_t n) {
  config_.trays = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::compute_bricks_per_tray(std::size_t n) {
  config_.compute_bricks_per_tray = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::memory_bricks_per_tray(std::size_t n) {
  config_.memory_bricks_per_tray = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::accelerator_bricks_per_tray(std::size_t n) {
  config_.accelerator_bricks_per_tray = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::racks(std::size_t trays, std::size_t compute_per_tray,
                                        std::size_t memory_per_tray,
                                        std::size_t accel_per_tray) {
  config_.trays = trays;
  config_.compute_bricks_per_tray = compute_per_tray;
  config_.memory_bricks_per_tray = memory_per_tray;
  config_.accelerator_bricks_per_tray = accel_per_tray;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::add_rack(const RackSpec& rack) {
  config_.racks.push_back(rack);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::add_racks(std::size_t n, const RackSpec& rack) {
  for (std::size_t i = 0; i < n; ++i) config_.racks.push_back(rack);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::spine(const SpineSpec& spec) {
  // Keep the faults and share already declared through the dedicated
  // setters unless the caller's spec carries its own.
  SpineSpec merged = spec;
  if (merged.faults.empty()) merged.faults = config_.spine.faults;
  if (merged.cross_share == 0.0) merged.cross_share = config_.spine.cross_share;
  config_.spine = std::move(merged);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::partitions(std::size_t n) {
  config_.partitions = n;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::cross_rack_share(double share) {
  config_.spine.cross_share = share;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::spine_fault(std::size_t rack, sim::Time at,
                                              sim::Time duration) {
  config_.spine.faults.add({at, sim::FaultKind::kSpineLinkDown, rack, 0, 0.0, duration});
  return *this;
}

ScenarioBuilder& ScenarioBuilder::compute_cores(std::size_t apu_cores) {
  config_.compute.apu_cores = apu_cores;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::compute_local_memory_bytes(std::uint64_t bytes) {
  config_.compute.local_memory_bytes = bytes;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::memory_pool_bytes(std::uint64_t bytes) {
  config_.memory.capacity_bytes = bytes;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::switch_ports(std::size_t ports) {
  config_.optical_switch.ports = ports;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  config_.seed = seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::telemetry(bool on) {
  enable_telemetry_ = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::tracing(bool on) {
  enable_tracing_ = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::power_management(bool on) {
  config_.enable_power_management = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::prefer_optical(bool on) {
  config_.prefer_optical_attach = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fabric_retry(std::optional<sim::RetryPolicy> policy) {
  config_.fabric_retry = policy;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::oom_guard(const orch::OomGuardConfig& guard) {
  config_.oom_guard = guard;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::profile_kernel(bool on) {
  enable_profiling_ = on;
  profile_env_ = false;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::profile_kernel_from_env() {
  profile_env_ = true;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fault_plan(sim::FaultPlan plan) {
  fault_plan_ = std::move(plan);
  fault_spec_.reset();
  fault_plan_env_ = false;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fault_plan(const std::string& spec) {
  fault_spec_ = spec;
  fault_plan_.reset();
  fault_plan_env_ = false;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fault_plan_from_env() {
  fault_plan_env_ = true;
  fault_plan_.reset();
  fault_spec_.reset();
  return *this;
}

ScenarioBuilder& ScenarioBuilder::configure(const std::function<void(DatacenterConfig&)>& fn) {
  fn(config_);
  return *this;
}

std::optional<sim::FaultPlan> ScenarioBuilder::resolved_fault_plan() const {
  if (fault_plan_env_) return sim::fault_plan_from_env();
  if (fault_spec_) return sim::FaultPlan::parse(*fault_spec_);
  return fault_plan_;
}

Scenario ScenarioBuilder::build() const {
  // Resolve the fault plan first: a bad spec should fail the build before
  // a rack is assembled.
  std::optional<sim::FaultPlan> plan = resolved_fault_plan();

  Scenario scenario;
  const bool profiling =
      enable_profiling_ || (profile_env_ && std::getenv(sim::kProfileEnv) != nullptr);
  if (!config_.racks.empty()) {
    // Multi-rack topology: everything declared for "the rack" applies to
    // every rack of the cluster, including the fault plan (each rack runs
    // its own injector on its own shard; the cluster routes spine-down).
    for (std::size_t i = 0; plan && i < plan->size(); ++i) {
      const sim::FaultEvent& e = plan->events()[i];
      if (e.kind == sim::FaultKind::kSpineLinkDown && e.target >= config_.racks.size()) {
        throw std::invalid_argument(
            sim::strformat("fault_plan[%zu].target: rack %llu out of range (%zu racks)", i,
                           static_cast<unsigned long long>(e.target), config_.racks.size()));
      }
    }
    scenario.cluster_ = std::make_unique<Cluster>(config_);  // ctor validates
    for (std::size_t r = 0; r < scenario.cluster_->size(); ++r) {
      Datacenter& dc = scenario.cluster_->rack(r);
      if (enable_telemetry_) {
        dc.telemetry().enable_all();
      } else if (enable_tracing_) {
        dc.tracer().enable();
      }
      if (profiling) dc.simulator().queue().enable_profiling();
    }
    if (plan) {
      scenario.fault_plan_.emplace(std::move(*plan));
      for (std::size_t r = 0; r < scenario.cluster_->size(); ++r) {
        scenario.faults_scheduled_ +=
            scenario.cluster_->rack(r).inject_faults(*scenario.fault_plan_);
      }
    }
    return scenario;
  }
  scenario.dc_ = std::make_unique<Datacenter>(config_);  // ctor validates
  if (enable_telemetry_) {
    scenario.dc_->telemetry().enable_all();
  } else if (enable_tracing_) {
    scenario.dc_->tracer().enable();
  }
  if (profiling) {
    scenario.dc_->simulator().queue().enable_profiling();
  }
  if (plan) {
    scenario.fault_plan_.emplace(std::move(*plan));
    scenario.faults_scheduled_ = scenario.dc_->inject_faults(*scenario.fault_plan_);
  }
  return scenario;
}

}  // namespace dredbox::core
