#pragma once

#include <cstdint>
#include <string>

#include "hw/rack.hpp"
#include "memsys/remote_memory.hpp"
#include "orch/sdm_controller.hpp"
#include "sim/breakdown.hpp"
#include "sim/time.hpp"

namespace dredbox::orch {

/// Pre-copy live-migration model parameters.
struct MigrationConfig {
  /// Inter-brick bandwidth available to the migration stream.
  double network_bandwidth_gbps = 10.0;
  /// Rate at which the running guest dirties its *local* memory.
  double dirty_rate_bytes_per_sec = 150e6;
  std::size_t max_precopy_iterations = 12;
  /// Remaining-dirty cutoff that triggers the stop-and-copy phase.
  std::uint64_t downtime_threshold_bytes = 64ull << 20;
  /// Fixed pause/resume overhead around the stop-and-copy phase.
  sim::Time pause_resume = sim::Time::ms(30);
};

/// Outcome of one live migration.
struct MigrationResult {
  bool ok = false;
  std::string error;
  hw::VmId vm;       // id at the source (retired on success)
  hw::VmId new_vm;   // id at the destination
  hw::BrickId from;
  hw::BrickId to;

  std::uint64_t copied_bytes = 0;            // local memory actually moved
  std::uint64_t repointed_bytes = 0;         // disaggregated memory: zero-copy
  std::size_t precopy_iterations = 0;
  sim::Time total_time;
  sim::Time downtime;                        // guest-visible blackout
  sim::Breakdown breakdown;
};

/// Live VM migration between dCOMPUBRICKs (project objective: "enhanced
/// elasticity and improved process/virtual machine migration within the
/// datacenter"). The disaggregation dividend: only the guest's *local*
/// DIMMs are pre-copied; every disaggregated segment is re-pointed by
/// moving its RMST entry and circuit to the destination brick — the data
/// on the dMEMBRICK never moves. A conventional server would have to
/// stream all of it.
class MigrationEngine {
 public:
  /// Binds the completion/failure counters, the guest-visible downtime
  /// histogram, the zero-copy dividend (re-pointed bytes) and a
  /// kMigration trace span per move.
  MigrationEngine(hw::Rack& rack, memsys::RemoteMemoryFabric& fabric, SdmController& sdm,
                  sim::Telemetry& telemetry, const MigrationConfig& config = {});

  /// Migrates `vm` from `from` to `to`. On success the VM is running on
  /// `to` under `new_vm` and the source instance is destroyed.
  MigrationResult migrate(hw::VmId vm, hw::BrickId from, hw::BrickId to, sim::Time now);

  /// What-if: predicted copy time if all of the VM's memory were local
  /// (the conventional mainboard-as-a-unit baseline).
  sim::Time conventional_copy_time(std::uint64_t total_bytes) const;

  const MigrationConfig& config() const { return config_; }
  std::size_t completed() const { return completed_; }

 private:
  hw::Rack& rack_;
  memsys::RemoteMemoryFabric& fabric_;
  SdmController& sdm_;
  MigrationConfig config_;
  std::size_t completed_ = 0;

  sim::Telemetry& telemetry_;
  sim::metrics::Counter& completed_metric_;
  sim::metrics::Counter& failed_metric_;
  sim::metrics::Counter& repointed_bytes_metric_;
  sim::metrics::Histogram& downtime_metric_;

  MigrationResult migrate_impl(hw::VmId vm, hw::BrickId from, hw::BrickId to, sim::Time now);

  double bandwidth_bytes_per_sec() const { return config_.network_bandwidth_gbps * 1e9 / 8.0; }
};

}  // namespace dredbox::orch
