#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "sim/partition.hpp"
#include "sim/time.hpp"
#include "workload/engine.hpp"

namespace dredbox::workload {

/// Everything a multi-rack load session measured: one WorkloadResult per
/// rack plus cluster-level reductions. `digest` folds every rack's op
/// stream, every rack's *served* cross-traffic schedule and the spine
/// link counters in rack order, so two runs match iff their coupled
/// schedules were byte-identical.
struct ClusterResult {
  std::vector<WorkloadResult> racks;

  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t retries = 0;
  std::uint64_t cross_ops = 0;
  /// Spine totals across racks.
  std::uint64_t spine_tx_messages = 0;
  std::uint64_t spine_fail_fast = 0;

  std::uint64_t digest = 0;
  /// The partitioned kernel's round accounting for the coupled window and
  /// the host wall-clock it took.
  sim::PartitionRunStats kernel;
  double wall_seconds = 0.0;
  /// Threads that ran the window: one, whatever was asked for, since the
  /// partitioned kernel runs every round on the calling thread.
  std::size_t threads = 1;
  double duration_s = 0.0;

  double throughput_hz() const {
    return duration_s > 0.0 ? static_cast<double>(completed) / duration_s : 0.0;
  }

  std::string summary() const;
};

/// Drives one WorkloadConfig against a core::Cluster: tenants land on
/// their home_rack, each rack gets its own WorkloadEngine wired to the
/// rack's spine NIC, and the coupled window runs on the partitioned
/// kernel in conservative-lookahead rounds, with one schedule whatever
/// thread count is asked for.
class ClusterEngine {
 public:
  /// Throws std::invalid_argument listing every config error (including
  /// tenants placed on racks the cluster doesn't have).
  ClusterEngine(core::Cluster& cluster, WorkloadConfig config);

  const WorkloadConfig& config() const { return config_; }

  /// Boots, generates, drains, reduces, once. `threads` is the worker
  /// count asked of the kernel (0 uses the cluster config's partitions
  /// setting); the window runs on the calling thread either way.
  ClusterResult run(std::size_t threads = 0);

 private:
  core::Cluster& cluster_;
  WorkloadConfig config_;
  /// One engine per rack that hosts at least one tenant (index = rack).
  std::vector<std::unique_ptr<WorkloadEngine>> engines_;
  bool ran_ = false;
};

}  // namespace dredbox::workload
