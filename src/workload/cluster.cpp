#include "workload/cluster.hpp"

#include <algorithm>
#include <chrono>  // dredbox-lint: ignore[wall-clock] a window's host wall time is a host-side quantity
#include <stdexcept>
#include <utility>

#include "sim/contract.hpp"
#include "sim/digest.hpp"
#include "sim/format.hpp"

namespace dredbox::workload {

std::string ClusterResult::summary() const {
  std::string out = sim::strformat(
      "cluster: %zu racks, %zu threads, %zu rounds (%zu shard runs), %llu cross-partition "
      "messages\n"
      "offered %llu, completed %llu (%.0f req/s), failed %llu, cross-rack %llu "
      "(spine tx %llu, fail-fast %llu)\n",
      racks.size(), threads, kernel.rounds, kernel.shard_runs,
      static_cast<unsigned long long>(kernel.messages),
      static_cast<unsigned long long>(offered), static_cast<unsigned long long>(completed),
      throughput_hz(), static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(cross_ops),
      static_cast<unsigned long long>(spine_tx_messages),
      static_cast<unsigned long long>(spine_fail_fast));
  out += sim::strformat("wall %.3f s  digest %016llx", wall_seconds,
                        static_cast<unsigned long long>(digest));
  return out;
}

ClusterEngine::ClusterEngine(core::Cluster& cluster, WorkloadConfig config)
    : cluster_{cluster}, config_{std::move(config)} {
  auto errors = config_.errors();
  for (std::size_t i = 0; i < config_.tenants.size(); ++i) {
    if (config_.tenants[i].home_rack >= cluster_.size()) {
      errors.push_back(sim::strformat(
          "tenants[%zu].home_rack: rack %zu does not exist (cluster has %zu racks)", i,
          config_.tenants[i].home_rack, cluster_.size()));
    }
  }
  sim::throw_if_invalid("cluster WorkloadConfig", errors);

  // One engine per populated rack, each seeing only its own tenants and
  // wired to its rack's spine NIC.
  engines_.resize(cluster_.size());
  const double default_share = cluster_.config().spine.cross_share;
  for (std::size_t r = 0; r < cluster_.size(); ++r) {
    WorkloadConfig rack_config = config_;
    rack_config.tenants.clear();
    for (const auto& tenant : config_.tenants) {
      if (tenant.home_rack == r) rack_config.tenants.push_back(tenant);
    }
    if (rack_config.tenants.empty()) continue;
    engines_[r] = std::make_unique<WorkloadEngine>(cluster_.rack(r), std::move(rack_config));
    engines_[r]->install_cross_port(&cluster_.port(r), default_share);
  }
}

ClusterResult ClusterEngine::run(std::size_t threads) {
  if (ran_) throw std::logic_error("ClusterEngine::run() may only be called once");
  ran_ = true;

  ClusterResult result;
  result.racks.resize(cluster_.size());

  // Phase 1 — control plane, each rack on its own clock (no cross-rack
  // traffic exists yet, so the racks are still independent).
  for (auto& engine : engines_) {
    if (engine) engine->prepare();
  }

  // Synchronize every rack to one shared window start: the latest boot
  // completion across the cluster. Cross-rack messages always land at or
  // after t0 + propagation, so no rack ever sees traffic from its past.
  sim::Time t0 = sim::Time::zero();
  for (std::size_t r = 0; r < cluster_.size(); ++r) {
    const sim::Time now = cluster_.rack(r).simulator().now();
    if (now > t0) t0 = now;
    if (engines_[r] && engines_[r]->boot_ready() > t0) t0 = engines_[r]->boot_ready();
  }
  for (std::size_t r = 0; r < cluster_.size(); ++r) cluster_.rack(r).advance_to(t0);

  // Phase 2 — the coupled window + drain, on the partitioned kernel.
  // Spine faults count from the window start, so "0.5 ms in" means the
  // same thing no matter how long the control plane took to boot.
  if (!cluster_.spine_faults_armed()) cluster_.arm_spine_faults(t0);
  for (auto& engine : engines_) {
    if (engine) engine->begin_window(t0);
  }
  // The kernel runs every round on this thread whatever the request, and
  // result.threads keeps reporting the one thread that ran.
  const std::size_t requested = threads == 0 ? cluster_.config().partitions : threads;
  const auto start = std::chrono::steady_clock::now();  // dredbox-lint: ignore[wall-clock] times the coupled window on the host
  result.kernel = cluster_.advance_all(t0 + config_.duration + config_.drain_grace, requested);
  const auto stop = std::chrono::steady_clock::now();  // dredbox-lint: ignore[wall-clock] times the coupled window on the host
  result.wall_seconds = std::chrono::duration<double>(stop - start).count();

  // Phase 3 — reduce. The combined digest covers each source rack's op
  // stream, each target rack's served schedule and the spine counters,
  // all in rack order: equal digests mean equal coupled schedules.
  sim::Digest digest;
  for (std::size_t r = 0; r < cluster_.size(); ++r) {
    if (engines_[r]) {
      result.racks[r] = engines_[r]->finish();
    } else {
      result.racks[r].duration_s = config_.duration.as_sec();
    }
    const WorkloadResult& rack = result.racks[r];
    result.offered += rack.offered;
    result.completed += rack.completed;
    result.failed += rack.failed;
    result.retries += rack.retries;
    result.cross_ops += rack.cross_ops;
    const core::RackLinkStats stats = cluster_.link_stats(r);
    result.spine_tx_messages += stats.tx_messages;
    result.spine_fail_fast += stats.fail_fast;
    digest.update("rack")
        .update(static_cast<std::uint64_t>(r))
        .update(rack.digest)
        .update(cluster_.served_digest(r))
        .update(stats.tx_messages)
        .update(stats.rx_messages)
        .update(stats.fail_fast);
  }
  result.digest = digest.value();
  result.duration_s = config_.duration.as_sec();
  return result;
}

}  // namespace dredbox::workload
