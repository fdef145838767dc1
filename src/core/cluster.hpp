#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cross_port.hpp"
#include "core/datacenter.hpp"
#include "sim/partition.hpp"

namespace dredbox::core {

/// Spine-traffic counters of one rack's NIC, for reports and audits.
struct RackLinkStats {
  std::uint64_t tx_messages = 0;
  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_messages = 0;
  /// Requests refused at this rack because the outbound link was down.
  std::uint64_t fail_fast = 0;
};

/// A multi-rack dReDBox deployment: one full Datacenter per rack, joined
/// by an optical spine switch over which each rack exports a disaggregated
/// gateway memory window to its peers. Cross-rack reads and writes are
/// split-phase — request message over the spine, served against the target
/// rack's own remote-memory fabric through a gateway VM booted via that
/// rack's control plane, reply message back — so every byte of cross-rack
/// traffic exercises the same full stack as intra-rack traffic.
///
/// Every rack pair gets a spine circuit at wiring, so the spine's ports
/// lit, circuits and power are closed forms of size(); its only
/// time-varying state is each rack's sender-owned outbound directions.
///
/// Each rack is one shard of a sim::PartitionedKernel whose one lookahead
/// is the spine's propagation delay; advance_all() runs the coupled
/// simulation in conservative rounds on the calling thread.
class Cluster {
 public:
  /// Requires config.racks to be non-empty; validates the config and
  /// throws std::invalid_argument listing every error. Boots one gateway
  /// VM per rack (throwing std::runtime_error if a gateway cannot come
  /// up) and routes every rack's `spine-down` faults to its spine links.
  explicit Cluster(const DatacenterConfig& config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  const DatacenterConfig& config() const { return config_; }

  std::size_t size() const { return racks_.size(); }
  Datacenter& rack(std::size_t r) { return *racks_.at(r); }
  const Datacenter& rack(std::size_t r) const { return *racks_.at(r); }

  /// Rack r's NIC onto the spine; the workload layer installs its
  /// completion handler here and issues cross-rack traffic through it.
  CrossRackPort& port(std::size_t r);

  /// Bytes of the gateway window rack r exports to every peer.
  std::uint64_t gateway_window_bytes(std::size_t r) const;

  RackLinkStats link_stats(std::size_t r) const;

  /// FNV-1a digest of every request rack r *served* (source rack, address,
  /// fabric status, completion tick, in service order). Folded into the
  /// cluster run digest so the determinism proof covers the target-side
  /// schedule, not just each source's view.
  std::uint64_t served_digest(std::size_t r) const;

  /// Schedules the configured spine faults, shifted by `base`, on every
  /// rack's fault injector (each recovers `duration` later). The cluster
  /// workload engine arms at its window start; drivers without a
  /// workload can arm at zero for wiring-absolute fault times. At most
  /// one arming per cluster; `base` must not lie in any rack's past.
  void arm_spine_faults(sim::Time base);
  bool spine_faults_armed() const { return faults_armed_; }

  /// Advances every rack to `until` in conservative lookahead rounds.
  /// `threads` is ignored; benchmark/dredbox_bench.cpp is its only caller
  /// (ROADMAP item 1).
  sim::PartitionRunStats advance_all(sim::Time until, std::size_t threads = 1);

  /// Total instantaneous power: the racks plus one lit spine port each.
  double power_draw_watts() const;

  std::string describe() const;

 private:
  class RackPort;
  /// White-box access for the stale-reply regression test.
  friend struct ClusterTestAccess;

  /// Names one in-flight request on its source rack: the pending slot and
  /// the slot's generation when the request took it. Request and reply
  /// messages carry it, so a duplicated or late reply is refused rather
  /// than completing the slot's next tenant.
  struct PendingHandle {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };

  /// Target-side half of a cross-rack request: serve it against rack
  /// `target`'s fabric through its gateway brick, then send the reply.
  void serve(std::uint32_t target, std::uint32_t src, PendingHandle handle, std::uint64_t address,
             std::uint32_t bytes, bool write);
  /// Source-side half: retire the request `handle` names and hand the
  /// completion to the rack's installed handler. A stale handle (the reply
  /// was already delivered) throws sim::ContractViolation.
  void complete(std::uint32_t src, PendingHandle handle, bool ok);

  void wire_spine();
  void boot_gateways();

  struct Gateway {
    hw::VmId vm;
    hw::BrickId compute;
    std::uint64_t base = 0;
    std::uint64_t size = 0;
    /// Held fabric routes of the window. Only serve() on this gateway's own
    /// rack touches them, so they follow that rack's shard.
    memsys::RemoteMemoryFabric::HeldRoute held;
  };

  DatacenterConfig config_;
  std::vector<std::unique_ptr<Datacenter>> racks_;
  sim::PartitionedKernel kernel_;
  std::vector<Gateway> gateways_;
  std::vector<std::unique_ptr<RackPort>> ports_;
  bool faults_armed_ = false;
};

}  // namespace dredbox::core
