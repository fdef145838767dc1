#include "core/cluster.hpp"

#include <stdexcept>
#include <utility>

#include "sim/arena.hpp"
#include "sim/contract.hpp"
#include "sim/digest.hpp"
#include "sim/format.hpp"

namespace dredbox::core {

namespace {

/// Fixed spine message header (routing + transaction id on the wire).
constexpr std::uint32_t kHeaderBytes = 32;

/// Local DDR footprint of a gateway VM (it only fronts the exported
/// disaggregated window, so the local slice stays small).
constexpr std::uint64_t kGatewayLocalBytes = 64ull << 20;

/// splitmix64 finalizer: decorrelates per-rack seeds from the deployment
/// seed so racks never share RNG streams.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t rack) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (rack + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Derives rack r's standalone DatacenterConfig: the enclosing timing
/// models and behaviour flags verbatim, the shape from its RackSpec, a
/// decorrelated seed, and the multi-rack fields cleared (each rack is a
/// plain single-rack Datacenter from its own point of view).
DatacenterConfig rack_config(const DatacenterConfig& base, std::size_t r) {
  DatacenterConfig c = base;
  const RackSpec& spec = base.racks[r];
  c.trays = spec.trays;
  c.compute_bricks_per_tray = spec.compute_bricks_per_tray;
  c.memory_bricks_per_tray = spec.memory_bricks_per_tray;
  c.accelerator_bricks_per_tray = spec.accelerator_bricks_per_tray;
  c.seed = mix_seed(base.seed, r);
  c.racks.clear();
  c.spine = SpineSpec{};
  c.partitions = 1;
  return c;
}

/// Bytes on the wire for the request leg (writes carry the payload out)
/// and the reply leg (reads carry it back).
std::uint32_t request_bytes(std::uint32_t bytes, bool write) {
  return kHeaderBytes + (write ? bytes : 0);
}
std::uint32_t reply_bytes(std::uint32_t bytes, bool write) {
  return kHeaderBytes + (write ? 0 : bytes);
}

/// One-way latency of a `bytes` message through the spine: propagation
/// plus serialization at the line rate (bits * 1000 / gbps picoseconds).
sim::Time one_way(const SpineSpec& spine, std::uint32_t bytes) {
  const double ps = static_cast<double>(bytes) * 8.0 * 1000.0 / spine.bandwidth_gbps;
  return spine.propagation + sim::Time::ps(static_cast<std::int64_t>(ps));
}

/// Static power of the spine: one lit port per rack.
double spine_watts(const SpineSpec& spine, std::size_t racks) {
  return static_cast<double>(racks) * spine.per_port_power_w;
}

/// Gate run before the spine and the kernel are built, so a bad config
/// reports every validate() finding, never a member's first complaint.
DatacenterConfig checked(const DatacenterConfig& config) {
  if (config.racks.empty()) {
    throw std::invalid_argument("Cluster requires a multi-rack config (config.racks non-empty)");
  }
  sim::throw_if_invalid("cluster config", config.validate());
  return config;
}

}  // namespace

/// One rack's NIC onto the spine. Owned-by-shard discipline: everything
/// here except `served_` and `rx_` is written only from the owning rack's
/// execution context (issue/complete events), and the target-side fields
/// are written only from the target's context — the partitioned kernel's
/// barrier rounds order those accesses, so no locking is needed.
class Cluster::RackPort final : public CrossRackPort {
 public:
  RackPort(Cluster& cluster, std::uint32_t rack) : cluster_{cluster}, rack_{rack} {}

  std::size_t peer_count() const override { return peers_.size(); }

  std::uint64_t window_bytes(std::size_t peer) const override {
    return cluster_.gateways_.at(peers_.at(peer).rack).size;
  }

  // dredbox-lint: hot-path-begin — issue() runs once per cross-rack op and
  // must stay allocation-free.
  void issue(std::size_t peer, std::uint64_t offset, std::uint32_t bytes, bool write,
             std::uint32_t token, bool closed_loop) override {
    Peer& p = peers_.at(peer);
    const Gateway& gw = cluster_.gateways_[p.rack];
    DREDBOX_INVARIANT(offset + bytes <= gw.size, "cross-rack issue outside the gateway window");
    sim::Simulator& sim = cluster_.racks_[rack_]->simulator();
    const sim::Time now = sim.now();
    const std::uint64_t address = gw.base + offset;
    // The completion as issued: a fail-fast delivers it as is; otherwise it
    // waits in the pending arena for complete() to fill in the outcome.
    const CrossCompletion issued{token, address, write, closed_loop, false, now, now};
    if (!p.up) {
      // Fail fast at the sending NIC, as an event so the completion is
      // never synchronous with issue() (same contract as the success path).
      ++p.fail_fast;
      RackPort* self = this;
      sim.at(now, [self, issued] { self->handler_(issued); }, "spine.fail_fast");
      return;
    }
    const PendingHandle handle = alloc_pending(issued);
    p.on_send(request_bytes(bytes, write));
    Cluster* cluster = &cluster_;
    const std::uint32_t target = p.rack;
    const std::uint32_t src = rack_;
    cluster_.kernel_.send(
        src, target, now + one_way(cluster_.config_.spine, request_bytes(bytes, write)),
        [cluster, target, src, handle, address, bytes, write] {
          cluster->serve(target, src, handle, address, bytes, write);
        },
        "spine.request");
  }
  // dredbox-lint: hot-path-end

  void set_handler(sim::InplaceFunction<void(const CrossCompletion&)> handler) override {
    handler_ = std::move(handler);
  }

 private:
  friend class Cluster;

  /// One outbound direction of this rack's spine uplink, owned by the
  /// *sending* rack's shard: `up` is flipped only by that shard's own fault
  /// events and read only on its send path, and the counters are charged
  /// only by its sends, so no locking is needed. A down direction refuses
  /// new requests at the sender; light already launched always lands.
  struct Peer {
    std::uint32_t rack = 0;  // peer rack index
    bool up = true;
    std::uint64_t tx_messages = 0;
    std::uint64_t tx_bytes = 0;
    /// Requests refused because this direction was down.
    std::uint64_t fail_fast = 0;

    void on_send(std::uint32_t bytes) {
      ++tx_messages;
      tx_bytes += bytes;
    }
  };

  /// Pools in-flight requests' completions-to-be (`ok` and `completed_at`
  /// are filled in by complete()), so the request and reply messages carry
  /// an 8-byte (slot, generation) handle instead of the whole record.
  PendingHandle alloc_pending(const CrossCompletion& c) {
    const std::uint32_t slot = pending_.create(c).second;
    return PendingHandle{slot, pending_.generation(slot)};
  }

  /// Retires the request `handle` names. Retiring bumps the slot's
  /// generation, so a duplicated or late reply for a slot that has since
  /// been retired (and perhaps reissued) is refused instead of completing
  /// the slot's next tenant or freeing the slot twice.
  CrossCompletion take_pending(PendingHandle handle) {
    const CrossCompletion* p = pending_.get(handle.slot);
    DREDBOX_INVARIANT(p != nullptr && pending_.generation(handle.slot) == handle.generation,
                      "Cluster: stale cross-rack reply for pending slot " +
                          std::to_string(handle.slot) + " generation " +
                          std::to_string(handle.generation) + " — the request was already "
                          "completed");
    const CrossCompletion out = *p;
    pending_.destroy(handle.slot);
    return out;
  }

  /// Peer slot index for a given rack (the rack indices skip our own).
  std::size_t peer_of(std::uint32_t rack) const {
    return rack < rack_ ? rack : rack - 1;
  }

  /// Applies a spine fault on rack `down`'s uplink, delivered by this
  /// rack's injector on its own queue: the faulted rack loses every
  /// outbound direction, a peer only its direction toward it. Only
  /// admission is gated by link state; messages already launched land.
  void set_uplink(std::uint64_t down, bool up) {
    DREDBOX_INVARIANT(down < cluster_.racks_.size(),
                      "spine fault targets a rack that does not exist");
    if (down == rack_) {
      for (auto& peer : peers_) peer.up = up;
    } else {
      peers_[peer_of(static_cast<std::uint32_t>(down))].up = up;
    }
  }

  Cluster& cluster_;
  const std::uint32_t rack_;
  std::vector<Peer> peers_;
  sim::IndexedArena<CrossCompletion> pending_;
  /// Target-side state (written only from this rack's serve events).
  std::uint64_t rx_ = 0;
  sim::Digest served_;
  sim::InplaceFunction<void(const CrossCompletion&)> handler_;
};

Cluster::Cluster(const DatacenterConfig& config)
    : config_{checked(config)}, kernel_{config.spine.propagation} {
  racks_.reserve(config_.racks.size());
  for (std::size_t r = 0; r < config_.racks.size(); ++r) {
    racks_.push_back(std::make_unique<Datacenter>(rack_config(config_, r)));
  }
  wire_spine();
  boot_gateways();
  kernel_.set_shard_prologue([this](std::size_t shard) { racks_[shard]->rebind_thread_owner(); });
}

Cluster::~Cluster() = default;

void Cluster::wire_spine() {
  const std::size_t n = racks_.size();
  for (std::size_t r = 0; r < n; ++r) {
    kernel_.add_shard(racks_[r]->simulator());
    ports_.push_back(std::make_unique<RackPort>(*this, static_cast<std::uint32_t>(r)));
    RackPort* port = ports_.back().get();
    racks_[r]->faults().on(sim::FaultKind::kSpineLinkDown,
                           [port](const sim::FaultEvent& e) { port->set_uplink(e.target, false); });
    racks_[r]->faults().on_recover(
        sim::FaultKind::kSpineLinkDown,
        [port](const sim::FaultEvent& e) { port->set_uplink(e.target, true); });
  }
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      if (from != to) ports_[from]->peers_.push_back({static_cast<std::uint32_t>(to)});
    }
  }
}

void Cluster::boot_gateways() {
  gateways_.reserve(racks_.size());
  for (std::size_t r = 0; r < racks_.size(); ++r) {
    Datacenter& dc = *racks_[r];
    const std::string name = "spine-gw-" + std::to_string(r);
    const auto boot = dc.boot_vm(name, 1, kGatewayLocalBytes);
    if (!boot.ok) {
      throw std::runtime_error("rack " + std::to_string(r) + ": gateway VM boot failed: " +
                               boot.error);
    }
    const auto up = dc.scale_up(boot.vm, boot.compute, config_.spine.gateway_bytes);
    if (!up.ok) {
      throw std::runtime_error("rack " + std::to_string(r) + ": gateway window scale-up failed: " +
                               up.error);
    }
    Gateway gw;
    gw.vm = boot.vm;
    gw.compute = boot.compute;
    for (const auto& attachment : dc.fabric().attachments_of(boot.compute)) {
      if (attachment.segment == up.segment && attachment.membrick == up.membrick) {
        gw.base = attachment.compute_base;
        gw.size = attachment.size;
      }
    }
    if (gw.size == 0) {
      throw std::runtime_error("rack " + std::to_string(r) +
                               ": gateway window not visible after scale-up");
    }
    gateways_.push_back(gw);
  }
}

void Cluster::arm_spine_faults(sim::Time base) {
  if (faults_armed_) throw std::logic_error("Cluster: spine faults already armed");
  faults_armed_ = true;
  const sim::FaultPlan plan = config_.spine.faults.shifted(base);
  for (auto& rack : racks_) {
    DREDBOX_INVARIANT(base >= rack->simulator().now(),
                      "Cluster::arm_spine_faults: base lies in a rack's past");
    rack->inject_faults(plan);
  }
}

// dredbox-lint: hot-path-begin — serve() and complete() run once per
// cross-rack op, on the target and the source rack; steady state must not
// allocate.
void Cluster::serve(std::uint32_t target, std::uint32_t src, PendingHandle handle,
                    std::uint64_t address, std::uint32_t bytes, bool write) {
  RackPort& port = *ports_[target];
  ++port.rx_;
  Datacenter& dc = *racks_[target];
  const sim::Time now = dc.simulator().now();
  Gateway& gw = gateways_[target];
  // The request rides the gateway's held route; the fabric walks whatever
  // the held route cannot carry.
  const memsys::TransactionKind kind =
      write ? memsys::TransactionKind::kWrite : memsys::TransactionKind::kRead;
  const memsys::RemoteMemoryFabric::Outcome tx =
      dc.fabric().transact(gw.held, kind, gw.compute, address, bytes, now);
  port.served_.update(write ? "w" : "r")
      .update(src)
      .update(address)
      .update(static_cast<std::uint64_t>(tx.status))
      .update(static_cast<std::uint64_t>(tx.completed_at.ticks()));
  // The reply rides the transaction already admitted at request time, so
  // it is sent regardless of the link's current health (in-flight light
  // lands; only new requests fail fast).
  RackPort::Peer& back = port.peers_[port.peer_of(src)];
  const bool ok = tx.ok();
  back.on_send(reply_bytes(bytes, write));
  Cluster* cluster = this;
  kernel_.send(
      target, src, tx.completed_at + one_way(config_.spine, reply_bytes(bytes, write)),
      [cluster, src, handle, ok] { cluster->complete(src, handle, ok); }, "spine.reply");
}

void Cluster::complete(std::uint32_t src, PendingHandle handle, bool ok) {
  RackPort& port = *ports_[src];
  CrossCompletion completion = port.take_pending(handle);
  completion.ok = ok;
  completion.completed_at = racks_[src]->simulator().now();
  port.handler_(completion);
}
// dredbox-lint: hot-path-end

CrossRackPort& Cluster::port(std::size_t r) { return *ports_.at(r); }

std::uint64_t Cluster::gateway_window_bytes(std::size_t r) const { return gateways_.at(r).size; }

RackLinkStats Cluster::link_stats(std::size_t r) const {
  RackLinkStats stats;
  const RackPort& port = *ports_.at(r);
  for (const auto& peer : port.peers_) {
    stats.tx_messages += peer.tx_messages;
    stats.tx_bytes += peer.tx_bytes;
    stats.fail_fast += peer.fail_fast;
  }
  stats.rx_messages = port.rx_;
  return stats;
}

std::uint64_t Cluster::served_digest(std::size_t r) const {
  return ports_.at(r)->served_.value();
}

sim::PartitionRunStats Cluster::advance_all(sim::Time until, std::size_t threads) {
  return kernel_.run(until, threads);
}

double Cluster::power_draw_watts() const {
  double watts = spine_watts(config_.spine, racks_.size());
  for (const auto& rack : racks_) watts += rack->power_draw_watts();
  return watts;
}

std::string Cluster::describe() const {
  const std::size_t n = racks_.size();
  std::string out = sim::strformat("Cluster: %zu racks over an optical spine\n", n);
  out += sim::strformat("spine switch: %zu/%zu ports lit, %zu rack-pair circuits, %.1f W\n", n,
                        config_.spine.ports, n * (n - 1) / 2, spine_watts(config_.spine, n));
  for (std::size_t r = 0; r < n; ++r) {
    out += sim::strformat("rack %zu: gateway window %llu MiB at 0x%llx\n", r,
                          static_cast<unsigned long long>(gateways_[r].size >> 20),
                          static_cast<unsigned long long>(gateways_[r].base));
  }
  return out;
}

}  // namespace dredbox::core
