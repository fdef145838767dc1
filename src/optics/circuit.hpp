#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/ids.hpp"
#include "optics/link_budget.hpp"
#include "optics/optical_switch.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"

namespace dredbox::optics {

/// One endpoint of a circuit: a transceiver port on a brick plus its
/// launch power (taken from the brick's MBO channel).
struct CircuitEndpoint {
  hw::BrickId brick;
  hw::PortId port;
  double launch_dbm = -3.7;
  double coupling_loss_db = 1.2;  // MBO facet coupling at this end
};

/// A bidirectional circuit-switched optical path between two bricks,
/// traversing the optical switch `hops` times (the testbed of Fig. 7
/// emulates longer rack topologies by patching six to eight hops).
struct Circuit {
  hw::CircuitId id;
  CircuitEndpoint a;
  CircuitEndpoint b;
  std::size_t hops = 1;
  double fiber_length_m = 10.0;
  std::vector<std::size_t> switch_ports;  // 2 per hop

  /// One-way propagation delay over the fibre.
  sim::Time propagation_delay() const {
    return sim::Time::ns(fiber_length_m * kPropagationNsPerMeter);
  }

  static constexpr double kPropagationNsPerMeter = 5.0;
};

/// Request for a new circuit.
struct CircuitRequest {
  CircuitEndpoint a;
  CircuitEndpoint b;
  std::size_t hops = 1;
  double fiber_length_m = 10.0;
  double connector_loss_db = 0.3;  // patch connectors at each endpoint
};

/// Allocates and tears down circuits on one optical switch, tracking the
/// switch-port inventory. This is the data-plane half of "software-defined
/// wiring"; the SDM controller drives it from the control plane.
class CircuitManager {
 public:
  /// Binds the establish/teardown counters, the active-circuit and
  /// switch-port-occupancy gauges and a path-length (hops) histogram.
  CircuitManager(OpticalSwitch& sw, sim::Telemetry& telemetry);

  /// Establishes a circuit, consuming 2*hops switch ports. Returns nullopt
  /// when the switch lacks free ports (the condition that motivates the
  /// packet-switched fallback in Section III).
  std::optional<Circuit> establish(const CircuitRequest& request);

  /// Tears a circuit down, releasing its switch ports. Returns false when
  /// the id is unknown.
  bool teardown(hw::CircuitId id);

  // --- fault model ---
  /// Tears down every circuit whose link budget no longer closes (either
  /// direction received below the FEC-correctable floor) — the reaction to
  /// insertion-loss drift. All dead circuits are removed in one pass so the
  /// audit never observes a half-cleaned table. Returns the torn circuits;
  /// the caller (fabric) must release the brick-side transceiver ports.
  std::vector<Circuit> teardown_below_floor();

  /// One beam-steering switch port dies: every circuit crossing it is torn
  /// down and the port is taken out of service (excluded from future
  /// establish calls). Returns the torn circuits for brick-side cleanup.
  std::vector<Circuit> fail_switch_port(std::size_t port);

  /// Returns a failed switch port to service. Returns false when the port
  /// was healthy.
  bool repair_switch_port(std::size_t port) { return switch_.repair_port(port); }

  /// A pointer into the manager's storage (stable until the circuit is
  /// torn down), nullptr when the circuit is gone. Allocation-free, so the
  /// per-op datapath calls it too.
  const Circuit* find(hw::CircuitId id) const;
  std::size_t active_circuits() const { return circuits_.size(); }

  /// Circuits torn down so far, by teardown(), teardown_below_floor() or
  /// fail_switch_port(). A pointer find() returned stays valid while this
  /// count has not moved (establishing never moves a circuit), so a caller
  /// that caches one re-runs find() only when it has.
  std::uint64_t teardowns() const { return teardowns_; }

  /// Time to program the cross-connections for a new circuit; all hops are
  /// configured in parallel so one switch reconfiguration dominates.
  sim::Time setup_time() const { return switch_.config().reconfiguration_time; }

  /// Link budget for the direction a->b (or b->a when `from_a` is false).
  LinkBudget budget(const Circuit& circuit, bool from_a) const;

  OpticalSwitch& optical_switch() { return switch_; }

  /// Worst pre-FEC BER the link-layer FEC can still correct; circuits whose
  /// budget lands the received power below the power this BER requires are
  /// dead links and fail the invariant audit.
  static constexpr double kWorstCorrectablePreFecBer = 1e-3;

  /// Deep consistency audit: every circuit owns 2*hops switch ports, no
  /// port is allocated to two circuits, every owned port is actually
  /// cross-connected in the switch, and both directions of every circuit
  /// are received above the FEC-correctable floor (the optical power
  /// budget closes). Throws ContractViolation on the first broken
  /// invariant. Wired into establish/teardown when built with
  /// -DDREDBOX_AUDIT=ON; callable directly in any build.
  void check_invariants() const;

 private:
  OpticalSwitch& switch_;
  std::unordered_map<std::uint32_t, Circuit> circuits_;
  std::uint32_t next_id_ = 1;
  std::uint64_t teardowns_ = 0;
  double connector_loss_db_ = 0.3;

  sim::metrics::Counter& established_metric_;
  sim::metrics::Counter& rejected_metric_;
  sim::metrics::Counter& torn_down_metric_;
  sim::metrics::Gauge& active_metric_;
  sim::metrics::Gauge& ports_in_use_metric_;
  sim::metrics::Histogram& hops_metric_;

  /// Refreshes the active-circuit and port-occupancy gauges.
  void set_occupancy();
};

}  // namespace dredbox::optics
