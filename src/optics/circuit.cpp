#include "optics/circuit.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "optics/receiver.hpp"
#include "sim/contract.hpp"

namespace dredbox::optics {

CircuitManager::CircuitManager(OpticalSwitch& sw, sim::Telemetry& telemetry)
    : switch_{sw},
      established_metric_{telemetry.metrics().counter("optics.circuits.established")},
      rejected_metric_{telemetry.metrics().counter("optics.circuits.rejected")},
      torn_down_metric_{telemetry.metrics().counter("optics.circuits.torn_down")},
      active_metric_{telemetry.metrics().gauge("optics.circuits.active")},
      ports_in_use_metric_{telemetry.metrics().gauge("optics.switch.ports_in_use")},
      // The Fig. 7 testbed patches six to eight hops; one bin per hop count.
      hops_metric_{telemetry.metrics().histogram("optics.circuit.hops", 0.0, 8.0, 8)} {}

void CircuitManager::set_occupancy() {
  active_metric_.set(static_cast<double>(circuits_.size()));
  ports_in_use_metric_.set(static_cast<double>(switch_.ports_in_use()));
}

std::optional<Circuit> CircuitManager::establish(const CircuitRequest& request) {
  if (request.hops == 0) throw std::invalid_argument("CircuitManager: zero-hop circuit");
  const std::size_t needed = 2 * request.hops;
  auto ports = switch_.find_free_ports(needed);
  if (ports.empty()) {
    rejected_metric_.add();
    return std::nullopt;
  }

  // Each hop pairs ports (2i, 2i+1); inter-hop patches are fixed fibre.
  for (std::size_t i = 0; i < request.hops; ++i) {
    switch_.connect(ports[2 * i], ports[2 * i + 1]);
  }

  Circuit c;
  c.id = hw::CircuitId{next_id_++};
  c.a = request.a;
  c.b = request.b;
  c.hops = request.hops;
  c.fiber_length_m = request.fiber_length_m;
  c.switch_ports = std::move(ports);
  connector_loss_db_ = request.connector_loss_db;
  circuits_.emplace(c.id.value, c);
  established_metric_.add();
  set_occupancy();
  hops_metric_.observe(static_cast<double>(c.hops));
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return c;
}

bool CircuitManager::teardown(hw::CircuitId id) {
  auto it = circuits_.find(id.value);
  if (it == circuits_.end()) return false;
  const Circuit& c = it->second;
  for (std::size_t i = 0; i < c.hops; ++i) {
    switch_.disconnect(c.switch_ports[2 * i]);
  }
  circuits_.erase(it);
  ++teardowns_;
  torn_down_metric_.add();
  set_occupancy();
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return true;
}

std::vector<Circuit> CircuitManager::teardown_below_floor() {
  const double floor_dbm = ReceiverModel{}.required_power_dbm(kWorstCorrectablePreFecBer);
  std::vector<Circuit> torn;
  // Collect first (deterministically, by id), erase after: the audit runs
  // once at the end, never against a table where one dead circuit is gone
  // and its equally-dead sibling still fails the budget-floor invariant.
  std::vector<std::uint32_t> dead;
  // dredbox-lint: ignore[unordered-iteration] -- ids are sorted below.
  for (const auto& [id, c] : circuits_) {
    if (budget(c, true).received_dbm() < floor_dbm ||
        budget(c, false).received_dbm() < floor_dbm) {
      dead.push_back(id);
    }
  }
  std::sort(dead.begin(), dead.end());
  for (std::uint32_t id : dead) {
    auto it = circuits_.find(id);
    torn.push_back(it->second);
    for (std::size_t i = 0; i < it->second.hops; ++i) {
      switch_.disconnect(it->second.switch_ports[2 * i]);
    }
    circuits_.erase(it);
    ++teardowns_;
    torn_down_metric_.add();
  }
  if (!torn.empty()) set_occupancy();
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return torn;
}

std::vector<Circuit> CircuitManager::fail_switch_port(std::size_t port) {
  std::vector<Circuit> torn;
  std::vector<std::uint32_t> dead;
  // dredbox-lint: ignore[unordered-iteration] -- ids are sorted below.
  for (const auto& [id, c] : circuits_) {
    if (std::find(c.switch_ports.begin(), c.switch_ports.end(), port) !=
        c.switch_ports.end()) {
      dead.push_back(id);
    }
  }
  std::sort(dead.begin(), dead.end());
  for (std::uint32_t id : dead) {
    auto it = circuits_.find(id);
    torn.push_back(it->second);
    for (std::size_t i = 0; i < it->second.hops; ++i) {
      switch_.disconnect(it->second.switch_ports[2 * i]);
    }
    circuits_.erase(it);
    ++teardowns_;
    torn_down_metric_.add();
  }
  switch_.fail_port(port);
  if (!torn.empty()) set_occupancy();
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return torn;
}

const Circuit* CircuitManager::find(hw::CircuitId id) const {
  auto it = circuits_.find(id.value);
  return it == circuits_.end() ? nullptr : &it->second;
}

LinkBudget CircuitManager::budget(const Circuit& circuit, bool from_a) const {
  const CircuitEndpoint& tx = from_a ? circuit.a : circuit.b;
  const CircuitEndpoint& rx = from_a ? circuit.b : circuit.a;
  LinkBudget lb{tx.launch_dbm};
  lb.add_loss("TX MBO coupling", tx.coupling_loss_db);
  lb.add_loss("TX connector", connector_loss_db_);
  lb.add_switch_hops(circuit.hops, switch_.insertion_loss_db());
  // Standard SMF attenuation is ~0.35 dB/km at 1310 nm; in-rack runs are
  // metres, so this term is tiny but kept for completeness.
  lb.add_loss("fibre", circuit.fiber_length_m * 0.35e-3);
  lb.add_loss("RX connector", connector_loss_db_);
  lb.add_loss("RX MBO coupling", rx.coupling_loss_db);
  return lb;
}

void CircuitManager::check_invariants() const {
  // Received power below this and even FEC cannot recover the link; the
  // floor uses the calibrated receiver of the Fig. 7 testbed.
  const double floor_dbm = ReceiverModel{}.required_power_dbm(kWorstCorrectablePreFecBer);
  std::vector<bool> allocated(switch_.port_count(), false);
  std::size_t ports_owned = 0;
  // Order-independent audit over the circuit table.
  // dredbox-lint: ignore[unordered-iteration]
  for (const auto& [id, c] : circuits_) {
    DREDBOX_INVARIANT(c.id.value == id, "circuit table key disagrees with the circuit id");
    DREDBOX_INVARIANT(c.hops >= 1, "circuit " + c.id.to_string() + " has zero hops");
    DREDBOX_INVARIANT(c.switch_ports.size() == 2 * c.hops,
                      "circuit " + c.id.to_string() + " owns " +
                          std::to_string(c.switch_ports.size()) + " switch ports for " +
                          std::to_string(c.hops) + " hops");
    for (std::size_t port : c.switch_ports) {
      DREDBOX_INVARIANT(port < allocated.size(),
                        "circuit " + c.id.to_string() + " references switch port " +
                            std::to_string(port) + " beyond the port count");
      DREDBOX_INVARIANT(!allocated[port], "switch port " + std::to_string(port) +
                                              " is allocated to two circuits");
      allocated[port] = true;
      ++ports_owned;
      DREDBOX_INVARIANT(switch_.peer(port).has_value(),
                        "switch port " + std::to_string(port) + " owned by circuit " +
                            c.id.to_string() + " is not cross-connected");
    }
    for (const bool from_a : {true, false}) {
      const double received = budget(c, from_a).received_dbm();
      DREDBOX_INVARIANT(received >= floor_dbm,
                        "circuit " + c.id.to_string() + " is received at " +
                            std::to_string(received) + " dBm, below the FEC-correctable " +
                            std::to_string(floor_dbm) + " dBm floor");
    }
  }
  DREDBOX_INVARIANT(switch_.ports_in_use() >= ports_owned,
                    "switch reports fewer connected ports than circuits own");
}

}  // namespace dredbox::optics
