#pragma once

#include <cstdint>
#include <unordered_map>

#include "hw/rack.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"

namespace dredbox::orch {

/// Policy knobs for rack-level power management (project objective:
/// "fine-grained power management and aggressive power-aware resource
/// management/scheduling").
struct PowerPolicyConfig {
  /// A brick idle for this long gets powered off.
  sim::Time idle_timeout = sim::Time::sec(60);
  /// Cost of bringing a powered-off brick back: power sequencing, PL
  /// configuration and link training before the first transaction.
  sim::Time wake_latency = sim::Time::sec(2);
  /// Bricks that must never be powered off (e.g. the orchestrator's own).
  bool keep_compute_bricks_on = false;
};

/// Tracks per-brick activity and powers off unutilized units, the
/// mechanism behind the Fig. 12/13 energy savings. The SDM-C calls
/// ensure_powered() before handing a brick out (paying the wake latency)
/// and note_activity() whenever it touches one; tick() sweeps idle bricks.
class PowerManager {
 public:
  /// Binds the wake/power-off counters, the bricks-off gauge and a kPower
  /// trace event per sweep that turned anything off.
  PowerManager(hw::Rack& rack, sim::Telemetry& telemetry, const PowerPolicyConfig& config = {});

  const PowerPolicyConfig& config() const { return config_; }

  /// Marks a brick as busy at `now` (resets its idle clock).
  void note_activity(hw::BrickId brick, sim::Time now);

  /// Powers the brick on if it is off. Returns the wake latency the
  /// caller must absorb (zero when already powered).
  sim::Time ensure_powered(hw::BrickId brick, sim::Time now);

  /// Sweeps the rack: powers off bricks that have been idle (power state
  /// kIdle, no reservations) beyond the timeout. Returns how many were
  /// turned off in this sweep.
  std::size_t tick(sim::Time now);

  std::size_t power_offs() const { return power_offs_; }
  std::size_t wake_ups() const { return wake_ups_; }
  std::size_t powered_off_bricks() const;

  /// Deep consistency audit: the rack power budget stays non-negative and
  /// finite, every powered-off brick really is quiescent (no connected
  /// ports — powering off a brick that still carries circuits would sever
  /// live attachments), and every activity record points at a brick that
  /// exists. Throws ContractViolation on the first broken invariant. Wired
  /// into tick()/ensure_powered() when built with -DDREDBOX_AUDIT=ON;
  /// callable directly in any build.
  void check_invariants() const;

 private:
  hw::Rack& rack_;
  PowerPolicyConfig config_;
  std::unordered_map<hw::BrickId, sim::Time> last_active_;
  std::size_t power_offs_ = 0;
  std::size_t wake_ups_ = 0;

  sim::Telemetry& telemetry_;
  sim::metrics::Counter& wake_ups_metric_;
  sim::metrics::Counter& power_offs_metric_;
  sim::metrics::Counter& sweeps_metric_;
  sim::metrics::Gauge& bricks_off_metric_;

  bool eligible_for_poweroff(const hw::Brick& brick) const;
};

}  // namespace dredbox::orch
