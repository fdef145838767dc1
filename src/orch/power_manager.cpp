#include "orch/power_manager.hpp"

#include <cmath>

#include "sim/contract.hpp"

namespace dredbox::orch {

PowerManager::PowerManager(hw::Rack& rack, sim::Telemetry& telemetry,
                           const PowerPolicyConfig& config)
    : rack_{rack},
      config_{config},
      telemetry_{telemetry},
      wake_ups_metric_{telemetry.metrics().counter("orch.power.wake_ups")},
      power_offs_metric_{telemetry.metrics().counter("orch.power.power_offs")},
      sweeps_metric_{telemetry.metrics().counter("orch.power.sweeps")},
      bricks_off_metric_{telemetry.metrics().gauge("orch.power.bricks_off")} {}

void PowerManager::note_activity(hw::BrickId brick, sim::Time now) {
  last_active_[brick] = now;
}

sim::Time PowerManager::ensure_powered(hw::BrickId brick, sim::Time now) {
  hw::Brick& b = rack_.brick(brick);
  note_activity(brick, now);
  if (b.power_state() != hw::PowerState::kOff) return sim::Time::zero();
  b.power_on();
  ++wake_ups_;
  wake_ups_metric_.add();
  bricks_off_metric_.set(static_cast<double>(powered_off_bricks()));
  if (telemetry_.tracing()) {
    telemetry_.tracer().record(now, sim::TraceCategory::kPower, "wake brick " + brick.to_string());
  }
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return config_.wake_latency;
}

bool PowerManager::eligible_for_poweroff(const hw::Brick& brick) const {
  if (brick.power_state() != hw::PowerState::kIdle) return false;
  if (config_.keep_compute_bricks_on && brick.kind() == hw::BrickKind::kCompute) return false;
  // A brick with connected ports still carries circuits; leave it on.
  for (const auto& port : brick.ports()) {
    if (port.connected) return false;
  }
  return true;
}

std::size_t PowerManager::tick(sim::Time now) {
  std::size_t swept = 0;
  for (hw::BrickId id : rack_.all_bricks()) {
    hw::Brick& b = rack_.brick(id);
    if (!eligible_for_poweroff(b)) continue;
    const auto it = last_active_.find(id);
    const sim::Time last = it == last_active_.end() ? sim::Time::zero() : it->second;
    if (now - last >= config_.idle_timeout) {
      b.power_off();
      ++power_offs_;
      ++swept;
    }
  }
  sweeps_metric_.add();
  power_offs_metric_.add(swept);
  bricks_off_metric_.set(static_cast<double>(powered_off_bricks()));
  if (swept > 0 && telemetry_.tracing()) {
    telemetry_.tracer().record(now, sim::TraceCategory::kPower,
                               "idle sweep powered off " + std::to_string(swept) + " brick(s)");
  }
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return swept;
}

std::size_t PowerManager::powered_off_bricks() const {
  std::size_t n = 0;
  for (hw::BrickId id : rack_.all_bricks()) {
    if (rack_.brick(id).power_state() == hw::PowerState::kOff) ++n;
  }
  return n;
}

void PowerManager::check_invariants() const {
  const double draw = rack_.power_draw_watts(hw::PowerModel{});
  DREDBOX_INVARIANT(std::isfinite(draw) && draw >= 0.0,
                    "rack power draw is " + std::to_string(draw) + " W");
  for (hw::BrickId id : rack_.all_bricks()) {
    const hw::Brick& b = rack_.brick(id);
    if (b.power_state() != hw::PowerState::kOff) continue;
    for (const auto& port : b.ports()) {
      DREDBOX_INVARIANT(!port.connected,
                        "powered-off brick " + id.to_string() +
                            " still has connected port " + port.id.to_string());
    }
  }
  DREDBOX_INVARIANT(powered_off_bricks() <= rack_.brick_count(),
                    "more powered-off bricks than bricks");
  // Order-independent audit of the activity table.
  // dredbox-lint: ignore[unordered-iteration]
  for (const auto& [id, last] : last_active_) {
    DREDBOX_INVARIANT(rack_.has_brick(id),
                      "activity record for unknown brick " + id.to_string());
    DREDBOX_INVARIANT(last >= sim::Time::zero() && !last.is_infinite(),
                      "activity record for brick " + id.to_string() + " at invalid time");
  }
}

}  // namespace dredbox::orch
