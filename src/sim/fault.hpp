#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {

/// Everything the rack can break while it keeps serving VMs (Sections II,
/// III and V: circuits are re-provisioned and remote-memory segments come
/// and go at runtime). The sim layer knows only the taxonomy; the
/// Datacenter facade maps each kind onto the owning subsystem.
enum class FaultKind : std::uint8_t {
  kLinkFlap,            // optical circuit drops; auto-repairs after `duration`
  kInsertionLossDrift,  // switch insertion loss drifts by `magnitude` dB
  kSwitchPortFailure,   // one beam-steering switch port dies (target = port)
  kCongestionBurst,     // packet-switch congestion: x`magnitude` queueing
  kLossBurst,           // packet loss burst: `magnitude` retransmissions/packet
  kBrickCrash,          // brick crashes (target = brick id); restarts after
                        // `duration` when non-zero
  kBrickRestart,        // crashed brick comes back (target = brick id)
  kRmstCorruption,      // RMST entry corruption (target = compute brick,
                        // aux = attachment ordinal)
  kControllerStall,     // SDM-C service stalls for `duration`
  kSpineLinkDown,       // rack `target` loses its spine uplink for
                        // `duration` (routed by core::Cluster)
};

std::string to_string(FaultKind kind);
std::optional<FaultKind> fault_kind_from_string(std::string_view name);

/// Environment variable examples and drivers read a fault plan from.
inline constexpr const char* kFaultPlanEnv = "DREDBOX_FAULT_PLAN";

/// One scheduled fault. `target`/`aux` are kind-specific ids (circuit,
/// switch port, brick, attachment ordinal); 0 conventionally means "let the
/// handler pick the first live victim at injection time", which keeps
/// hand-written and generated plans valid without knowing runtime ids.
struct FaultEvent {
  Time at;
  FaultKind kind = FaultKind::kLinkFlap;
  std::uint64_t target = 0;
  std::uint64_t aux = 0;
  double magnitude = 0.0;
  /// For flaps/bursts/stalls/crashes: how long until auto-recovery;
  /// Time::zero() means the fault persists until explicitly recovered.
  Time duration{};

  /// Round-trips through FaultPlan::parse().
  std::string to_string() const;
};

/// A deterministic, schedulable stream of fault events. Plans are plain
/// data: build one programmatically, parse one from the DREDBOX_FAULT_PLAN
/// environment variable, or draw one from a seeded Rng — the same seed and
/// config always yield the same plan.
class FaultPlan {
 public:
  FaultPlan& add(const FaultEvent& event);

  const std::vector<FaultEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }

  /// A copy with every event moved `offset` later. Plans are written in
  /// plan-relative time; shift one to land relative to "now" (e.g. the
  /// start of a measurement window) before scheduling it.
  FaultPlan shifted(Time offset) const;

  /// Latest end time of any event (at + duration); zero for an empty plan.
  /// Advance past this and every fault has fired and auto-recovered.
  Time horizon() const;

  /// Textual form: events joined by ';'. Round-trips through parse().
  std::string to_string() const;

  /// Parses the DREDBOX_FAULT_PLAN mini-language. One event is
  ///
  ///   <kind>@<time>[+<duration>][:key=value[,key=value...]]
  ///
  /// where <kind> is a to_string(FaultKind) name ("link-flap",
  /// "brick-crash", ...), <time>/<duration> are numbers with a unit suffix
  /// (ns/us/ms/s), and keys are target/aux/magnitude. Events are separated
  /// by ';'. Example:
  ///
  ///   link-flap@2ms+500us;brick-crash@5ms:target=3;congestion@1ms+2ms:magnitude=4
  ///
  /// Throws std::invalid_argument with the offending token on bad input.
  static FaultPlan parse(const std::string& spec);

  /// Knobs for the seeded plan generator.
  struct GeneratorConfig {
    std::size_t events = 8;
    Time horizon = Time::sec(1);       // faults land uniformly in [0, horizon)
    Time max_duration = Time::ms(50);  // flap/burst/stall lengths
    /// Relative weights per kind, indexed in FaultKind declaration order.
    /// Defaults favour the interconnect faults the paper's availability
    /// story hinges on; zero or omit a slot to exclude that kind.
    std::vector<double> weights = {4, 1, 2, 2, 2, 2, 0, 2, 1};
  };

  /// Draws a plan from a seeded stream: same rng state + config => same
  /// plan, so a whole faulty run stays digest-reproducible.
  static FaultPlan generate(Rng& rng, const GeneratorConfig& config);
  static FaultPlan generate(Rng& rng) { return generate(rng, GeneratorConfig{}); }

 private:
  std::vector<FaultEvent> events_;
};

/// Parses the plan in $DREDBOX_FAULT_PLAN; nullopt when the variable is
/// unset or empty. Throws std::invalid_argument on a malformed plan.
std::optional<FaultPlan> fault_plan_from_env();

/// Delivers a FaultPlan through the simulation's own event queue, so fault
/// arrival interleaves deterministically with the workload. Subsystem
/// adapters register one inject handler per kind (and optionally a recover
/// handler, fired `duration` after injection); events whose kind has no
/// handler are counted as skipped rather than lost silently.
class FaultInjector {
 public:
  using Handler = std::function<void(const FaultEvent&)>;

  /// Binds the injected/recovered/skipped counters and the active-fault
  /// gauge ("sim.faults.*").
  FaultInjector(Simulator& sim, Telemetry& telemetry);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Registers the injection action for one kind (last registration wins).
  void on(FaultKind kind, Handler inject);

  /// Registers the recovery action for one kind; fires `duration` after the
  /// injection for events with a non-zero duration.
  void on_recover(FaultKind kind, Handler recover);

  /// Schedules every event of the plan on the simulator's queue. Events in
  /// the past are clamped to now(). Returns the number scheduled. Run the
  /// simulator (or Datacenter::advance_to) to make the faults land.
  std::size_t schedule(const FaultPlan& plan);

  std::uint64_t scheduled() const { return scheduled_; }
  std::uint64_t injected() const { return injected_; }
  std::uint64_t recovered() const { return recovered_; }
  std::uint64_t skipped() const { return skipped_; }
  /// Injected faults whose recovery has not fired (yet or ever).
  std::uint64_t active() const { return injected_ - recovered_; }

  /// Deep consistency audit: the counters tally (every scheduled event is
  /// pending, injected or skipped; recoveries never exceed injections).
  /// Throws ContractViolation on the first broken invariant.
  void check_invariants() const;

 private:
  Simulator& sim_;
  std::map<FaultKind, Handler> inject_;
  std::map<FaultKind, Handler> recover_;
  /// Events handed to schedule(), kept so the scheduled actions capture
  /// [this, index] instead of a 48-byte FaultEvent copy (a whole-event
  /// capture plus `this` overflows the InplaceAction budget). Append-only
  /// for the injector's lifetime; fire paths copy the event out by value
  /// because a handler may reentrantly schedule() and grow the vector.
  std::vector<FaultEvent> events_;
  std::uint64_t scheduled_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t recovered_ = 0;
  std::uint64_t skipped_ = 0;

  metrics::Counter& injected_metric_;
  metrics::Counter& recovered_metric_;
  metrics::Counter& skipped_metric_;
  metrics::Gauge& active_metric_;

  void fire(std::size_t index);
  void fire_recovery(std::size_t index);
};

}  // namespace dredbox::sim
