#pragma once

#include <functional>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {

/// Top-level simulation context: an event queue plus the root random
/// source. Every stateful model in the repository takes a Simulator& and
/// schedules through it, so a whole-rack simulation shares one timeline.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_{seed} {}

  Time now() const { return queue_.now(); }

  /// `label` (a string literal, optional) names the event type in the
  /// kernel self-profile; see EventQueue::schedule.
  EventId at(Time when, EventQueue::Action&& action, const char* label = nullptr) {
    return queue_.schedule(when, std::move(action), label);
  }

  EventId after(Time delay, EventQueue::Action&& action, const char* label = nullptr) {
    return queue_.schedule(queue_.now() + delay, std::move(action), label);
  }

  /// Re-arms the event whose action is running; see EventQueue::rearm.
  EventId rearm(Time when, const char* label = nullptr) { return queue_.rearm(when, label); }

  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs to quiescence; returns events dispatched.
  std::size_t run() { return queue_.run(); }

  /// Runs until `until`; returns events dispatched.
  std::size_t run_until(Time until) { return queue_.run_until(until); }

  EventQueue& queue() { return queue_; }
  Rng& rng() { return rng_; }

  /// Derives an independent child RNG stream (for per-component noise that
  /// must not perturb other components' draws).
  Rng fork_rng() { return rng_.fork(); }

  void reset(std::uint64_t seed) {
    queue_.reset();
    rng_ = Rng{seed};
  }

 private:
  EventQueue queue_;
  Rng rng_;
};

}  // namespace dredbox::sim
