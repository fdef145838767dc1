// Differential test oracle for the calendar-queue event kernel.
//
// The production sim::EventQueue (calendar buckets + overflow ladder rung +
// arena-pooled nodes) and the retained binary-heap ReferenceEventQueue are
// driven through one seeded, randomized operation sequence — schedule
// (ties, boundary-straddling times, far-future rung times, Time::infinity
// epoch times, far timers pending beside near-term churn), cancel (live,
// fired, stale), reschedule-to-back-of-tie, dispatch_one, run_until,
// cascaded scheduling from inside actions, and re-arms (a fired action
// puts its own event back, which the reference heap models as a fresh
// event with the same tag) —
// and must agree, after every single operation, on the dispatch stream
// (tag, timestamp), now(), pending(), empty(), and next_time().
//
// Volume: 32 seeds x ~3,500 operations (> 1e5 ops total), each op derived
// from its own splitmix64 stream so a failure reproduces from the seed
// alone. The generator never consults queue internals to decide an op —
// both queues always receive byte-identical (time, tag) streams; calendar
// geometry only biases *which* adversarial time gets picked.

#include "reference_event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// base + delta clamped to the int64 range. Each bound is tested only on
/// the side `delta` can cross it, so the test itself cannot overflow.
std::int64_t saturating_add(std::int64_t base, std::int64_t delta) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  if (delta > 0 && base > kMax - delta) return kMax;
  if (delta < 0 && base < kMin - delta) return kMin;
  return base + delta;
}

/// Everything one queue records about its own run: the dispatch stream and
/// the live handles by logical tag (so the same logical event can be
/// cancelled in both queues even though their EventId encodings differ).
template <typename Queue, typename Id>
struct Driver {
  Queue queue;
  std::vector<std::pair<std::uint64_t, std::int64_t>> log;  // (tag, fire ticks)
  /// Every handle ever issued, by logical tag — never erased, so the
  /// harness can aim cancels at fired and already-cancelled events and
  /// assert both queues reject the stale handle.
  std::map<std::uint64_t, Id> issued;
  /// Tags still cancellable (erased on fire and on cancel attempt); used
  /// only to pick reschedule candidates.
  std::map<std::uint64_t, bool> live;
  /// Asked once per fired event without a child: when to re-arm it, or
  /// nullopt to let it go. Unset means never.
  std::function<std::optional<Time>(std::uint64_t tag)> rearm_at;
  /// Handles superseded by a re-arm (calendar only): each must cancel
  /// nothing, at any later point.
  std::vector<Id> superseded;

  void do_schedule(Time when, std::uint64_t tag) {
    // Fired events may deterministically spawn a child: tag-derived, so
    // both queues grow identical cascades without sharing any state.
    issued[tag] = queue.schedule(when, [this, tag] {
      log.emplace_back(tag, queue.now().ticks());
      live.erase(tag);
      if (tag % 7 == 3) {
        const std::uint64_t child = tag * 2 + 1'000'000'001ull;
        const std::int64_t delta = static_cast<std::int64_t>((tag % 5) * 250);
        do_schedule(Time::ps(saturating_add(queue.now().ticks(), delta)), child);
      } else if (rearm_at) {
        if (const std::optional<Time> when = rearm_at(tag)) rearm(*when, tag);
      }
    });
    live[tag] = true;
  }

  /// The calendar queue re-arms the firing node; the reference heap, which
  /// has no re-arm, schedules a fresh event with the same tag — the order
  /// rearm() promises to reproduce.
  void rearm(Time when, std::uint64_t tag) {
    if constexpr (std::is_same_v<Queue, EventQueue>) {
      const Id before = issued[tag];
      issued[tag] = queue.rearm(when);
      live[tag] = true;
      EXPECT_FALSE(queue.cancel(before)) << "the fired handle of tag " << tag;
      superseded.push_back(before);
    } else {
      do_schedule(when, tag);
    }
  }

  // Forwards the cancel to the queue whenever the tag was ever issued —
  // including tags that already fired or were cancelled, which must come
  // back false (stale-handle rejection is part of the contract under test).
  bool do_cancel(std::uint64_t tag) {
    auto it = issued.find(tag);
    if (it == issued.end()) return false;
    const bool ok = queue.cancel(it->second);
    live.erase(tag);
    return ok;
  }
};

using CalendarDriver = Driver<EventQueue, EventId>;
using ReferenceDriver = Driver<ReferenceEventQueue, ReferenceEventQueue::EventId>;

/// Operation-stream flavours. kTieHeavy re-aims 40% of schedules at the
/// last scheduled timestamp. kFarTimer keeps far-future timers (>= 1 s,
/// like a workload window end) pending beside the near-term churn, so
/// every window re-span must size its days from the near events and
/// leave the far ones on the overflow rung.
enum class Stream { kPlain, kTieHeavy, kFarTimer };

class DifferentialHarness {
 public:
  /// Share (percent) of the fired events without a child that re-arm
  /// themselves at an adversarial time.
  static constexpr std::uint64_t kRearmPercent = 30;

  explicit DifferentialHarness(std::uint64_t seed)
      : rng_{seed}, rearm_rng_{seed ^ 0x5bd1e995u} {
    // The calendar side decides at each fire and records the decision; the
    // reference side fires the same tags in the same order (each op runs
    // the calendar first) and replays it.
    calendar_.rearm_at = [this](std::uint64_t tag) {
      std::optional<Time> when;
      if (splitmix64(rearm_rng_) % 100 < kRearmPercent) {
        when = pick_time(stream_, rearm_rng_);
        ++rearms_;
      }
      rearm_plan_.emplace_back(tag, when);
      return when;
    };
    reference_.rearm_at = [this](std::uint64_t tag) -> std::optional<Time> {
      if (rearm_plan_.empty() || rearm_plan_.front().first != tag) {
        ADD_FAILURE() << "reference fired tag " << tag << " out of the calendar's order";
        return std::nullopt;
      }
      const std::optional<Time> when = rearm_plan_.front().second;
      rearm_plan_.pop_front();
      return when;
    };
  }

  void run_ops(std::size_t op_count, Stream stream) {
    stream_ = stream;
    if (stream == Stream::kFarTimer) {
      for (int i = 0; i < 3; ++i) schedule_both(far_time(rng_));
    }
    for (std::size_t op = 0; op < op_count; ++op) {
      step(stream);
      ASSERT_TRUE(compare()) << " after op " << op;
    }
    // Drain both to quiescence: the full dispatch streams must match.
    const std::size_t a = calendar_.queue.run();
    const std::size_t b = reference_.queue.run();
    EXPECT_EQ(a, b) << "final drain dispatched different counts";
    ASSERT_TRUE(compare()) << " after final drain";
    // The null handle and a handle with an impossible generation must both
    // bounce off the calendar queue (the reference has no equivalent ids).
    EXPECT_FALSE(calendar_.queue.cancel(EventId{0}));
    EXPECT_FALSE(calendar_.queue.cancel(EventId{999}));
    EXPECT_TRUE(calendar_.queue.empty());
    EXPECT_EQ(calendar_.log.size(), reference_.log.size());
    EXPECT_TRUE(rearm_plan_.empty()) << "the reference did not replay every fire";
    for (const EventId before : calendar_.superseded) {
      EXPECT_FALSE(calendar_.queue.cancel(before)) << "a pre-re-arm handle cancelled something";
    }
    calendar_.queue.check_invariants();
  }

  EventQueue& calendar_queue() { return calendar_.queue; }
  std::uint64_t rearms() const { return rearms_; }

 private:
  /// Picks an adversarial schedule time. Classes deliberately target the
  /// calendar geometry: exact ties, now() itself, both sides of a bucket
  /// boundary, just-inside / just-past the window (ladder spill), and the
  /// INT64_MAX epoch; the same literal time feeds both queues.
  Time pick_time(Stream stream, std::uint64_t& rng) {
    const auto stats = calendar_.queue.calendar_stats();
    const std::int64_t now = calendar_.queue.now().ticks();
    const std::uint64_t roll = splitmix64(rng) % 100;
    if (stream == Stream::kFarTimer && roll < 5) return far_time(rng);
    const bool tie_heavy = stream == Stream::kTieHeavy;
    if (tie_heavy && roll < 40 && !last_scheduled_.is_infinite() &&
        last_scheduled_ >= calendar_.queue.now()) {
      return last_scheduled_;  // exact tie with a still-pending timestamp
    }
    if (roll < 10) return Time::ps(now);  // tie with the firing instant
    if (roll < 25) {
      // Straddle a bucket boundary: one tick either side of the next
      // day's first tick. Once now() sits at Time::infinity() the boundary
      // saturates there too, and the tick before it is clamped to now().
      const std::int64_t boundary =
          saturating_add(now - ((now - stats.window_start_ps) % stats.bucket_width_ps),
                         stats.bucket_width_ps);
      return Time::ps(
          std::max(saturating_add(boundary, static_cast<std::int64_t>(roll % 3) - 1), now));
    }
    if (roll < 35) {
      // Ladder spill: just past the window end (overflow rung), and
      // occasionally far past it so the re-span must widen its days.
      const std::int64_t past =
          roll < 30 ? 1
                    : std::min(stats.bucket_width_ps, std::int64_t{1} << 40) * 100000;
      // now() can outrun the window when run_until() drains the queue and
      // jumps to a horizon beyond window_last; clamp so the pick stays legal.
      return Time::ps(std::max(saturating_add(stats.window_last_ps, past), now));
    }
    if (roll < 37) return Time::infinity();  // epoch-boundary: INT64_MAX
    // Plain near-future time inside (or shortly past) the current window.
    const std::int64_t delta =
        static_cast<std::int64_t>(splitmix64(rng) % 2'000'000);  // <= 2 us
    return Time::ps(saturating_add(now, delta));
  }

  /// 1-2 s past now(): far beyond any window the near-term churn spans.
  Time far_time(std::uint64_t& rng) {
    const std::int64_t offset =
        1'000'000'000'000 + static_cast<std::int64_t>(splitmix64(rng) % 1'000'000'000'000);
    return Time::ps(saturating_add(calendar_.queue.now().ticks(), offset));
  }

  void schedule_both(Time when) {
    const std::uint64_t tag = next_tag_++;
    calendar_.do_schedule(when, tag);
    reference_.do_schedule(when, tag);
    last_scheduled_ = when;
  }

  void step(Stream stream) {
    const std::uint64_t roll = splitmix64(rng_) % 100;
    if (roll < 45 || calendar_.queue.pending() == 0) {
      schedule_both(pick_time(stream, rng_));
      return;
    }
    if (roll < 60) {
      // Cancel: half the picks aim at live tags, the rest at fired or
      // never-issued tags (both queues must agree the handle is dead).
      const std::uint64_t tag = splitmix64(rng_) % next_tag_;
      EXPECT_EQ(calendar_.do_cancel(tag), reference_.do_cancel(tag)) << "cancel of tag " << tag;
      // A handle superseded by a re-arm stays dead while the re-armed
      // event is pending and after its slot is recycled.
      if (!calendar_.superseded.empty()) {
        const EventId before =
            calendar_.superseded[splitmix64(rng_) % calendar_.superseded.size()];
        EXPECT_FALSE(calendar_.queue.cancel(before)) << "a pre-re-arm handle cancelled something";
      }
      return;
    }
    if (roll < 70) {
      // Reschedule: cancel a live tag and re-issue it at a (possibly tied)
      // new time — the re-issue must join the back of any tie group.
      auto it = calendar_.live.lower_bound(splitmix64(rng_) % next_tag_);
      if (it == calendar_.live.end()) return;
      const std::uint64_t tag = it->first;
      const Time when = pick_time(stream, rng_);
      const bool a = calendar_.do_cancel(tag);
      const bool b = reference_.do_cancel(tag);
      EXPECT_EQ(a, b);
      if (a) {
        const std::uint64_t moved = tag + 2'000'000'000ull;
        calendar_.do_schedule(when, moved);
        reference_.do_schedule(when, moved);
        last_scheduled_ = when;
      }
      return;
    }
    // The calendar queue dispatches first in every op: the reference
    // replays the re-arm decisions its fires recorded.
    if (roll < 90) {
      const bool fired = calendar_.queue.dispatch_one();
      EXPECT_EQ(fired, reference_.queue.dispatch_one());
      return;
    }
    // run_until a shared horizon (sometimes zero-width, sometimes far).
    const std::int64_t horizon =
        saturating_add(calendar_.queue.now().ticks(),
                       static_cast<std::int64_t>(splitmix64(rng_) % 3'000'000));
    const std::size_t dispatched = calendar_.queue.run_until(Time::ps(horizon));
    EXPECT_EQ(dispatched, reference_.queue.run_until(Time::ps(horizon)));
  }

  testing::AssertionResult compare() {
    if (calendar_.queue.now() != reference_.queue.now()) {
      return testing::AssertionFailure()
             << "now() diverged: calendar=" << calendar_.queue.now().to_string()
             << " reference=" << reference_.queue.now().to_string();
    }
    if (calendar_.queue.pending() != reference_.queue.pending()) {
      return testing::AssertionFailure()
             << "pending() diverged: calendar=" << calendar_.queue.pending()
             << " reference=" << reference_.queue.pending();
    }
    if (calendar_.queue.empty() != reference_.queue.empty()) {
      return testing::AssertionFailure() << "empty() diverged";
    }
    if (calendar_.queue.next_time() != reference_.queue.next_time()) {
      return testing::AssertionFailure()
             << "next_time() diverged: calendar=" << calendar_.queue.next_time().to_string()
             << " reference=" << reference_.queue.next_time().to_string();
    }
    if (calendar_.log != reference_.log) {
      const std::size_t n = std::min(calendar_.log.size(), reference_.log.size());
      std::size_t i = 0;
      while (i < n && calendar_.log[i] == reference_.log[i]) ++i;
      auto failure = testing::AssertionFailure() << "dispatch streams diverged at index " << i;
      if (i < calendar_.log.size()) {
        failure << ": calendar fired tag " << calendar_.log[i].first << " at "
                << calendar_.log[i].second;
      }
      if (i < reference_.log.size()) {
        failure << ", reference fired tag " << reference_.log[i].first << " at "
                << reference_.log[i].second;
      }
      return failure;
    }
    return testing::AssertionSuccess();
  }

  CalendarDriver calendar_;
  ReferenceDriver reference_;
  std::uint64_t rng_;
  // The re-arm decisions draw from their own stream, so the op stream
  // does not shift with how many events fired.
  std::uint64_t rearm_rng_;
  Stream stream_ = Stream::kPlain;
  /// (tag, re-arm time) per calendar fire, awaiting the reference's replay.
  std::deque<std::pair<std::uint64_t, std::optional<Time>>> rearm_plan_;
  std::uint64_t rearms_ = 0;
  std::uint64_t next_tag_ = 1;
  Time last_scheduled_ = Time::infinity();
};

class EventQueueDifferentialTest : public testing::TestWithParam<std::uint64_t> {};

// 32 seeds x ~3,500 ops (plus the cascade children and the final drain)
// comfortably exceeds the 1e5-operation floor for the oracle.
TEST_P(EventQueueDifferentialTest, DispatchStreamMatchesReferenceHeap) {
  DifferentialHarness harness{GetParam() * 0x9e3779b97f4a7c15ull + 1};
  harness.run_ops(3500, Stream::kPlain);
  EXPECT_GT(harness.rearms(), 0u);
}

TEST_P(EventQueueDifferentialTest, TieHeavyStreamMatchesReferenceHeap) {
  DifferentialHarness harness{GetParam() * 0xbf58476d1ce4e5b9ull + 7};
  harness.run_ops(1500, Stream::kTieHeavy);
  EXPECT_GT(harness.rearms(), 0u);
}

// The batch-collection path (armed kIdentity perturbation) must be
// dispatch-stream-identical to the plain reference heap too: collecting a
// tie group into a batch and dispatching it FIFO is not allowed to change
// anything observable.
TEST_P(EventQueueDifferentialTest, IdentityPerturbationMatchesReferenceHeap) {
  DifferentialHarness harness{GetParam() * 0x94d049bb133111ebull + 13};
  SchedulePerturbation identity;
  identity.mode = SchedulePerturbation::Mode::kIdentity;
  harness.calendar_queue().set_perturbation(identity);
  harness.run_ops(1200, Stream::kTieHeavy);
  EXPECT_GT(harness.rearms(), 0u);
  EXPECT_GT(harness.calendar_queue().batches_collected(), 0u)
      << "tie-heavy stream collected no multi-event batches; the variant "
         "did not exercise the batch path";
}

// Far-future timers pending during near-term churn: the re-span rule
// sizes days from the near events and parks the far ones on the rung, so
// the stream crosses that rung boundary at nearly every re-span.
TEST_P(EventQueueDifferentialTest, FarTimerStreamMatchesReferenceHeap) {
  DifferentialHarness harness{GetParam() * 0xd1b54a32d192ed03ull + 29};
  harness.run_ops(2500, Stream::kFarTimer);
  EXPECT_GT(harness.rearms(), 0u);
  EXPECT_GT(harness.calendar_queue().calendar_stats().rebuilds, 0u)
      << "the far-timer stream never re-spanned the window";
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferentialTest,
                         testing::Range<std::uint64_t>(0, 32));

}  // namespace
}  // namespace dredbox::sim
