#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "reference_event_queue.hpp"
#include "sim/contract.hpp"

namespace dredbox::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.next_time(), Time::infinity());
  EXPECT_FALSE(q.dispatch_one());
}

TEST(EventQueueTest, DispatchesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ns(30), [&] { order.push_back(3); });
  q.schedule(Time::ns(10), [&] { order.push_back(1); });
  q.schedule(Time::ns(20), [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::ns(5), [&, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, NowAdvancesWithDispatch) {
  EventQueue q;
  q.schedule(Time::ns(42), [] {});
  q.dispatch_one();
  EXPECT_EQ(q.now(), Time::ns(42));
}

TEST(EventQueueTest, RejectsSchedulingInThePast) {
  EventQueue q;
  q.schedule(Time::ns(100), [] {});
  q.dispatch_one();
  EXPECT_THROW(q.schedule(Time::ns(50), [] {}), std::invalid_argument);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(Time::ns(10), [&] {
    ++fired;
    q.schedule(Time::ns(20), [&] { ++fired; });
  });
  EXPECT_EQ(q.run(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), Time::ns(20));
}

TEST(EventQueueTest, CancelPreventsDispatch) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(Time::ns(10), [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  q.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.schedule(Time::ns(10), [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{999}));
  EXPECT_FALSE(q.cancel(EventId{0}));
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule(Time::ns(10), [&] { ++fired; });
  q.schedule(Time::ns(20), [&] { ++fired; });
  q.schedule(Time::ns(30), [&] { ++fired; });
  EXPECT_EQ(q.run_until(Time::ns(20)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), Time::ns(20));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesTimeWhenIdle) {
  EventQueue q;
  q.run_until(Time::ms(5));
  EXPECT_EQ(q.now(), Time::ms(5));
}

TEST(EventQueueTest, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(Time::ns(10), [] {});
  q.schedule(Time::ns(20), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), Time::ns(20));
}

TEST(EventQueueTest, ResetClearsEverything) {
  EventQueue q;
  q.schedule(Time::ns(10), [] {});
  q.schedule(Time::ns(20), [] {});
  q.dispatch_one();
  q.reset();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), Time::zero());
}

TEST(EventQueueProfilerTest, DisabledByDefault) {
  EventQueue q;
  q.schedule(Time::us(1), [] {}, "tick");
  q.run();
  EXPECT_TRUE(q.kernel_profile().empty());
}

TEST(EventQueueProfilerTest, AggregatesPerLabel) {
  EventQueue q;
  q.enable_profiling();
  q.schedule(Time::us(1), [] {}, "fabric.read");
  q.schedule(Time::us(2), [] {}, "fabric.read");
  q.schedule(Time::us(3), [] {}, "sampler.tick");
  q.schedule(Time::us(4), [] {});  // unlabeled
  q.run();

  const auto rows = q.kernel_profile();
  ASSERT_EQ(rows.size(), 3u);
  // Label-sorted for deterministic iteration; "(unlabeled)" sorts first.
  EXPECT_EQ(rows[0].label, "(unlabeled)");
  EXPECT_EQ(rows[1].label, "fabric.read");
  EXPECT_EQ(rows[1].dispatches, 2u);
  EXPECT_EQ(rows[2].label, "sampler.tick");
  EXPECT_EQ(rows[2].dispatches, 1u);
  for (const auto& row : rows) EXPECT_GE(row.host_ns, 0.0);

  const std::string table = q.profile_to_string();
  EXPECT_NE(table.find("fabric.read"), std::string::npos);
}

// Cells are keyed by label pointer; two distinct arrays holding the same
// text (as one literal can be in two translation units) are one row.
TEST(EventQueueProfilerTest, EqualTextAtDistinctPointersIsOneRow) {
  static const char kFirst[] = "workload.closed_issue";
  static const char kSecond[] = "workload.closed_issue";
  ASSERT_NE(static_cast<const void*>(kFirst), static_cast<const void*>(kSecond));
  EventQueue q;
  q.enable_profiling();
  q.schedule(Time::us(1), [] {}, kFirst);
  q.schedule(Time::us(2), [] {}, kSecond);
  q.schedule(Time::us(3), [] {}, kSecond);
  q.run();

  const auto rows = q.kernel_profile();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].label, "workload.closed_issue");
  EXPECT_EQ(rows[0].dispatches, 3u);
}

TEST(EventQueueProfilerTest, NsPerDispatchHandlesZero) {
  KernelProfileEntry row;
  EXPECT_EQ(row.ns_per_dispatch(), 0.0);
  row.dispatches = 4;
  row.host_ns = 1000.0;
  EXPECT_EQ(row.ns_per_dispatch(), 250.0);
}

// --- FIFO-within-timestamp contract regressions -------------------------
//
// The documented tie-break is scheduling order (FIFO). These tests pin the
// contract through every path that could plausibly disturb it —
// cancellation holes, cancel-and-reschedule, interleaved timestamps, and
// events scheduled from inside a tie — so the planned calendar-queue
// kernel rewrite (ROADMAP item 1) inherits an executable spec.

TEST(EventQueueFifoContractTest, SurvivesCancellationHoles) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(q.schedule(Time::ns(5), [&, i] { order.push_back(i); }));
  }
  // Punch holes at both ends and the middle; survivors keep FIFO order.
  q.cancel(ids[0]);
  q.cancel(ids[3]);
  q.cancel(ids[7]);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 6}));
}

TEST(EventQueueFifoContractTest, RescheduleMovesToBackOfTie) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ns(5), [&] { order.push_back(0); });
  const EventId id = q.schedule(Time::ns(5), [&] { order.push_back(1); });
  q.schedule(Time::ns(5), [&] { order.push_back(2); });
  // Cancel + re-schedule is the idiomatic "reschedule"; the new event is a
  // fresh scheduling and therefore joins the *back* of the tie.
  ASSERT_TRUE(q.cancel(id));
  q.schedule(Time::ns(5), [&] { order.push_back(1); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(EventQueueFifoContractTest, InterleavedTimestampsKeepPerTimeFifo) {
  EventQueue q;
  std::vector<std::pair<int, int>> order;  // (time-ns, sequence-within-time)
  // Schedule ties for t=20 and t=10 interleaved; FIFO must hold per
  // timestamp even though scheduling alternated between the two.
  q.schedule(Time::ns(20), [&] { order.push_back({20, 0}); });
  q.schedule(Time::ns(10), [&] { order.push_back({10, 0}); });
  q.schedule(Time::ns(20), [&] { order.push_back({20, 1}); });
  q.schedule(Time::ns(10), [&] { order.push_back({10, 1}); });
  q.schedule(Time::ns(20), [&] { order.push_back({20, 2}); });
  q.run();
  const std::vector<std::pair<int, int>> expected{{10, 0}, {10, 1}, {20, 0}, {20, 1}, {20, 2}};
  EXPECT_EQ(order, expected);
}

TEST(EventQueueFifoContractTest, EventsScheduledInsideTieJoinItsBack) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::ns(5), [&] {
    order.push_back(0);
    // Scheduled mid-tie at the same timestamp: fires after every event
    // that was already waiting at t=5.
    q.schedule(Time::ns(5), [&] { order.push_back(9); });
  });
  q.schedule(Time::ns(5), [&] { order.push_back(1); });
  q.schedule(Time::ns(5), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
}

TEST(EventQueueFifoContractTest, EarlierTieMemberCanCancelLater) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 4; ++i) {
    ids.push_back(q.schedule(Time::ns(5), [&, i] { order.push_back(i); }));
  }
  q.schedule(Time::ns(4), [&] { EXPECT_TRUE(q.cancel(ids[2])); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
}

// --- Calendar-geometry FIFO regressions ---------------------------------
//
// The calendar kernel partitions sim time into power-of-two "days"
// (buckets) and parks far-future events on an overflow ladder rung that is
// re-spanned into a fresh window once the current one drains. These tests
// aim tie groups directly at those seams — the places where a bucketed
// structure could plausibly lose the (when, seq) contract even though the
// plain in-bucket paths keep it.

TEST(EventQueueFifoContractTest, TiesStraddlingBucketBoundariesStayOrdered) {
  EventQueue q;
  const auto stats = q.calendar_stats();
  ASSERT_GT(stats.bucket_width_ps, 0);
  std::vector<std::pair<std::int64_t, int>> order;  // (fire ticks, seq-within-time)
  // Tie groups one tick before, exactly on, and one tick after a day
  // boundary, with the schedules of all three groups interleaved so the
  // kernel cannot rely on insertion locality.
  const std::int64_t boundary = 3 * stats.bucket_width_ps;
  const std::int64_t times[] = {boundary - 1, boundary, boundary + 1};
  for (int seq = 0; seq < 4; ++seq) {
    for (const std::int64_t t : times) {
      q.schedule(Time::ps(t), [&, t, seq] { order.push_back({t, seq}); });
    }
  }
  EXPECT_EQ(q.run(), 12u);
  std::vector<std::pair<std::int64_t, int>> expected;
  for (const std::int64_t t : times) {
    for (int seq = 0; seq < 4; ++seq) expected.push_back({t, seq});
  }
  EXPECT_EQ(order, expected);
  q.check_invariants();
}

TEST(EventQueueFifoContractTest, TiesSurviveLadderSpillAndRefill) {
  EventQueue q;
  const auto stats = q.calendar_stats();
  // Past the window end: these land on the overflow rung, in scheduling
  // order 0..7, and are only bucketed when the re-span (rebuild) runs.
  const Time far = Time::ps(stats.window_last_ps + 5 * stats.bucket_width_ps);
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    q.schedule(far, [&, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.calendar_stats().in_overflow, 8u);
  // An in-window event first, so the spill is refilled mid-run rather than
  // from a pristine queue.
  q.schedule(Time::ns(1), [&] { order.push_back(-1); });
  EXPECT_EQ(q.run(), 9u);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_GE(q.calendar_stats().rebuilds, 1u);
  q.check_invariants();
}

TEST(EventQueueFifoContractTest, CancelsAcrossLadderSpillRespected) {
  EventQueue q;
  const auto stats = q.calendar_stats();
  const Time far = Time::ps(stats.window_last_ps + 7 * stats.bucket_width_ps);
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(q.schedule(far, [&, i] { order.push_back(i); }));
  }
  // Cancel overflow-resident events before AND after the rebuild: punch a
  // hole while they sit on the rung, then another from an event that fires
  // first (by which time the survivors have been re-bucketed).
  ASSERT_TRUE(q.cancel(ids[1]));
  q.schedule(Time::ns(1), [&] { EXPECT_TRUE(q.cancel(ids[4])); });
  EXPECT_EQ(q.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 5}));
  q.check_invariants();
}

TEST(EventQueueFifoContractTest, TieGroupSpanningWindowAndLadderReunites) {
  EventQueue q;
  const auto stats = q.calendar_stats();
  // Same timestamp, scheduled in two phases: the first half while the time
  // is past the window (ladder), the second half after a rebuild has pulled
  // the window forward so the same time is now in-bucket. FIFO must hold
  // across the two residencies.
  const std::int64_t t = stats.window_last_ps + 2 * stats.bucket_width_ps;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    q.schedule(Time::ps(t), [&, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.calendar_stats().in_overflow, 3u);
  // Advancing past an empty stretch forces nothing; the rebuild happens
  // when the far events become next. Schedule a nearer event whose action
  // appends the second half of the tie group.
  q.schedule(Time::ns(1), [&] {
    for (int i = 3; i < 6; ++i) {
      q.schedule(Time::ps(t), [&, i] { order.push_back(i); });
    }
  });
  EXPECT_EQ(q.run(), 7u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
  q.check_invariants();
}

TEST(EventQueueCalendarTest, StatsReflectGeometryAndActivity) {
  EventQueue q;
  const auto fresh = q.calendar_stats();
  EXPECT_EQ(fresh.window_start_ps, 0);
  EXPECT_GT(fresh.buckets, 0u);
  EXPECT_EQ(fresh.window_last_ps,
            static_cast<std::int64_t>(fresh.buckets) * fresh.bucket_width_ps - 1);
  EXPECT_EQ(fresh.in_overflow, 0u);
  EXPECT_EQ(fresh.rebuilds, 0u);
  q.schedule(Time::ps(fresh.window_last_ps), [] {});  // last in-window tick
  q.schedule(Time::ps(fresh.window_last_ps) + Time::ps(1), [] {});  // first ladder tick
  const auto loaded = q.calendar_stats();
  EXPECT_EQ(loaded.in_overflow, 1u);
  q.run();
  const auto drained = q.calendar_stats();
  EXPECT_GE(drained.rebuilds, 1u);
  EXPECT_GE(drained.bucket_loads, 1u);
  q.reset();
  const auto reset_stats = q.calendar_stats();
  EXPECT_EQ(reset_stats.window_start_ps, 0);
  EXPECT_EQ(reset_stats.in_overflow, 0u);
  EXPECT_EQ(reset_stats.rebuilds, 0u);
}

/// Far-future timers (workload window ends, power sweeps) pending beside
/// steady near-term churn: `far_timers` timers from 1 s on, and 64
/// self-rescheduling chains, each next hop 100 ns - 2 us ahead, for 4 ms
/// of sim time. Fires every event through `queue` and logs (chain or
/// -1 - timer, fire ticks); `on_dispatch` sees the queue after every
/// dispatch.
template <typename Queue, typename Probe>
std::vector<std::pair<int, std::int64_t>> far_timer_churn(Queue& queue, int far_timers,
                                                          Probe on_dispatch) {
  std::vector<std::pair<int, std::int64_t>> log;
  std::uint64_t state = 0x5eed;
  const auto hop = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return Time::ns(100 + static_cast<std::int64_t>((state >> 33) % 1900));
  };
  for (int timer = 0; timer < far_timers; ++timer) {
    queue.schedule(Time::sec(1) + Time::us(timer), [&log, &queue, timer] {
      log.emplace_back(-1 - timer, queue.now().ticks());
    });
  }
  std::function<void(int)> step = [&](int chain) {
    log.emplace_back(chain, queue.now().ticks());
    const Time next = queue.now() + hop();
    if (next < Time::ms(4)) queue.schedule(next, [&step, chain] { step(chain); });
  };
  for (int chain = 0; chain < 64; ++chain) {
    queue.schedule(hop(), [&step, chain] { step(chain); });
  }
  while (queue.dispatch_one()) on_dispatch(queue);
  return log;
}

TEST(EventQueueCalendarTest, FarTimersDoNotStretchTheDays) {
  // Sizing re-spanned days to reach the far timers would put every churn
  // event into one sorted day (in_drain ~ 64); sizing them from the
  // spacing of the near events keeps a day at a few events, with the far
  // timers parked on the overflow rung until their own re-span. With 256
  // far timers the median pending event is itself a far timer, so the
  // spacing must come from a rank inside the near cluster.
  for (const int far_timers : {1, 256}) {
    SCOPED_TRACE(far_timers);
    EventQueue calendar;
    std::size_t max_drain = 0;  // while churning, after the first re-span
    std::size_t probes = 0;
    const auto calendar_log = far_timer_churn(calendar, far_timers, [&](const EventQueue& q) {
      const CalendarStats stats = q.calendar_stats();
      if (stats.rebuilds == 0 || q.now() >= Time::ms(4)) return;
      max_drain = std::max(max_drain, stats.in_drain);
      ++probes;
    });
    ReferenceEventQueue reference;
    const auto reference_log =
        far_timer_churn(reference, far_timers, [](const ReferenceEventQueue&) {});
    EXPECT_EQ(calendar_log, reference_log);
    ASSERT_GT(calendar_log.size(), 100000u);
    EXPECT_EQ(calendar_log.back().first, -far_timers);
    EXPECT_GT(probes, 100000u) << "the churn never re-spanned the window";
    EXPECT_LE(max_drain, 16u);
    calendar.check_invariants();
  }
}

TEST(EventQueueCalendarTest, ClosedLoopThinkTimesLandInTheYear) {
  // rack-read's shape: 256 closed-loop chains, each issuing its next op an
  // exp(50 us) think time after the last. Days sized for one per live
  // event are ~2^18 ps wide, so a year of 256 of them spans ~67 us and most
  // think times overshoot it: those events parked on the rung and were
  // re-filed at the next re-span: 286 re-spans over 20 ms (139 with a
  // year of twice as many days). A year of four times as many days of the
  // same width files most of them straight into their day, in 73
  // re-spans, and a day still holds a handful of events.
  EventQueue q;
  std::uint64_t state = 0x5eed;
  const auto think = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const double u = static_cast<double>(state >> 11) * 0x1.0p-53;  // [0, 1)
    return Time::us(-50.0 * std::log1p(-u));
  };
  std::uint64_t fired = 0;
  std::function<void()> step = [&] {
    ++fired;
    const Time next = q.now() + think();
    if (next < Time::ms(20)) q.schedule(next, [&step] { step(); });
  };
  for (int chain = 0; chain < 256; ++chain) q.schedule(think(), [&step] { step(); });
  std::size_t max_drain = 0;  // after the first re-span
  while (q.dispatch_one()) {
    const CalendarStats stats = q.calendar_stats();
    if (stats.rebuilds > 0) max_drain = std::max(max_drain, stats.in_drain);
  }
  EXPECT_GT(fired, 100000u);
  EXPECT_LE(q.calendar_stats().rebuilds, 100u);
  EXPECT_LE(max_drain, 16u);
  q.check_invariants();
}

TEST(EventQueueCalendarTest, HugeFarRungStillLandsInTheYear) {
  // 140,000 events 1 ps apart, 1 s out: over four times as many rung nodes
  // as the bucket clamp allows days. Their spacing (distance / rank at the
  // median, ~14 us, rounded to 2^24 ps) times 32768 days gives a year of
  // ~0.55 s that ends before the first of them. The re-span must widen the
  // days until the node that set the spacing fits, or no node would ever
  // reach a bucket.
#if DREDBOX_AUDIT_ENABLED
  GTEST_SKIP() << "audit builds sweep every node on every schedule: quadratic at this size";
#endif
  EventQueue q;
  constexpr std::int64_t kEvents = 140000;
  std::int64_t fired = 0;
  bool ordered = true;
  for (std::int64_t i = 0; i < kEvents; ++i) {
    q.schedule(Time::sec(1) + Time::ps(i), [&, i] {
      ordered = ordered && fired == i;
      ++fired;
    });
  }
  EXPECT_EQ(q.run(), static_cast<std::size_t>(kEvents));
  EXPECT_EQ(fired, kEvents);
  EXPECT_TRUE(ordered);
  EXPECT_GE(q.calendar_stats().rebuilds, 1u);
  q.check_invariants();
}

TEST(EventQueueTest, ManyEventsStressOrder) {
  EventQueue q;
  Time last = Time::zero();
  bool monotone = true;
  for (int i = 0; i < 1000; ++i) {
    // Pseudo-scattered times, deterministic.
    const Time when = Time::ns((i * 7919) % 4096);
    q.schedule(when, [&, when] {
      if (q.now() < last) monotone = false;
      last = q.now();
    });
  }
  EXPECT_EQ(q.run(), 1000u);
  EXPECT_TRUE(monotone);
}

// --- event lifetime: in-place dispatch and re-arm ----------------------
//
// A fired node runs its action in place and is freed when the action
// returns, unless the action re-armed it. These pin the contract's edges:
// where rearm() is legal, that it orders exactly like a fresh schedule,
// that the fired handle is stale, and that a throwing action leaks no node.

TEST(EventQueueRearmTest, RearmOutsideDispatchThrows) {
  EventQueue q;
  EXPECT_THROW(q.rearm(Time::ns(5)), std::logic_error);
  q.schedule(Time::ns(1), [] {});
  q.run();
  EXPECT_THROW(q.rearm(Time::ns(5)), std::logic_error) << "after dispatch, too";
  EXPECT_TRUE(q.empty());
  q.check_invariants();
}

TEST(EventQueueRearmTest, SecondRearmInOneActionThrows) {
  EventQueue q;
  bool second_refused = false;
  int fired = 0;
  q.schedule(Time::ns(1), [&] {
    if (++fired > 1) return;
    q.rearm(Time::ns(2));
    try {
      q.rearm(Time::ns(3));
    } catch (const std::logic_error&) {
      second_refused = true;
    }
  });
  EXPECT_EQ(q.run(), 2u);
  EXPECT_TRUE(second_refused);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), Time::ns(2));
  q.check_invariants();
}

TEST(EventQueueRearmTest, RearmIntoThePastThrows) {
  EventQueue q;
  bool refused = false;
  q.schedule(Time::ns(10), [&] {
    try {
      q.rearm(Time::ns(9));
    } catch (const std::invalid_argument&) {
      refused = true;
    }
  });
  q.run();
  EXPECT_TRUE(refused);
  EXPECT_TRUE(q.empty());
  q.check_invariants();
}

TEST(EventQueueRearmTest, RearmOrdersLikeAFreshSchedule) {
  // Two identical scenarios, one re-arming and one scheduling afresh at
  // the same program point: the dispatch streams must be equal, ties with
  // events scheduled before and after the re-arm included.
  const auto scenario = [](bool rearm) {
    EventQueue q;
    std::vector<std::pair<int, std::int64_t>> log;
    int steps = 0;
    std::function<void()> chain = [&] {
      const Time next = q.now() + Time::ns(3);
      log.emplace_back(0, q.now().ticks());
      q.schedule(next, [&] { log.emplace_back(1, q.now().ticks()); });
      if (++steps < 5) {
        if (rearm) {
          q.rearm(next);
        } else {
          q.schedule(next, [&] { chain(); });
        }
      }
      q.schedule(next, [&] { log.emplace_back(2, q.now().ticks()); });
    };
    q.schedule(Time::ns(1), [&] { chain(); });
    q.run();
    return log;
  };
  const auto fresh = scenario(false);
  EXPECT_EQ(fresh.size(), 15u);
  EXPECT_EQ(scenario(true), fresh);
}

TEST(EventQueueRearmTest, FiredHandleCancelsNothingAndTheNewOneCancels) {
  EventQueue q;
  int fired = 0;
  EventId original;
  EventId rearmed;
  bool stale_cancel = true;
  original = q.schedule(Time::ns(1), [&] {
    ++fired;
    stale_cancel = q.cancel(original);  // the running event's own handle
    rearmed = q.rearm(Time::ns(5));
  });
  EXPECT_EQ(q.dispatch_one(), true);
  EXPECT_FALSE(stale_cancel) << "a fired event's handle must be stale inside its action";
  EXPECT_NE(rearmed, original);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_FALSE(q.cancel(original)) << "a handle from before the re-arm cancels nothing";
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.cancel(rearmed));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.run(), 0u);
  EXPECT_EQ(fired, 1);
  q.check_invariants();
}

TEST(EventQueueRearmTest, CancelledRearmOutlivesItsReclaimUntilTheActionReturns) {
  // An action that re-arms, cancels the re-arm and then makes the queue
  // reclaim it (next_time() services the open day) still runs in that
  // node: its captures must stay alive until it returns. Under ASan a
  // node freed mid-action is a use-after-free on the captured string.
  for (const bool perturbed : {false, true}) {
    EventQueue q;
    if (perturbed) {
      SchedulePerturbation identity;
      identity.mode = SchedulePerturbation::Mode::kIdentity;
      q.set_perturbation(identity);
    }
    struct Seen {
      EventQueue* q;
      int fires = 0;
      bool cancelled = false;
      Time next = Time::zero();
      std::string text{};
      bool second_rearm_refused = false;
    } seen{&q};
    q.schedule(Time::ns(1), [&seen, text = std::string(64, 'x')] {
      ++seen.fires;
      seen.cancelled = seen.q->cancel(seen.q->rearm(seen.q->now()));
      seen.next = seen.q->next_time();
      seen.text = text;
      try {
        seen.q->rearm(seen.q->now());
      } catch (const std::logic_error&) {
        seen.second_rearm_refused = true;
      }
    });
    EXPECT_EQ(q.run(), 1u) << "perturbed=" << perturbed;
    EXPECT_EQ(seen.fires, 1);
    EXPECT_TRUE(seen.cancelled);
    EXPECT_EQ(seen.next, Time::infinity());
    EXPECT_EQ(seen.text, std::string(64, 'x'));
    EXPECT_TRUE(seen.second_rearm_refused);
    EXPECT_TRUE(q.empty());
    q.check_invariants();
    q.schedule(Time::ns(2), [] {});
    EXPECT_EQ(q.run(), 1u);
    q.check_invariants();
  }
}

TEST(EventQueueRearmTest, RearmCarriesTheNewLabelIntoTheProfile) {
  EventQueue q;
  q.enable_profiling();
  int fired = 0;
  q.schedule(Time::ns(1), [&] {
    if (++fired < 4) q.rearm(q.now() + Time::ns(1), "step");
  }, "retry");
  EXPECT_EQ(q.run(), 4u);
  const auto rows = q.kernel_profile();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].label, "retry");
  EXPECT_EQ(rows[0].dispatches, 1u);
  EXPECT_EQ(rows[1].label, "step");
  EXPECT_EQ(rows[1].dispatches, 3u);
}

TEST(EventQueueRearmTest, ResetInsideAnActionThrowsAndTheQueueStaysUsable) {
  EventQueue q;
  bool refused = false;
  q.schedule(Time::ns(1), [&] {
    try {
      q.reset();
    } catch (const std::logic_error&) {
      refused = true;
    }
  });
  int later = 0;
  q.schedule(Time::ns(2), [&] { ++later; });
  EXPECT_EQ(q.run(), 2u);
  EXPECT_TRUE(refused);
  EXPECT_EQ(later, 1);
  q.check_invariants();
  q.schedule(Time::ns(3), [&] { ++later; });
  EXPECT_EQ(q.run(), 1u);
  EXPECT_EQ(later, 2);
  q.reset();  // between dispatches it still works
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), Time::zero());
}

TEST(EventQueueRearmTest, DispatchInsideAnActionThrows) {
  EventQueue q;
  int refusals = 0;
  q.schedule(Time::ns(1), [&] {
    for (const auto& nested : std::vector<std::function<void()>>{
             [&] { q.dispatch_one(); }, [&] { q.run(); }, [&] { q.run_until(Time::ns(9)); }}) {
      try {
        nested();
      } catch (const std::logic_error&) {
        ++refusals;
      }
    }
  });
  q.schedule(Time::ns(2), [] {});
  EXPECT_EQ(q.run(), 2u);
  EXPECT_EQ(refusals, 3);
  q.check_invariants();
}

TEST(EventQueueRearmTest, ThrowingActionLeavesNoNodeBehind) {
  // check_invariants() requires the arena's live count to equal the
  // reachable nodes: pending() here, with nothing cancelled.
  EventQueue q;
  q.schedule(Time::ns(1), [] { throw std::runtime_error("plain"); });
  q.schedule(Time::ns(2), [&] {
    q.schedule(Time::ns(7), [] {});
    throw std::runtime_error("after a schedule");
  });
  bool rearmed = false;
  q.schedule(Time::ns(3), [&] {
    if (!rearmed) {
      rearmed = true;
      q.rearm(Time::ns(6));
    }
    throw std::runtime_error("after a re-arm");
  });
  q.schedule(Time::ns(4), [] {});
  for (int i = 0; i < 3; ++i) {
    EXPECT_THROW(q.dispatch_one(), std::runtime_error);
    q.check_invariants();
  }
  // Left: the 4 ns event, the event scheduled at 7 ns and the re-armed one
  // at 6 ns — which throws again when it fires.
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_TRUE(q.dispatch_one());
  EXPECT_THROW(q.dispatch_one(), std::runtime_error);
  q.check_invariants();
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_EQ(q.run(), 1u);
  EXPECT_TRUE(q.empty());
  q.check_invariants();
}

TEST(EventQueueRearmTest, RearmAtNowJoinsTheBackOfAPerturbedTie) {
  // A re-armed chain through a tie batch: the perturbation permutes the
  // batch as it opens, and a re-arm at now() joins the back of the tie,
  // after the whole batch, however that batch was permuted.
  const struct {
    SchedulePerturbation::Mode mode;
    std::vector<int> order;
  } cases[] = {
      {SchedulePerturbation::Mode::kIdentity, {0, 1, 0, 0}},
      {SchedulePerturbation::Mode::kReverse, {1, 0, 0, 0}},
  };
  for (const auto& c : cases) {
    EventQueue q;
    SchedulePerturbation perturbation;
    perturbation.mode = c.mode;
    q.set_perturbation(perturbation);
    std::vector<int> order;
    int hops = 0;
    q.schedule(Time::ns(5), [&] {
      order.push_back(0);
      if (++hops < 3) q.rearm(q.now());
    });
    q.schedule(Time::ns(5), [&] { order.push_back(1); });
    EXPECT_EQ(q.run(), 4u) << perturbation.to_string();
    EXPECT_EQ(order, c.order) << perturbation.to_string();
    q.check_invariants();
  }
}

}  // namespace
}  // namespace dredbox::sim
