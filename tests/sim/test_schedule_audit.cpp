#include "sim/schedule_audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/contract.hpp"
#include "sim/digest.hpp"
#include "sim/event_queue.hpp"

namespace dredbox::sim {
namespace {

// --- SchedulePerturbation semantics on the queue itself ------------------

/// Schedules `count` tied events at `when` that append their index to
/// `order`, labelled "e0", "e1", ...
std::vector<EventId> schedule_tie(EventQueue& q, Time when, int count, std::vector<int>& order) {
  static const char* kLabels[] = {"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"};
  std::vector<EventId> ids;
  for (int i = 0; i < count; ++i) {
    ids.push_back(q.schedule(when, [&order, i] { order.push_back(i); }, kLabels[i]));
  }
  return ids;
}

TEST(SchedulePerturbationTest, IdentityMatchesPlainFifo) {
  std::vector<int> plain;
  {
    EventQueue q;
    schedule_tie(q, Time::ns(10), 4, plain);
    q.run();
  }
  std::vector<int> batched;
  {
    EventQueue q;
    SchedulePerturbation p;
    p.mode = SchedulePerturbation::Mode::kIdentity;
    q.set_perturbation(p);
    schedule_tie(q, Time::ns(10), 4, batched);
    EXPECT_EQ(q.run(), 4u);
    EXPECT_EQ(q.batches_collected(), 1u);
  }
  EXPECT_EQ(batched, plain);
  EXPECT_EQ(plain, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulePerturbationTest, ReverseReversesEachBatch) {
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kReverse;
  q.set_perturbation(p);
  std::vector<int> order;
  schedule_tie(q, Time::ns(10), 3, order);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(SchedulePerturbationTest, RotateRotatesLeftByOne) {
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kRotate;
  q.set_perturbation(p);
  std::vector<int> order;
  schedule_tie(q, Time::ns(10), 4, order);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 0}));
}

TEST(SchedulePerturbationTest, ShuffleIsSeedDeterministicAndPreservesEvents) {
  auto run_shuffled = [](std::uint64_t seed) {
    EventQueue q;
    SchedulePerturbation p;
    p.mode = SchedulePerturbation::Mode::kShuffle;
    p.seed = seed;
    q.set_perturbation(p);
    std::vector<int> order;
    schedule_tie(q, Time::ns(10), 8, order);
    q.run();
    return order;
  };
  const auto a = run_shuffled(7);
  const auto b = run_shuffled(7);
  EXPECT_EQ(a, b);  // same seed, same permutation

  auto sorted = a;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));  // a permutation

  // Some seed must produce a non-FIFO order (8! orders, many seeds).
  bool any_differs = false;
  for (std::uint64_t seed = 1; seed <= 8 && !any_differs; ++seed) {
    any_differs = run_shuffled(seed) != std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7};
  }
  EXPECT_TRUE(any_differs);
}

TEST(SchedulePerturbationTest, WindowRestrictsWhichBatchesPermute) {
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kReverse;
  p.first_batch = 1;  // batch 0 stays FIFO, batch 1 reverses
  p.last_batch = 2;
  q.set_perturbation(p);
  std::vector<int> first, second;
  schedule_tie(q, Time::ns(10), 3, first);
  schedule_tie(q, Time::ns(20), 3, second);
  q.run();
  EXPECT_EQ(first, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(second, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(q.batches_collected(), 2u);  // windowed-out batches still count
}

TEST(SchedulePerturbationTest, SwapAdjacentSwapsExactlyOnePair) {
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kSwapAdjacent;
  p.swap_position = 1;
  q.set_perturbation(p);
  std::vector<int> order;
  schedule_tie(q, Time::ns(10), 4, order);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1, 3}));
}

TEST(SchedulePerturbationTest, SwapAdjacentOutOfRangeLeavesFifo) {
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kSwapAdjacent;
  p.swap_position = 3;  // would swap positions 3 and 4 of a 4-event batch
  q.set_perturbation(p);
  std::vector<int> order;
  schedule_tie(q, Time::ns(10), 4, order);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulePerturbationTest, CaptureRecordsBatchComposition) {
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kReverse;
  p.capture_batch = 1;
  q.set_perturbation(p);
  std::vector<int> order;
  schedule_tie(q, Time::ns(10), 2, order);
  schedule_tie(q, Time::ns(20), 3, order);
  q.run();

  ASSERT_TRUE(q.captured_batch().has_value());
  const ScheduleBatchRecord& record = *q.captured_batch();
  EXPECT_EQ(record.index, 1u);
  EXPECT_EQ(record.when, Time::ns(20));
  EXPECT_EQ(record.fifo_labels, (std::vector<std::string>{"e0", "e1", "e2"}));
  EXPECT_EQ(record.dispatch_order, (std::vector<std::size_t>{2, 1, 0}));
}

TEST(SchedulePerturbationTest, SingletonBatchesDoNotCount) {
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kIdentity;
  q.set_perturbation(p);
  std::vector<int> order;
  q.schedule(Time::ns(10), [&] { order.push_back(0); });   // singleton
  schedule_tie(q, Time::ns(20), 2, order);                 // real batch
  q.schedule(Time::ns(30), [&] { order.push_back(9); });   // singleton
  q.run();
  EXPECT_EQ(q.batches_collected(), 1u);
}

TEST(SchedulePerturbationTest, CancellationInsideBatchIsHonoured) {
  // An earlier event cancelling a later same-timestamp event must keep
  // working under identity batching: cancellation is checked at fire time.
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kIdentity;
  q.set_perturbation(p);
  std::vector<int> order;
  std::vector<EventId> ids = schedule_tie(q, Time::ns(10), 4, order);
  q.schedule(Time::ns(9), [&] { EXPECT_TRUE(q.cancel(ids[2])); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 3}));
  q.check_invariants();
}

TEST(SchedulePerturbationTest, CancellationInsideReversedBatchIsHonoured) {
  // Reversal moves nodes between drain slots. A cancel made before the
  // batch opens and one made by an earlier member of the reversed batch
  // must both still land on their events.
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kReverse;
  q.set_perturbation(p);
  std::vector<int> order;
  std::vector<EventId> ids = schedule_tie(q, Time::ns(10), 4, order);
  q.schedule(Time::ns(10), [&] {
    order.push_back(4);
    EXPECT_TRUE(q.cancel(ids[2]));
  }, "e4");
  q.schedule(Time::ns(9), [&] { EXPECT_TRUE(q.cancel(ids[1])); });
  q.run();
  // Live batch {0, 2, 3, 4} reversed; 4 fires first and cancels 2.
  EXPECT_EQ(order, (std::vector<int>{4, 3, 0}));
  EXPECT_EQ(q.batches_collected(), 1u);
  EXPECT_TRUE(q.empty());
  q.check_invariants();
}

TEST(SchedulePerturbationTest, ThrowMidBatchLeavesTheRestToTheNextRun) {
  // The first event of a reversed batch throws out of run(). The next
  // run() finishes that same batch in its permuted order: the batch is
  // neither counted nor permuted a second time.
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kReverse;
  q.set_perturbation(p);
  std::vector<int> order;
  schedule_tie(q, Time::ns(10), 3, order);
  q.schedule(Time::ns(10), [&] {
    order.push_back(3);
    throw std::runtime_error("boom");
  }, "e3");
  EXPECT_THROW(q.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{3}));
  EXPECT_EQ(q.batches_collected(), 1u);
  q.check_invariants();
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0}));
  EXPECT_EQ(q.batches_collected(), 1u);
  q.check_invariants();
}

TEST(SchedulePerturbationTest, EventsScheduledMidBatchFormNextGeneration) {
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kReverse;
  q.set_perturbation(p);
  std::vector<std::string> order;
  q.schedule(Time::ns(10), [&] {
    order.push_back("a");
    // Same timestamp, scheduled mid-batch: joins the *next* batch at t=10,
    // which (with a sibling) reverses independently.
    q.schedule(Time::ns(10), [&] { order.push_back("x"); });
    q.schedule(Time::ns(10), [&] { order.push_back("y"); });
  });
  q.schedule(Time::ns(10), [&] { order.push_back("b"); });
  q.run();
  // First batch {a,b} reversed -> b,a; a's children {x,y} reversed -> y,x.
  EXPECT_EQ(order, (std::vector<std::string>{"b", "a", "y", "x"}));
  EXPECT_EQ(q.batches_collected(), 2u);
}

TEST(SchedulePerturbationTest, RearmMidBatchThrows) {
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kIdentity;
  q.set_perturbation(p);
  std::vector<int> order;
  schedule_tie(q, Time::ns(10), 2, order);
  EXPECT_TRUE(q.dispatch_one());  // first batch entry fired, second still staged
  EXPECT_THROW(q.set_perturbation(SchedulePerturbation{}), std::logic_error);
  q.run();  // drain the rest; disarm is legal once the batch is done
  q.set_perturbation(SchedulePerturbation{});
  EXPECT_FALSE(q.perturbation().enabled());
}

TEST(SchedulePerturbationTest, ResetClearsBatchStateKeepsArming) {
  EventQueue q;
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kReverse;
  q.set_perturbation(p);
  std::vector<int> order;
  schedule_tie(q, Time::ns(10), 3, order);
  q.run();
  EXPECT_EQ(q.batches_collected(), 1u);
  q.reset();
  EXPECT_TRUE(q.perturbation().enabled());
  EXPECT_EQ(q.batches_collected(), 0u);
  order.clear();
  schedule_tie(q, Time::ns(10), 3, order);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

TEST(SchedulePerturbationTest, ToStringNamesModeAndWindow) {
  SchedulePerturbation p;
  p.mode = SchedulePerturbation::Mode::kShuffle;
  p.seed = 42;
  const std::string s = p.to_string();
  EXPECT_NE(s.find("shuffle"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

// --- ScheduleAuditor ------------------------------------------------------

/// A deterministic toy scenario with two same-timestamp batches:
///   t=10ns: "inc-a", "inc-b"   — commutative counter bumps (tie-safe)
///   t=20ns: "alpha", "beta"    — append to a log (order-DEPENDENT when
///                                `order_dependent` digests the log order)
/// The canonical digest folds the counter total (order-insensitive) and,
/// when order_dependent, the log in dispatch order — the defect the
/// auditor exists to catch.
AuditObservation run_toy(const SchedulePerturbation& p, bool order_dependent) {
  EventQueue q;
  q.set_perturbation(p);
  std::uint64_t counter = 0;
  std::vector<std::string> log;
  q.schedule(Time::ns(10), [&] { counter += 3; }, "inc-a");
  q.schedule(Time::ns(10), [&] { counter += 5; }, "inc-b");
  q.schedule(Time::ns(20), [&] { log.push_back("alpha"); }, "alpha");
  q.schedule(Time::ns(20), [&] { log.push_back("beta"); }, "beta");
  q.run();

  Digest d;
  d.update(counter);
  if (order_dependent) {
    for (const auto& entry : log) d.update(entry);  // dispatch order leaks in
  } else {
    // Canonical: fold entries in a fixed (sorted) order.
    std::vector<std::string> sorted = log;
    std::sort(sorted.begin(), sorted.end());
    for (const auto& entry : sorted) d.update(entry);
  }
  return observe_audit(q, d.value());
}

TEST(ScheduleAuditorTest, CleanScenarioPassesAllPermutations) {
  ScheduleAuditConfig config;
  config.permutations = 16;
  ScheduleAuditor auditor{config};
  const auto report = auditor.audit(
      [](const SchedulePerturbation& p) { return run_toy(p, /*order_dependent=*/false); });
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.batches, 2u);  // the audit was not vacuous
  EXPECT_EQ(report.permutations, 16u);
  EXPECT_EQ(report.runs, 18u);  // baseline + identity + 16
  EXPECT_NE(report.to_string().find("tie-order independent"), std::string::npos);
}

TEST(ScheduleAuditorTest, OrderDependentPairIsDetectedAndBisected) {
  ScheduleAuditor auditor;
  const auto report = auditor.audit(
      [](const SchedulePerturbation& p) { return run_toy(p, /*order_dependent=*/true); });
  ASSERT_FALSE(report.ok());
  const ScheduleDivergence& divergence = report.divergences.front();
  EXPECT_EQ(divergence.permutation, 1u);  // reverse already flips the log
  EXPECT_NE(divergence.observed_digest, divergence.expected_digest);

  // Bisection must walk past the commutative t=10 batch and pin the
  // t=20 log batch, isolate it, and name the first order-sensitive event.
  EXPECT_TRUE(divergence.bisected);
  EXPECT_EQ(divergence.culprit_batch, 1u);
  EXPECT_TRUE(divergence.isolated);
  EXPECT_EQ(divergence.culprit_time, Time::ns(20));
  EXPECT_EQ(divergence.batch_labels, (std::vector<std::string>{"alpha", "beta"}));
  EXPECT_EQ(divergence.culprit_position, 0u);
  EXPECT_EQ(divergence.culprit_label, "alpha");

  const std::string rendered = report.to_string();
  EXPECT_NE(rendered.find("ORDER-DEPENDENT"), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
}

TEST(ScheduleAuditorTest, EmptyCallbackThrows) {
  ScheduleAuditor auditor;
  EXPECT_THROW(auditor.audit(ScheduleAuditor::RunFn{}), std::invalid_argument);
}

TEST(ScheduleAuditorTest, NonDeterministicScenarioIsRejectedUpFront) {
  // A scenario whose digest changes between identical runs would make every
  // permutation "diverge" meaninglessly; the auditor refuses it outright.
  ScheduleAuditor auditor;
  std::uint64_t calls = 0;
  EXPECT_THROW(auditor.audit([&](const SchedulePerturbation&) {
                 return AuditObservation{++calls, 0, std::nullopt};
               }),
               ContractViolation);
}

TEST(ScheduleAuditorTest, ReportCountsBisectionRuns) {
  ScheduleAuditor auditor;
  const auto report = auditor.audit(
      [](const SchedulePerturbation& p) { return run_toy(p, /*order_dependent=*/true); });
  // baseline + identity + 16 permutations + bisection probes.
  EXPECT_GT(report.runs, 18u);
  EXPECT_LE(report.runs, 18u + auditor.config().max_bisect_runs);
}

}  // namespace
}  // namespace dredbox::sim
