#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/fault.hpp"

namespace dredbox::sim {
namespace {

TEST(FaultKindNames, RoundTripThroughStrings) {
  const FaultKind kinds[] = {
      FaultKind::kLinkFlap,          FaultKind::kInsertionLossDrift,
      FaultKind::kSwitchPortFailure, FaultKind::kCongestionBurst,
      FaultKind::kLossBurst,         FaultKind::kBrickCrash,
      FaultKind::kBrickRestart,      FaultKind::kRmstCorruption,
      FaultKind::kControllerStall,   FaultKind::kSpineLinkDown,
  };
  for (FaultKind kind : kinds) {
    const auto back = fault_kind_from_string(to_string(kind));
    ASSERT_TRUE(back.has_value()) << to_string(kind);
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(fault_kind_from_string("meteor-strike").has_value());
}

TEST(FaultPlanText, RoundTripsThroughParse) {
  FaultPlan plan;
  plan.add({Time::ms(2), FaultKind::kLinkFlap, 0, 0, 0.0, Time::us(500)});
  plan.add({Time::ms(5), FaultKind::kBrickCrash, 3, 0, 0.0, Time::zero()});
  plan.add({Time::ms(1), FaultKind::kCongestionBurst, 0, 0, 4.5, Time::ms(2)});
  plan.add({Time::ms(7), FaultKind::kRmstCorruption, 2, 1, 0.0, Time::zero()});

  const FaultPlan back = FaultPlan::parse(plan.to_string());
  ASSERT_EQ(back.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const FaultEvent& a = plan.events()[i];
    const FaultEvent& b = back.events()[i];
    EXPECT_EQ(b.at, a.at);
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.target, a.target);
    EXPECT_EQ(b.aux, a.aux);
    EXPECT_DOUBLE_EQ(b.magnitude, a.magnitude);
    EXPECT_EQ(b.duration, a.duration);
  }
}

TEST(FaultPlanText, ParsesTheDocumentedExample) {
  const auto plan = FaultPlan::parse(
      "link-flap@2ms+500us;brick-crash@5ms:target=3;congestion@1ms+2ms:magnitude=4");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kLinkFlap);
  EXPECT_EQ(plan.events()[0].at, Time::ms(2));
  EXPECT_EQ(plan.events()[0].duration, Time::us(500));
  EXPECT_EQ(plan.events()[1].target, 3u);
  EXPECT_DOUBLE_EQ(plan.events()[2].magnitude, 4.0);
}

TEST(FaultPlanText, RejectsMalformedSpecsWithTheOffendingToken) {
  EXPECT_THROW(FaultPlan::parse("meteor-strike@1ms"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("link-flap"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("link-flap@"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("link-flap@1parsec"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("link-flap@1ms:gremlins=7"), std::invalid_argument);
  try {
    FaultPlan::parse("link-flap@1ms;bogus-kind@2ms");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("bogus-kind"), std::string::npos) << e.what();
  }
}

TEST(FaultPlanGenerate, SameSeedSamePlan) {
  Rng rng_a{42};
  Rng rng_b{42};
  const FaultPlan a = FaultPlan::generate(rng_a);
  const FaultPlan b = FaultPlan::generate(rng_b);
  EXPECT_EQ(a.to_string(), b.to_string());

  Rng rng_c{43};
  EXPECT_NE(FaultPlan::generate(rng_c).to_string(), a.to_string());
}

TEST(FaultPlanGenerate, HonoursConfigKnobs) {
  Rng rng{7};
  FaultPlan::GeneratorConfig config;
  config.events = 16;
  config.horizon = Time::ms(10);
  config.weights = {1, 0, 0, 0, 0, 0, 0, 0, 0};  // link flaps only
  const FaultPlan plan = FaultPlan::generate(rng, config);
  ASSERT_EQ(plan.size(), 16u);
  for (const FaultEvent& e : plan.events()) {
    EXPECT_EQ(e.kind, FaultKind::kLinkFlap);
    EXPECT_LT(e.at, Time::ms(10));
  }
}

TEST(FaultInjectorTest, DeliversThroughTheEventQueueInOrder) {
  Simulator sim;
  Telemetry telemetry;
  FaultInjector injector{sim, telemetry};
  std::vector<FaultKind> seen;
  injector.on(FaultKind::kLinkFlap, [&](const FaultEvent&) {
    seen.push_back(FaultKind::kLinkFlap);
  });
  injector.on(FaultKind::kBrickCrash, [&](const FaultEvent&) {
    seen.push_back(FaultKind::kBrickCrash);
  });

  FaultPlan plan;
  plan.add({Time::ms(5), FaultKind::kBrickCrash});
  plan.add({Time::ms(2), FaultKind::kLinkFlap});
  EXPECT_EQ(injector.schedule(plan), 2u);
  sim.run();

  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], FaultKind::kLinkFlap);  // time order, not plan order
  EXPECT_EQ(seen[1], FaultKind::kBrickCrash);
  EXPECT_EQ(injector.injected(), 2u);
  EXPECT_EQ(injector.active(), 2u);  // no recover handlers registered
  injector.check_invariants();
}

TEST(FaultInjectorTest, RecoveryFiresDurationAfterInjection) {
  Simulator sim;
  Telemetry telemetry;
  FaultInjector injector{sim, telemetry};
  Time injected_at, recovered_at;
  injector.on(FaultKind::kLinkFlap,
              [&](const FaultEvent&) { injected_at = sim.now(); });
  injector.on_recover(FaultKind::kLinkFlap,
                      [&](const FaultEvent&) { recovered_at = sim.now(); });

  FaultPlan plan;
  plan.add({Time::ms(2), FaultKind::kLinkFlap, 0, 0, 0.0, Time::us(500)});
  injector.schedule(plan);
  sim.run();

  // Injection lands one tick past the nominal instant so fault transitions
  // never tie with workload events scheduled at the same timestamp; recovery
  // inherits the skew.
  EXPECT_EQ(injected_at, Time::ms(2) + Time::ps(1));
  EXPECT_EQ(recovered_at, Time::ms(2) + Time::us(500) + Time::ps(1));
  EXPECT_EQ(injector.recovered(), 1u);
  EXPECT_EQ(injector.active(), 0u);
  injector.check_invariants();
}

TEST(FaultInjectorTest, PersistentFaultNeverAutoRecovers) {
  Simulator sim;
  Telemetry telemetry;
  FaultInjector injector{sim, telemetry};
  injector.on(FaultKind::kBrickCrash, [](const FaultEvent&) {});
  injector.on_recover(FaultKind::kBrickCrash, [](const FaultEvent&) {
    FAIL() << "zero-duration fault must not auto-recover";
  });
  FaultPlan plan;
  plan.add({Time::ms(1), FaultKind::kBrickCrash});  // duration zero
  injector.schedule(plan);
  sim.run();
  EXPECT_EQ(injector.recovered(), 0u);
  EXPECT_EQ(injector.active(), 1u);
}

TEST(FaultInjectorTest, UnhandledKindsCountAsSkipped) {
  Simulator sim;
  Telemetry telemetry;
  FaultInjector injector{sim, telemetry};
  FaultPlan plan;
  plan.add({Time::ms(1), FaultKind::kControllerStall});
  EXPECT_EQ(injector.schedule(plan), 1u);
  sim.run();
  EXPECT_EQ(injector.injected(), 0u);
  EXPECT_EQ(injector.skipped(), 1u);
  injector.check_invariants();
}

TEST(FaultInjectorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.run_until(Time::ms(10));
  Telemetry telemetry;
  FaultInjector injector{sim, telemetry};
  Time fired_at;
  injector.on(FaultKind::kLinkFlap, [&](const FaultEvent&) { fired_at = sim.now(); });
  FaultPlan plan;
  plan.add({Time::ms(2), FaultKind::kLinkFlap});  // already in the past
  injector.schedule(plan);
  sim.run();
  EXPECT_EQ(fired_at, Time::ms(10) + Time::ps(1));
}

TEST(FaultInjectorTest, TelemetryCountsInjectionsAndRecoveries) {
  Simulator sim;
  Telemetry telemetry;
  telemetry.enable_all();
  FaultInjector injector{sim, telemetry};
  injector.on(FaultKind::kLinkFlap, [](const FaultEvent&) {});
  injector.on_recover(FaultKind::kLinkFlap, [](const FaultEvent&) {});

  FaultPlan plan;
  plan.add({Time::ms(1), FaultKind::kLinkFlap, 0, 0, 0.0, Time::ms(1)});
  plan.add({Time::ms(2), FaultKind::kControllerStall});
  injector.schedule(plan);
  sim.run();

  auto& m = telemetry.metrics();
  EXPECT_EQ(m.find_counter("sim.faults.injected")->value(), 1u);
  EXPECT_EQ(m.find_counter("sim.faults.recovered")->value(), 1u);
  EXPECT_EQ(m.find_counter("sim.faults.skipped")->value(), 1u);
  EXPECT_DOUBLE_EQ(m.find_gauge("sim.faults.active")->value(), 0.0);
}

}  // namespace
}  // namespace dredbox::sim
