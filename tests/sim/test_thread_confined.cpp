#include <gtest/gtest.h>

#include <functional>
#include <thread>

#include "sim/contract.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace dredbox::sim {
namespace {

/// Runs `touch` on a second thread; true iff it threw ContractViolation.
bool violates_from_another_thread(const std::function<void()>& touch) {
  bool threw = false;
  std::thread other{[&] {
    try {
      touch();
    } catch (const ContractViolation&) {
      threw = true;
    }
  }};
  other.join();
  return threw;
}

// The first thread to touch a registry or a tracer owns it for life; any
// other thread's registration or record is a contract violation.
TEST(ThreadConfinedTest, FirstToucherOwnsForLife) {
  if (!DREDBOX_AUDIT_ENABLED) GTEST_SKIP() << "confinement is checked in audit builds only";
  metrics::MetricsRegistry registry;
  registry.counter("owned.here");
  EXPECT_TRUE(violates_from_another_thread([&] { registry.counter("from.elsewhere"); }));
  EXPECT_NO_THROW(registry.counter("owned.still"));

  Tracer tracer;
  tracer.record(Time::zero(), TraceCategory::kFabric, "owned here");
  EXPECT_TRUE(violates_from_another_thread(
      [&] { tracer.record(Time::ns(1), TraceCategory::kFabric, "from elsewhere"); }));
  EXPECT_NO_THROW(tracer.record(Time::ns(2), TraceCategory::kFabric, "owned still"));
}

// A copy is a new object: it starts unowned, and its first toucher owns
// it even when the original belongs to another thread.
TEST(ThreadConfinedTest, ACopiedTracerStartsUnowned) {
  if (!DREDBOX_AUDIT_ENABLED) GTEST_SKIP() << "confinement is checked in audit builds only";
  Tracer original;
  original.record(Time::zero(), TraceCategory::kFabric, "owned here");
  Tracer copy = original;
  EXPECT_FALSE(violates_from_another_thread(
      [&] { copy.record(Time::ns(1), TraceCategory::kFabric, "claims the copy"); }));
  EXPECT_THROW(copy.record(Time::ns(2), TraceCategory::kFabric, "not the copy's owner"),
               ContractViolation);
  EXPECT_NO_THROW(original.record(Time::ns(3), TraceCategory::kFabric, "owned still"));
}

}  // namespace
}  // namespace dredbox::sim
