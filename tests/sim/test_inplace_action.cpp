// Unit tests for sim::InplaceFunction / sim::InplaceAction — the
// allocation-free callable the event kernel and DMA completions carry
// (ISSUE 9a). Covers the documented contract: inline invocation with
// arguments and returns, move-only ownership (moved-from is empty, the
// target runs the capture), destructor execution for owned captures,
// std::bad_function_call on empty invocation, and the fixed memory
// footprint the event node layout depends on.

#include "sim/inplace_action.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "sim/simulator.hpp"

namespace dredbox::sim {
namespace {

TEST(InplaceFunctionTest, InvokesWithArgumentsAndReturn) {
  InplaceFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_TRUE(static_cast<bool>(add));
  EXPECT_EQ(add(2, 3), 5);
  EXPECT_EQ(add(-7, 7), 0);
}

TEST(InplaceFunctionTest, CapturesStateInline) {
  int counter = 0;
  InplaceAction bump = [&counter] { ++counter; };
  bump();
  bump();
  EXPECT_EQ(counter, 2);
}

TEST(InplaceFunctionTest, DefaultConstructedIsEmptyAndThrows) {
  InplaceAction empty;
  EXPECT_FALSE(static_cast<bool>(empty));
  EXPECT_THROW(empty(), std::bad_function_call);
  InplaceAction null_constructed{nullptr};
  EXPECT_FALSE(static_cast<bool>(null_constructed));
  EXPECT_THROW(null_constructed(), std::bad_function_call);
}

TEST(InplaceFunctionTest, MoveTransfersTheCallableAndEmptiesTheSource) {
  int calls = 0;
  InplaceAction original = [&calls] { ++calls; };
  InplaceAction moved{std::move(original)};
  EXPECT_FALSE(static_cast<bool>(original));  // NOLINT(bugprone-use-after-move)
  EXPECT_THROW(original(), std::bad_function_call);
  moved();
  EXPECT_EQ(calls, 1);

  InplaceAction assigned;
  assigned = std::move(moved);
  EXPECT_FALSE(static_cast<bool>(moved));  // NOLINT(bugprone-use-after-move)
  assigned();
  EXPECT_EQ(calls, 2);
}

TEST(InplaceFunctionTest, MoveAssignmentDestroysThePreviousTarget) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> alive = token;
  InplaceAction holder = [token] { (void)token; };
  token.reset();
  EXPECT_FALSE(alive.expired()) << "capture keeps the token alive";
  holder = [] {};  // replacing the target must destroy the old capture
  EXPECT_TRUE(alive.expired());
}

TEST(InplaceFunctionTest, AssigningNullptrDestroysAndEmpties) {
  auto token = std::make_shared<int>(2);
  std::weak_ptr<int> alive = token;
  InplaceAction holder = [token] { (void)token; };
  token.reset();
  ASSERT_FALSE(alive.expired());
  holder = nullptr;
  EXPECT_TRUE(alive.expired());
  EXPECT_FALSE(static_cast<bool>(holder));
}

TEST(InplaceFunctionTest, DestructorRunsTheCaptureDestructor) {
  auto token = std::make_shared<std::string>("owned");
  std::weak_ptr<std::string> alive = token;
  {
    InplaceAction holder = [token] { (void)token; };
    token.reset();
    EXPECT_FALSE(alive.expired());
  }
  EXPECT_TRUE(alive.expired()) << "~InplaceFunction must destroy the capture";
}

TEST(InplaceFunctionTest, MoveOnlyCapturesWork) {
  auto owned = std::make_unique<int>(42);
  InplaceFunction<int()> read = [owned = std::move(owned)] { return *owned; };
  EXPECT_EQ(read(), 42);
  InplaceFunction<int()> moved{std::move(read)};
  EXPECT_EQ(moved(), 42);
}

TEST(InplaceFunctionTest, CapacityBoundaryCapturesFitExactly) {
  // The datapath budget: a capture of exactly kCapacity bytes compiles and
  // runs (the widest real capture — the workload DMA completion — is
  // exactly 48 bytes). One byte more is a compile error by static_assert,
  // which cannot be expressed as a runtime test; the boundary fit can.
  struct Exact {
    std::uint64_t words[6];  // 48 bytes == InplaceAction::kCapacity
  };
  static_assert(sizeof(Exact) == InplaceAction::kCapacity);
  Exact payload{{1, 2, 3, 4, 5, 6}};
  std::uint64_t sum = 0;
  InplaceFunction<std::uint64_t()> fold = [payload]() {
    std::uint64_t s = 0;
    for (const std::uint64_t w : payload.words) s += w;
    return s;
  };
  sum = fold();
  EXPECT_EQ(sum, 21u);
}

TEST(InplaceFunctionTest, FootprintIsStorePlusTwoFunctionPointers) {
  // The event node embeds the action by value; its size is part of the
  // kernel's cache layout. 48 bytes of max_align_t-aligned storage plus
  // invoke/manage pointers pads to exactly 64 bytes on LP64.
  static_assert(InplaceAction::kCapacity == 48);
  EXPECT_EQ(sizeof(InplaceAction), 64u);
}

TEST(InplaceFunctionTest, SelfMoveAssignmentIsSafe) {
  int calls = 0;
  InplaceAction action = [&calls] { ++calls; };
  InplaceAction& alias = action;
  action = std::move(alias);
  action();
  EXPECT_EQ(calls, 1);
}

/// Counts moves into a live object and destructions of live objects (a
/// moved-from shell's destructor is not a destruction of the callable).
struct MoveCounter {
  int* moves;
  int* destroys;
  bool live = true;

  MoveCounter(int* m, int* d) : moves{m}, destroys{d} {}
  MoveCounter(MoveCounter&& other) noexcept
      : moves{other.moves}, destroys{other.destroys}, live{other.live} {
    ++*moves;
    other.live = false;
  }
  MoveCounter(const MoveCounter&) = delete;
  MoveCounter& operator=(const MoveCounter&) = delete;
  MoveCounter& operator=(MoveCounter&&) = delete;
  ~MoveCounter() {
    if (live) ++*destroys;
  }
  void operator()() const {}
};

TEST(InplaceFunctionTest, ScheduledCaptureIsRelocatedOnceAndDestroyedOnce) {
  // Simulator::at -> EventQueue::schedule -> event node pass the action by
  // rvalue reference, and dispatch runs it in place: from the caller's
  // InplaceAction to its destruction after firing, the capture is moved
  // at most once (into its node) and destroyed exactly once.
  Simulator sim;
  int moves = 0;
  int destroys = 0;
  InplaceAction action{MoveCounter{&moves, &destroys}};
  moves = 0;
  sim.at(Time::ns(1), std::move(action));
  EXPECT_LE(moves, 1);
  EXPECT_EQ(destroys, 0);
  sim.run();
  EXPECT_LE(moves, 1) << "dispatch must run the action in place, not move it out";
  EXPECT_EQ(destroys, 1);

  // A re-armed action is neither moved nor destroyed until its last fire.
  int fires = 0;
  moves = 0;
  destroys = 0;
  struct Rearming {
    Simulator* sim;
    int* fires;
    MoveCounter counter;
    void operator()() {
      if (++*fires < 3) sim->rearm(sim->now() + Time::ns(1));
    }
  };
  sim.after(Time::ns(1), Rearming{&sim, &fires, MoveCounter{&moves, &destroys}});
  moves = 0;
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(moves, 0);
  EXPECT_EQ(destroys, 1);
}

}  // namespace
}  // namespace dredbox::sim
