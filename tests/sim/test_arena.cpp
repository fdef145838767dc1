// Unit and property tests for sim::IndexedArena — the fixed-block pool
// behind the event kernel's nodes. Covers the documented guarantees:
// LIFO slot reuse before growth, exhaustion-driven chunk growth, alignment
// (including over-aligned types), generation bumping for stale-handle
// rejection, destructor/clear() lifecycle (which is also the ASan leak
// coverage — a leaked live object would trip the sanitizer job), and
// check_invariants() freelist-consistency auditing under random churn.

#include "sim/arena.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/contract.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace dredbox::sim {
namespace {

/// Instrumented payload: counts live instances so lifecycle tests can
/// prove every constructed object is destroyed exactly once.
struct Probe {
  static int live_count;
  explicit Probe(int v = 0) : value{v} { ++live_count; }
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;
  ~Probe() { --live_count; }
  int value;
  std::string payload = "heap-backed so ASan sees leaks";
};
int Probe::live_count = 0;

class ArenaProbeTest : public testing::Test {
 protected:
  void TearDown() override { EXPECT_EQ(Probe::live_count, 0) << "Probe instances leaked"; }
};

TEST_F(ArenaProbeTest, CreateReturnsWorkingObjectAndDenseSlots) {
  IndexedArena<Probe> arena;
  auto [first, slot0] = arena.create(41);
  auto [second, slot1] = arena.create(42);
  EXPECT_EQ(first->value, 41);
  EXPECT_EQ(second->value, 42);
  EXPECT_EQ(slot0, 0u);
  EXPECT_EQ(slot1, 1u);
  EXPECT_EQ(arena.live(), 2u);
  EXPECT_EQ(arena.get(slot0), first);
  EXPECT_EQ(arena.get(slot1), second);
  arena.check_invariants();
  arena.destroy(slot0);
  arena.destroy(slot1);
}

TEST_F(ArenaProbeTest, FreedSlotIsReusedBeforeGrowth) {
  IndexedArena<Probe> arena;
  auto [a, slot_a] = arena.create(1);
  auto [b, slot_b] = arena.create(2);
  (void)a;
  const std::size_t capacity_before = arena.capacity();
  arena.destroy(slot_a);
  // LIFO: the most recently freed slot comes back first, and the arena
  // must not grow while any freed block is available.
  auto [c, slot_c] = arena.create(3);
  EXPECT_EQ(slot_c, slot_a);
  EXPECT_EQ(arena.capacity(), capacity_before);
  EXPECT_EQ(c->value, 3);
  EXPECT_EQ(b->value, 2) << "reuse must not disturb other live blocks";
  arena.check_invariants();
  arena.destroy(slot_b);
  arena.destroy(slot_c);
}

TEST_F(ArenaProbeTest, LifoReuseOrder) {
  IndexedArena<Probe> arena;
  std::vector<std::uint32_t> slots;
  for (int i = 0; i < 8; ++i) slots.push_back(arena.create(i).second);
  arena.destroy(slots[2]);
  arena.destroy(slots[5]);
  arena.destroy(slots[7]);
  EXPECT_EQ(arena.create(10).second, slots[7]);  // last freed, first reused
  EXPECT_EQ(arena.create(11).second, slots[5]);
  EXPECT_EQ(arena.create(12).second, slots[2]);
  arena.check_invariants();
  arena.clear();
}

TEST_F(ArenaProbeTest, ExhaustionGrowsByWholeChunks) {
  IndexedArena<Probe> arena;
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.chunks(), 0u);
  constexpr std::size_t kChunk = IndexedArena<Probe>::kBlocksPerChunk;
  for (std::size_t i = 0; i < kChunk; ++i) arena.create(static_cast<int>(i));
  EXPECT_EQ(arena.chunks(), 1u);
  EXPECT_EQ(arena.capacity(), kChunk);
  EXPECT_EQ(arena.free_blocks(), 0u);
  // The next create exhausts the chunk and must grow by exactly one more.
  arena.create(-1);
  EXPECT_EQ(arena.chunks(), 2u);
  EXPECT_EQ(arena.capacity(), 2 * kChunk);
  EXPECT_EQ(arena.live(), kChunk + 1);
  arena.check_invariants();
  arena.clear();
  EXPECT_EQ(arena.live(), 0u);
  EXPECT_EQ(arena.chunks(), 2u) << "clear() keeps chunks for reuse";
}

TEST_F(ArenaProbeTest, StableAddressesAcrossGrowth) {
  IndexedArena<Probe> arena;
  auto [first, slot] = arena.create(123);
  for (int i = 0; i < 3000; ++i) arena.create(i);  // forces many chunks
  EXPECT_EQ(arena.get(slot), first) << "growth must never relocate blocks";
  EXPECT_EQ(first->value, 123);
  arena.clear();
}

TEST_F(ArenaProbeTest, ClearDestroysEveryLiveObjectAndDestructorToo) {
  {
    IndexedArena<Probe> arena;
    for (int i = 0; i < 700; ++i) arena.create(i);
    EXPECT_EQ(Probe::live_count, 700);
    arena.clear();
    EXPECT_EQ(Probe::live_count, 0);
    // Refill after clear: recycled blocks, no leak of the first wave.
    for (int i = 0; i < 10; ++i) arena.create(i);
    EXPECT_EQ(Probe::live_count, 10);
    arena.check_invariants();
  }  // ~IndexedArena destroys the 10 remaining
  EXPECT_EQ(Probe::live_count, 0);
}

TEST(ArenaGenerationTest, DestroyBumpsGenerationSoStaleHandlesMiss) {
  IndexedArena<int> arena;
  auto [p, slot] = arena.create(5);
  (void)p;
  const std::uint32_t gen_before = arena.generation(slot);
  EXPECT_NE(gen_before, 0u) << "0 is reserved for never-allocated slots";
  arena.destroy(slot);
  EXPECT_EQ(arena.get(slot), nullptr);
  EXPECT_EQ(arena.generation(slot), gen_before + 1);
  // Reuse: same slot, different generation -> a (slot, gen_before) handle
  // is distinguishable from the slot's next tenant.
  auto [q, slot2] = arena.create(6);
  (void)q;
  ASSERT_EQ(slot2, slot);
  EXPECT_NE(arena.generation(slot), gen_before);
  arena.destroy(slot);
}

TEST(ArenaGenerationTest, NeverAllocatedSlotsReportGenerationZeroAndNullGet) {
  IndexedArena<int> arena;
  EXPECT_EQ(arena.generation(0), 0u);
  EXPECT_EQ(arena.generation(12345), 0u);
  EXPECT_EQ(arena.get(0), nullptr);
  EXPECT_EQ(arena.get(12345), nullptr);
  arena.check_invariants();
}

TEST(ArenaAlignmentTest, OverAlignedTypeBlocksAreAligned) {
  struct alignas(64) Wide {
    double lanes[8];
  };
  IndexedArena<Wide> arena;
  // Spans multiple chunks so first-block-of-chunk alignment is covered.
  constexpr std::size_t kChunk = IndexedArena<Wide>::kBlocksPerChunk;
  for (std::size_t i = 0; i < 2 * kChunk + 3; ++i) {
    auto [object, slot] = arena.create();
    (void)slot;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(object) % 64, 0u)
        << "block " << i << " violates alignas(64)";
  }
  arena.check_invariants();  // includes the alignment audit over all blocks
}

TEST(ArenaInvariantTest, DestroyingDeadSlotThrows) {
  IndexedArena<int> arena;
  auto [p, slot] = arena.create(9);
  (void)p;
  arena.destroy(slot);
  EXPECT_THROW(arena.destroy(slot), ContractViolation);
}

// Randomized churn property: under an arbitrary create/destroy
// interleaving the arena always satisfies its deep audit, never grows
// while free blocks exist, and never hands out a slot twice concurrently.
TEST(ArenaPropertyTest, RandomChurnKeepsFreelistConsistent) {
  std::uint64_t state = 0x51ed270b7a64e9cdull;
  const auto next = [&state] {
    state += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  IndexedArena<std::pair<std::uint64_t, std::string>> arena;
  std::set<std::uint32_t> live_slots;
  for (int op = 0; op < 5000; ++op) {
    if (live_slots.empty() || next() % 100 < 55) {
      const bool had_free = arena.free_blocks() > 0;
      const std::size_t capacity_before = arena.capacity();
      auto [object, slot] = arena.create(next(), "churn");
      EXPECT_EQ(object->second, "churn");
      EXPECT_TRUE(live_slots.insert(slot).second) << "slot " << slot << " double-allocated";
      if (had_free) {
        EXPECT_EQ(arena.capacity(), capacity_before) << "grew while free blocks existed";
      }
    } else {
      auto it = live_slots.begin();
      std::advance(it, static_cast<long>(next() % live_slots.size()));
      arena.destroy(*it);
      live_slots.erase(it);
    }
    if (op % 97 == 0) arena.check_invariants();
  }
  EXPECT_EQ(arena.live(), live_slots.size());
  arena.check_invariants();
  arena.clear();
  EXPECT_EQ(arena.live(), 0u);
  arena.check_invariants();
}

// Fault-plan interleaving (ISSUE 9 satellite): pooled-op churn driven on a
// real Simulator timeline with a FaultInjector firing mid-stream. Each
// injected "brick crash" abandons half the live slots (the DMA engine's
// fault-abandonment path in miniature): destroys must reclaim the slots
// and bump generations, recoveries refill from the freelist, and the deep
// audit must hold at every transition.
TEST(ArenaFaultChurnTest, FaultInjectorInterleavedChurnStaysConsistent) {
  Simulator sim;
  IndexedArena<std::pair<std::uint64_t, std::string>> arena;
  std::vector<std::uint32_t> live_slots;
  std::uint64_t generation_bumps = 0;

  Telemetry telemetry;
  FaultInjector injector{sim, telemetry};
  injector.on(FaultKind::kBrickCrash, [&](const FaultEvent&) {
    // The crash abandons the newest half of the in-flight ops.
    std::size_t victims = (live_slots.size() + 1) / 2;
    while (victims-- > 0 && !live_slots.empty()) {
      const std::uint32_t slot = live_slots.back();
      live_slots.pop_back();
      const std::uint32_t generation_before = arena.generation(slot);
      arena.destroy(slot);
      EXPECT_EQ(arena.get(slot), nullptr) << "abandoned slot must read as dead";
      EXPECT_EQ(arena.generation(slot), generation_before + 1)
          << "abandonment must bump the generation";
      ++generation_bumps;
    }
    arena.check_invariants();
  });
  injector.on_recover(FaultKind::kBrickCrash, [&](const FaultEvent&) {
    // Recovery re-issues a burst of ops; the freelist must serve them
    // before any growth (LIFO reuse of the just-abandoned slots).
    const std::size_t free_before = arena.free_blocks();
    const std::size_t capacity_before = arena.capacity();
    for (std::uint64_t i = 0; i < 16; ++i) {
      live_slots.push_back(arena.create(i, "recovered").second);
    }
    if (free_before >= 16) {
      EXPECT_EQ(arena.capacity(), capacity_before)
          << "grew while abandoned slots sat on the freelist";
    }
    arena.check_invariants();
  });

  FaultPlan plan;
  for (int i = 1; i <= 6; ++i) {
    FaultEvent crash;
    crash.at = Time::us(40 * i);
    crash.kind = FaultKind::kBrickCrash;
    crash.duration = Time::us(15);
    plan.add(crash);
  }
  ASSERT_EQ(injector.schedule(plan), 6u);

  // A steady creation stream interleaved with the crash/recover events.
  for (std::uint64_t i = 0; i < 200; ++i) {
    sim.at(Time::us(2 * static_cast<double>(i)), [&arena, &live_slots, i] {
      live_slots.push_back(arena.create(i, "churn").second);
    });
  }
  sim.run();

  EXPECT_EQ(injector.injected(), 6u);
  EXPECT_EQ(injector.recovered(), 6u);
  EXPECT_GT(generation_bumps, 0u);
  EXPECT_EQ(arena.live(), live_slots.size());
  arena.check_invariants();
  injector.check_invariants();
  arena.clear();
  EXPECT_EQ(arena.live(), 0u);
  arena.check_invariants();
}

}  // namespace
}  // namespace dredbox::sim
