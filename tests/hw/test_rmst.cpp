#include "hw/rmst.hpp"

#include <gtest/gtest.h>

#include "sim/random.hpp"

namespace dredbox::hw {
namespace {

RmstEntry entry(std::uint32_t seg, std::uint64_t base, std::uint64_t size) {
  RmstEntry e;
  e.segment = SegmentId{seg};
  e.base = base;
  e.size = size;
  e.dest_brick = BrickId{9};
  e.dest_base = 0x1000;
  e.out_port = PortId{0};
  e.circuit = CircuitId{1};
  return e;
}

TEST(RmstTest, InsertAndLookup) {
  Rmst rmst;
  rmst.insert(entry(1, 0x1000, 0x1000));
  const RmstEntry* hit = rmst.find(0x1800);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->segment, SegmentId{1});
  EXPECT_EQ(rmst.find(0x0FFF), nullptr);
  EXPECT_EQ(rmst.find(0x2000), nullptr);  // end is exclusive
}

TEST(RmstTest, LookupBoundaries) {
  Rmst rmst;
  rmst.insert(entry(1, 0x1000, 0x1000));
  EXPECT_NE(rmst.find(0x1000), nullptr);   // first byte
  EXPECT_NE(rmst.find(0x1FFF), nullptr);   // last byte
}

TEST(RmstTest, RejectsOverlap) {
  Rmst rmst;
  rmst.insert(entry(1, 0x1000, 0x1000));
  EXPECT_THROW(rmst.insert(entry(2, 0x1800, 0x1000)), std::logic_error);  // tail overlap
  EXPECT_THROW(rmst.insert(entry(2, 0x0800, 0x1000)), std::logic_error);  // head overlap
  EXPECT_THROW(rmst.insert(entry(2, 0x1200, 0x0100)), std::logic_error);  // contained
  EXPECT_THROW(rmst.insert(entry(2, 0x0000, 0x4000)), std::logic_error);  // containing
}

TEST(RmstTest, AdjacentWindowsAllowed) {
  Rmst rmst;
  rmst.insert(entry(1, 0x1000, 0x1000));
  EXPECT_NO_THROW(rmst.insert(entry(2, 0x2000, 0x1000)));
  EXPECT_NO_THROW(rmst.insert(entry(3, 0x0000, 0x1000)));
}

TEST(RmstTest, RejectsDuplicateSegment) {
  Rmst rmst;
  rmst.insert(entry(1, 0x1000, 0x1000));
  EXPECT_THROW(rmst.insert(entry(1, 0x9000, 0x1000)), std::logic_error);
}

TEST(RmstTest, RejectsDegenerateEntries) {
  Rmst rmst;
  EXPECT_THROW(rmst.insert(entry(1, 0x1000, 0)), std::invalid_argument);
  RmstEntry bad = entry(0, 0x1000, 0x100);
  bad.segment = SegmentId{};
  EXPECT_THROW(rmst.insert(bad), std::invalid_argument);
  EXPECT_THROW(rmst.insert(entry(2, UINT64_MAX - 10, 0x100)), std::invalid_argument);
}

TEST(RmstTest, CapacityEnforced) {
  Rmst rmst{2};
  rmst.insert(entry(1, 0x0000, 0x100));
  rmst.insert(entry(2, 0x1000, 0x100));
  EXPECT_TRUE(rmst.full());
  EXPECT_THROW(rmst.insert(entry(3, 0x2000, 0x100)), std::logic_error);
}

TEST(RmstTest, ZeroCapacityRejected) {
  EXPECT_THROW(Rmst{0}, std::invalid_argument);
}

TEST(RmstTest, RemoveFreesSlot) {
  Rmst rmst{1};
  rmst.insert(entry(1, 0x0000, 0x100));
  EXPECT_TRUE(rmst.remove(SegmentId{1}));
  EXPECT_FALSE(rmst.remove(SegmentId{1}));
  EXPECT_EQ(rmst.size(), 0u);
  EXPECT_NO_THROW(rmst.insert(entry(2, 0x0000, 0x100)));
}

TEST(RmstTest, FindSegment) {
  Rmst rmst;
  rmst.insert(entry(7, 0x5000, 0x800));
  auto found = rmst.find_segment(SegmentId{7});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->base, 0x5000u);
  EXPECT_FALSE(rmst.find_segment(SegmentId{8}).has_value());
}

TEST(RmstTest, MappedBytes) {
  Rmst rmst;
  rmst.insert(entry(1, 0x0000, 0x100));
  rmst.insert(entry(2, 0x1000, 0x200));
  EXPECT_EQ(rmst.mapped_bytes(), 0x300u);
  rmst.remove(SegmentId{1});
  EXPECT_EQ(rmst.mapped_bytes(), 0x200u);
}

TEST(RmstTest, ClearEmptiesTable) {
  Rmst rmst;
  rmst.insert(entry(1, 0x0000, 0x100));
  rmst.clear();
  EXPECT_EQ(rmst.size(), 0u);
  EXPECT_EQ(rmst.find(0x50), nullptr);
}

// ---------------------------------------------------------------------
// Boundary windows at the top of the address space. base + size == 2^64
// wraps the naive sum to 0 but the window itself is well-formed: its last
// byte is UINT64_MAX. Such windows must insert, look up, and participate
// in disjointness checks correctly.

TEST(RmstBoundaryTest, WindowEndingExactlyAtTopOfAddressSpace) {
  Rmst rmst;
  EXPECT_NO_THROW(rmst.insert(entry(1, UINT64_MAX - 0xFFF, 0x1000)));
  EXPECT_NE(rmst.find(UINT64_MAX), nullptr);            // last byte
  EXPECT_NE(rmst.find(UINT64_MAX - 0xFFF), nullptr);    // first byte
  EXPECT_EQ(rmst.find(UINT64_MAX - 0x1000), nullptr);  // one below
  EXPECT_NO_THROW(rmst.check_invariants());
}

TEST(RmstBoundaryTest, SingleByteWindowAtTopOfAddressSpace) {
  Rmst rmst;
  EXPECT_NO_THROW(rmst.insert(entry(1, UINT64_MAX, 1)));
  const RmstEntry* hit = rmst.find(UINT64_MAX);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->segment, SegmentId{1});
  EXPECT_EQ(rmst.find(UINT64_MAX - 1), nullptr);
  EXPECT_NO_THROW(rmst.check_invariants());
}

TEST(RmstBoundaryTest, WindowWhoseLastByteWrapsIsStillRejected) {
  Rmst rmst;
  // Last byte would be at 2^64 + 0xFE: genuinely malformed.
  EXPECT_THROW(rmst.insert(entry(1, UINT64_MAX - 10, 0x100)), std::invalid_argument);
  // Whole-space-and-then-some from a nonzero base.
  EXPECT_THROW(rmst.insert(entry(2, 0x1000, UINT64_MAX)), std::invalid_argument);
}

TEST(RmstBoundaryTest, TopWindowParticipatesInDisjointnessChecks) {
  Rmst rmst;
  rmst.insert(entry(1, UINT64_MAX - 0xFFF, 0x1000));
  // Overlapping the top window from below must still be caught even though
  // the top window's naive end wrapped to 0.
  EXPECT_THROW(rmst.insert(entry(2, UINT64_MAX - 0x17FF, 0x1000)), std::logic_error);
  // A second top-of-space window overlaps trivially.
  EXPECT_THROW(rmst.insert(entry(2, UINT64_MAX, 1)), std::logic_error);
  // Adjacent-below is fine (end-exclusive).
  EXPECT_NO_THROW(rmst.insert(entry(3, UINT64_MAX - 0x1FFF, 0x1000)));
  EXPECT_NO_THROW(rmst.check_invariants());
}

TEST(RmstBoundaryTest, WindowFitsHelper) {
  EXPECT_TRUE(window_fits(0, 1));
  EXPECT_TRUE(window_fits(0, UINT64_MAX));
  EXPECT_TRUE(window_fits(1, UINT64_MAX));         // ends exactly at 2^64
  EXPECT_TRUE(window_fits(UINT64_MAX, 1));         // last byte of the space
  EXPECT_FALSE(window_fits(UINT64_MAX, 2));        // wraps
  EXPECT_FALSE(window_fits(2, UINT64_MAX));        // wraps by one byte
}

TEST(RmstBoundaryTest, WindowsDisjointHelperAtTheTop) {
  // [MAX-0xFFF, 2^64) vs [MAX-0x1FFF, MAX-0xFFF): adjacent, disjoint.
  EXPECT_TRUE(windows_disjoint(UINT64_MAX - 0xFFF, 0x1000, UINT64_MAX - 0x1FFF, 0x1000));
  // Overlapping by one byte.
  EXPECT_FALSE(windows_disjoint(UINT64_MAX - 0xFFF, 0x1000, UINT64_MAX - 0x1FFF, 0x1001));
  // Same base always overlaps.
  EXPECT_FALSE(windows_disjoint(0x1000, 1, 0x1000, 1));
}

// ---------------------------------------------------------------------
// Error precedence: entry validation must run before table-state checks,
// so an invalid insert into a full table reports the real defect
// (invalid_argument) instead of "table full" (logic_error).

TEST(RmstErrorOrderTest, InvalidInsertIntoFullTableReportsInvalidArgument) {
  Rmst rmst{2};
  rmst.insert(entry(1, 0x0000, 0x100));
  rmst.insert(entry(2, 0x1000, 0x100));
  ASSERT_TRUE(rmst.full());
  EXPECT_THROW(rmst.insert(entry(3, 0x2000, 0)), std::invalid_argument);  // zero size
  RmstEntry bad = entry(3, 0x2000, 0x100);
  bad.segment = SegmentId{};
  EXPECT_THROW(rmst.insert(bad), std::invalid_argument);  // invalid id
  EXPECT_THROW(rmst.insert(entry(3, UINT64_MAX - 1, 0x100)),
               std::invalid_argument);  // wrapping window
  // A well-formed entry against the full table is the state error.
  EXPECT_THROW(rmst.insert(entry(3, 0x2000, 0x100)), std::logic_error);
  EXPECT_EQ(rmst.size(), 2u);  // no partial mutation from any rejected insert
}

TEST(RmstErrorOrderTest, StateConflictsAreLogicErrors) {
  Rmst rmst;
  rmst.insert(entry(1, 0x1000, 0x1000));
  EXPECT_THROW(rmst.insert(entry(1, 0x9000, 0x1000)), std::logic_error);  // duplicate id
  EXPECT_THROW(rmst.insert(entry(2, 0x1800, 0x1000)), std::logic_error);  // overlap
}

// ---------------------------------------------------------------------
// find(): pointer-returning fast path.

TEST(RmstFindTest, FindReturnsStablePointerIntoTable) {
  Rmst rmst;
  rmst.insert(entry(1, 0x1000, 0x1000));
  rmst.insert(entry(2, 0x4000, 0x1000));
  const RmstEntry* a = rmst.find(0x1800);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->segment, SegmentId{1});
  // Repeat lookup (MRU hit) returns the same pointer.
  EXPECT_EQ(rmst.find(0x1801), a);
  // The pointer aims into the entries() storage, not a copy.
  bool aliases = false;
  for (const auto& e : rmst.entries()) aliases = aliases || (&e == a);
  EXPECT_TRUE(aliases);
  EXPECT_EQ(rmst.find(0x3000), nullptr);  // gap
  // Alternating between segments breaks the MRU but still resolves.
  EXPECT_EQ(rmst.find(0x4000)->segment, SegmentId{2});
  EXPECT_EQ(rmst.find(0x1000)->segment, SegmentId{1});
}

TEST(RmstFindTest, FindSurvivesRemovalOfTheCachedEntry) {
  Rmst rmst;
  rmst.insert(entry(1, 0x1000, 0x1000));
  rmst.insert(entry(2, 0x4000, 0x1000));
  ASSERT_NE(rmst.find(0x4800), nullptr);  // prime the MRU with segment 2
  rmst.remove(SegmentId{2});
  EXPECT_EQ(rmst.find(0x4800), nullptr);  // stale MRU must not resurrect it
  ASSERT_NE(rmst.find(0x1800), nullptr);
  EXPECT_EQ(rmst.find(0x1800)->segment, SegmentId{1});
}

/// Property: for randomly inserted non-overlapping windows, every address
/// inside a window resolves to that window and addresses in gaps miss.
class RmstPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RmstPropertyTest, LookupMatchesGroundTruth) {
  sim::Rng rng{GetParam()};
  Rmst rmst{32};
  std::vector<RmstEntry> truth;
  // Windows at 1 MiB-aligned slots so non-overlap is easy to guarantee.
  std::vector<std::uint64_t> slots;
  for (std::uint64_t s = 0; s < 64; ++s) slots.push_back(s << 20);
  rng.shuffle(slots);
  for (std::uint32_t i = 0; i < 20; ++i) {
    const std::uint64_t size = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, (1 << 20) - 1));
    auto e = entry(i + 1, slots[i], size);
    rmst.insert(e);
    truth.push_back(e);
  }
  for (const auto& e : truth) {
    const std::uint64_t inside =
        e.base + static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(e.size) - 1));
    const RmstEntry* hit = rmst.find(inside);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->segment, e.segment);
    if (e.size < (1 << 20)) {
      const RmstEntry* next = rmst.find(e.base + e.size);
      EXPECT_FALSE(next != nullptr && next->segment == e.segment);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmstPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

/// The paper-faithful reference: a fully associative linear scan over the
/// valid-entry set. The interval index + MRU cache must agree with this
/// on every address, after every mutation.
const RmstEntry* linear_scan(const Rmst& rmst, std::uint64_t addr) {
  for (const auto& e : rmst.entries()) {
    if (e.contains(addr)) return &e;
  }
  return nullptr;
}

/// Equivalence property: drive a random insert/remove/lookup sequence and
/// check that the indexed find() (including its MRU cache, which the
/// repeated probes exercise) returns exactly what the linear scan returns.
class RmstEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RmstEquivalenceTest, IndexAndMruMatchLinearScan) {
  sim::Rng rng{GetParam()};
  Rmst rmst{32};
  // 1 MiB-aligned slots, the top one flush against the end of the address
  // space so the boundary window is part of the random mix.
  std::vector<std::uint64_t> slots;
  for (std::uint64_t s = 0; s < 47; ++s) slots.push_back(s << 20);
  slots.push_back(UINT64_MAX - ((1ull << 20) - 1));
  std::vector<std::size_t> installed;  // indices into slots
  std::uint32_t next_segment = 1;
  std::vector<std::uint32_t> slot_segment(slots.size(), 0);

  auto probe = [&](std::uint64_t addr) {
    const RmstEntry* expect = linear_scan(rmst, addr);
    const RmstEntry* got = rmst.find(addr);
    if (expect == nullptr) {
      ASSERT_EQ(got, nullptr) << "addr 0x" << std::hex << addr;
    } else {
      ASSERT_NE(got, nullptr) << "addr 0x" << std::hex << addr;
      EXPECT_EQ(got->segment, expect->segment);
    }
    // Probe twice: the second call takes the MRU fast path and must agree.
    EXPECT_EQ(rmst.find(addr), got);
  };

  for (int op = 0; op < 400; ++op) {
    const int kind = rng.uniform_int(0, 9);
    if (kind < 3 && installed.size() < slots.size() && !rmst.full()) {
      // Insert into a random free slot with a random size <= the slot pitch.
      std::size_t slot;
      do {
        slot = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(slots.size()) - 1));
      } while (slot_segment[slot] != 0);
      const auto size = 1 + static_cast<std::uint64_t>(rng.uniform_int(0, (1 << 20) - 1));
      rmst.insert(entry(next_segment, slots[slot], size));
      slot_segment[slot] = next_segment++;
      installed.push_back(slot);
    } else if (kind < 5 && !installed.empty()) {
      // Remove a random installed segment.
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(installed.size()) - 1));
      const std::size_t slot = installed[pick];
      ASSERT_TRUE(rmst.remove(SegmentId{slot_segment[slot]}));
      slot_segment[slot] = 0;
      installed.erase(installed.begin() + static_cast<std::ptrdiff_t>(pick));
    } else {
      // Look up: half targeted at an installed slot, half anywhere.
      std::uint64_t addr;
      if (!installed.empty() && rng.uniform_int(0, 1) == 0) {
        const auto pick = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(installed.size()) - 1));
        addr = slots[installed[pick]] +
               static_cast<std::uint64_t>(rng.uniform_int(0, (1 << 20) + 16));
      } else {
        addr = static_cast<std::uint64_t>(rng.uniform_int(0, 48)) << 20;
        addr += static_cast<std::uint64_t>(rng.uniform_int(0, (1 << 20) - 1));
      }
      probe(addr);
    }
  }
  // Final sweep: every slot boundary and interior point agrees.
  for (std::size_t s = 0; s < slots.size(); ++s) {
    probe(slots[s]);
    probe(slots[s] + 1);
    probe(slots[s] + ((1ull << 20) - 1));
  }
  probe(UINT64_MAX);
  EXPECT_NO_THROW(rmst.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmstEquivalenceTest,
                         ::testing::Values(7u, 11u, 23u, 42u, 1234u, 99991u));

}  // namespace
}  // namespace dredbox::hw
