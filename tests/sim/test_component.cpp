// Tests for the compile-time breakdown vocabulary (sim/component.hpp) and
// the Breakdown behaviours that ride on it: ids pinned to table positions,
// label round-trips for the shipped vocabulary, clear() for pooled reuse,
// and the fixed-capacity overflow invariant. A misspelt label is a compile
// error, checked by the component_label.* ctests.

#include "sim/component.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/breakdown.hpp"
#include "sim/contract.hpp"

namespace dredbox::sim {
namespace {

TEST(ComponentRegistryTest, InterningIsIdempotent) {
  constexpr ComponentId a = component("TGL lookup (RMST)");
  constexpr ComponentId b = component("TGL lookup (RMST)");
  EXPECT_EQ(a, b);
  EXPECT_EQ(component_label(a), "TGL lookup (RMST)");
}

TEST(ComponentRegistryTest, ShippedVocabularyIsPreInterned) {
  // A representative label from each charging subsystem round-trips
  // through its id.
  for (const char* label : {"serialization", "optical propagation",
                            "electrical propagation", "memory access",
                            "TGL lookup (RMST)", "retry backoff",
                            "circuit re-provision", "switch programming",
                            "pre-copy (local memory)"}) {
    bool found = false;
    for (ComponentId id = 0; id < kComponentCount; ++id) {
      if (component_label(id) == label) found = true;
    }
    EXPECT_TRUE(found) << label << " is not in kComponentLabels";
  }
}

TEST(ComponentRegistryTest, LabelIdsArePinned) {
  // Ids are table positions; a reorder of kComponentLabels moves them.
  EXPECT_EQ(component("TGL / NI injection"), 0u);
  EXPECT_EQ(component("SDM-C queueing"), 21u);
  EXPECT_EQ(component("balloon reclaim (donor)"), 47u);
  EXPECT_THROW(component_label(static_cast<ComponentId>(kComponentCount)), ContractViolation);
}

TEST(BreakdownInterningTest, ClearResetsForPooledReuse) {
  constexpr ComponentId kSerialization = component("serialization");
  constexpr ComponentId kMemoryAccess = component("memory access");
  Breakdown breakdown;
  breakdown.charge(kSerialization, Time::ns(10));
  breakdown.charge(kMemoryAccess, Time::ns(20));
  ASSERT_EQ(breakdown.size(), 2u);
  breakdown.clear();
  EXPECT_TRUE(breakdown.empty());
  EXPECT_EQ(breakdown.total(), Time::zero());
  EXPECT_EQ(breakdown.of(kSerialization), Time::zero());
  // Reuse after clear starts a fresh first-appearance order.
  breakdown.charge(kMemoryAccess, Time::ns(7));
  ASSERT_EQ(breakdown.size(), 1u);
  EXPECT_EQ(breakdown.components()[0].first, "memory access");
}

TEST(BreakdownInterningTest, OverflowPastFixedCapacityTrips) {
  static_assert(kComponentCount > Breakdown::kMaxComponents,
                "the overflow case needs one more label than a Breakdown holds");
  Breakdown breakdown;
  for (ComponentId id = 0; id < Breakdown::kMaxComponents; ++id) {
    breakdown.charge(id, Time::ns(1));
  }
  EXPECT_EQ(breakdown.size(), Breakdown::kMaxComponents);
  // Re-charging an existing component still works at capacity...
  breakdown.charge(0, Time::ns(1));
  EXPECT_EQ(breakdown.of(0), Time::ns(2));
  // ...but a 25th distinct component is an invariant violation, not a
  // reallocation: per-op components are a small fixed vocabulary.
  EXPECT_THROW(breakdown.charge(static_cast<ComponentId>(Breakdown::kMaxComponents), Time::ns(1)),
               ContractViolation);
}

TEST(BreakdownInterningTest, ComponentsViewsPointAtRegistryStorage) {
  std::string_view serialization_view;
  {
    Breakdown breakdown;
    breakdown.charge(component("serialization"), Time::ns(3));
    serialization_view = breakdown.components()[0].first;
  }  // breakdown destroyed; the view must remain valid (static table)
  EXPECT_EQ(serialization_view, "serialization");
  EXPECT_EQ(serialization_view.data(), component_label(component("serialization")).data());
}

}  // namespace
}  // namespace dredbox::sim
