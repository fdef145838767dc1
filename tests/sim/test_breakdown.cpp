#include "sim/breakdown.hpp"

#include <gtest/gtest.h>

#include "sim/contract.hpp"

namespace dredbox::sim {
namespace {

constexpr ComponentId kMacPhyCompute = component("MAC/PHY (dCOMPUBRICK)");
constexpr ComponentId kMacPhyMem = component("MAC/PHY (dMEMBRICK)");
constexpr ComponentId kSerialization = component("serialization");
constexpr ComponentId kOpticalProp = component("optical propagation");

TEST(BreakdownTest, EmptyTotalIsZero) {
  Breakdown b;
  EXPECT_EQ(b.total(), Time::zero());
  EXPECT_TRUE(b.components().empty());
}

TEST(BreakdownTest, ChargeAccumulatesPerComponent) {
  Breakdown b;
  b.charge(kMacPhyCompute, Time::ns(100));
  b.charge(kMacPhyMem, Time::ns(50));
  b.charge(kMacPhyCompute, Time::ns(25));
  EXPECT_EQ(b.of(kMacPhyCompute), Time::ns(125));
  EXPECT_EQ(b.of(kMacPhyMem), Time::ns(50));
  EXPECT_EQ(b.total(), Time::ns(175));
  EXPECT_EQ(b.components().size(), 2u);
}

TEST(BreakdownTest, PreservesFirstAppearanceOrder) {
  Breakdown b;
  // Charged in the reverse of id order: the report follows the charges.
  b.charge(component("memory access"), Time::ns(1));
  b.charge(component("TGL / NI injection"), Time::ns(1));
  b.charge(component("memory access"), Time::ns(1));
  EXPECT_EQ(b.components()[0].first, "memory access");
  EXPECT_EQ(b.components()[1].first, "TGL / NI injection");
}

TEST(BreakdownTest, MissingComponentIsZero) {
  Breakdown b;
  EXPECT_EQ(b.of(component("circuit wait")), Time::zero());
  EXPECT_FALSE(b.has(component("circuit wait")));
}

TEST(BreakdownTest, MergeAddsComponentwise) {
  Breakdown a, b;
  a.charge(kSerialization, Time::ns(10));
  b.charge(kSerialization, Time::ns(5));
  b.charge(kOpticalProp, Time::ns(7));
  a.merge(b);
  EXPECT_EQ(a.of(kSerialization), Time::ns(15));
  EXPECT_EQ(a.of(kOpticalProp), Time::ns(7));
  EXPECT_EQ(a.total(), Time::ns(22));
}

TEST(BreakdownTest, ScaleAllAverages) {
  Breakdown b;
  b.charge(kSerialization, Time::ns(100));
  b.charge(kOpticalProp, Time::ns(300));
  b.scale_all(0.25);
  EXPECT_EQ(b.of(kSerialization), Time::ns(25));
  EXPECT_EQ(b.of(kOpticalProp), Time::ns(75));
}

TEST(BreakdownTest, ToStringContainsComponentsAndTotal) {
  Breakdown b;
  b.charge(component("glue logic (dMEMBRICK)"), Time::ns(40));
  b.charge(component("memory access"), Time::ns(60));
  const std::string out = b.to_string();
  EXPECT_NE(out.find("glue logic (dMEMBRICK)"), std::string::npos);
  EXPECT_NE(out.find("memory access"), std::string::npos);
  EXPECT_NE(out.find("TOTAL"), std::string::npos);
  EXPECT_NE(out.find("100 ns"), std::string::npos);  // auto-unit total
}

TEST(BreakdownTest, ZeroChargeComponentAppears) {
  Breakdown b;
  b.charge(component("SDM-C queueing"), Time::zero());
  EXPECT_TRUE(b.has(component("SDM-C queueing")));
  EXPECT_EQ(b.total(), Time::zero());
}

TEST(BreakdownTest, AppendKeepsFirstAppearanceOrder) {
  Breakdown b;
  b.append(kMacPhyCompute, Time::ns(10));
  b.append(kMacPhyMem, Time::ns(5));
  b.charge(kMacPhyCompute, Time::ns(1));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.components()[0].first, "MAC/PHY (dCOMPUBRICK)");
  EXPECT_EQ(b.components()[1].first, "MAC/PHY (dMEMBRICK)");
  EXPECT_EQ(b.of(kMacPhyCompute), Time::ns(11));
#if DREDBOX_AUDIT_ENABLED
  EXPECT_THROW(b.append(kMacPhyMem, Time::ns(1)), ContractViolation);
#endif
}

}  // namespace
}  // namespace dredbox::sim
