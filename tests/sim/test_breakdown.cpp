#include "sim/breakdown.hpp"

#include <gtest/gtest.h>

#include "sim/contract.hpp"

namespace dredbox::sim {
namespace {

TEST(BreakdownTest, EmptyTotalIsZero) {
  Breakdown b;
  EXPECT_EQ(b.total(), Time::zero());
  EXPECT_TRUE(b.components().empty());
}

TEST(BreakdownTest, ChargeAccumulatesPerComponent) {
  Breakdown b;
  b.charge("mac", Time::ns(100));
  b.charge("phy", Time::ns(50));
  b.charge("mac", Time::ns(25));
  EXPECT_EQ(b.of("mac"), Time::ns(125));
  EXPECT_EQ(b.of("phy"), Time::ns(50));
  EXPECT_EQ(b.total(), Time::ns(175));
  EXPECT_EQ(b.components().size(), 2u);
}

TEST(BreakdownTest, PreservesFirstAppearanceOrder) {
  Breakdown b;
  b.charge("z-late", Time::ns(1));
  b.charge("a-early", Time::ns(1));
  b.charge("z-late", Time::ns(1));
  EXPECT_EQ(b.components()[0].first, "z-late");
  EXPECT_EQ(b.components()[1].first, "a-early");
}

TEST(BreakdownTest, MissingComponentIsZero) {
  Breakdown b;
  EXPECT_EQ(b.of("nothing"), Time::zero());
  EXPECT_FALSE(b.has("nothing"));
}

TEST(BreakdownTest, MergeAddsComponentwise) {
  Breakdown a, b;
  a.charge("x", Time::ns(10));
  b.charge("x", Time::ns(5));
  b.charge("y", Time::ns(7));
  a.merge(b);
  EXPECT_EQ(a.of("x"), Time::ns(15));
  EXPECT_EQ(a.of("y"), Time::ns(7));
  EXPECT_EQ(a.total(), Time::ns(22));
}

TEST(BreakdownTest, ScaleAllAverages) {
  Breakdown b;
  b.charge("x", Time::ns(100));
  b.charge("y", Time::ns(300));
  b.scale_all(0.25);
  EXPECT_EQ(b.of("x"), Time::ns(25));
  EXPECT_EQ(b.of("y"), Time::ns(75));
}

TEST(BreakdownTest, ToStringContainsComponentsAndTotal) {
  Breakdown b;
  b.charge("glue logic", Time::ns(40));
  b.charge("memory access", Time::ns(60));
  const std::string out = b.to_string();
  EXPECT_NE(out.find("glue logic"), std::string::npos);
  EXPECT_NE(out.find("memory access"), std::string::npos);
  EXPECT_NE(out.find("TOTAL"), std::string::npos);
  EXPECT_NE(out.find("100 ns"), std::string::npos);  // auto-unit total
}

TEST(BreakdownTest, ZeroChargeComponentAppears) {
  Breakdown b;
  b.charge("queueing", Time::zero());
  EXPECT_TRUE(b.has("queueing"));
  EXPECT_EQ(b.total(), Time::zero());
}

TEST(BreakdownTest, AppendKeepsFirstAppearanceOrder) {
  Breakdown b;
  b.append(component_id("mac"), Time::ns(10));
  b.append(component_id("phy"), Time::ns(5));
  b.charge(component_id("mac"), Time::ns(1));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.components()[0].first, "mac");
  EXPECT_EQ(b.components()[1].first, "phy");
  EXPECT_EQ(b.of("mac"), Time::ns(11));
#if DREDBOX_AUDIT_ENABLED
  EXPECT_THROW(b.append(component_id("phy"), Time::ns(1)), ContractViolation);
#endif
}

}  // namespace
}  // namespace dredbox::sim
