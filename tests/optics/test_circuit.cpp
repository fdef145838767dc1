#include "optics/circuit.hpp"

#include <gtest/gtest.h>

namespace dredbox::optics {
namespace {

CircuitRequest make_request(std::size_t hops = 1) {
  CircuitRequest req;
  req.a = CircuitEndpoint{hw::BrickId{1}, hw::PortId{0}, -3.7, 1.2};
  req.b = CircuitEndpoint{hw::BrickId{2}, hw::PortId{0}, -3.7, 1.2};
  req.hops = hops;
  req.fiber_length_m = 20.0;
  return req;
}

TEST(CircuitManagerTest, EstablishConsumesSwitchPorts) {
  OpticalSwitch sw;
  sim::Telemetry telemetry;
  CircuitManager mgr{sw, telemetry};
  auto c = mgr.establish(make_request(1));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(sw.ports_in_use(), 2u);
  EXPECT_EQ(mgr.active_circuits(), 1u);
  EXPECT_EQ(c->switch_ports.size(), 2u);
}

TEST(CircuitManagerTest, MultiHopConsumesTwoPortsPerHop) {
  OpticalSwitch sw;
  sim::Telemetry telemetry;
  CircuitManager mgr{sw, telemetry};
  auto c = mgr.establish(make_request(8));
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(sw.ports_in_use(), 16u);
  EXPECT_EQ(c->hops, 8u);
}

TEST(CircuitManagerTest, TeardownReleasesPorts) {
  OpticalSwitch sw;
  sim::Telemetry telemetry;
  CircuitManager mgr{sw, telemetry};
  auto c = mgr.establish(make_request(4));
  ASSERT_TRUE(c);
  EXPECT_TRUE(mgr.teardown(c->id));
  EXPECT_EQ(sw.ports_in_use(), 0u);
  EXPECT_EQ(mgr.active_circuits(), 0u);
  EXPECT_FALSE(mgr.teardown(c->id));
  EXPECT_EQ(mgr.find(c->id), nullptr);
}

TEST(CircuitManagerTest, PortExhaustionReturnsNullopt) {
  OpticalSwitchConfig cfg;
  cfg.ports = 6;
  OpticalSwitch sw{cfg};
  sim::Telemetry telemetry;
  CircuitManager mgr{sw, telemetry};
  ASSERT_TRUE(mgr.establish(make_request(3)));  // uses all 6 ports
  EXPECT_FALSE(mgr.establish(make_request(1)).has_value());
}

TEST(CircuitManagerTest, ZeroHopRejected) {
  OpticalSwitch sw;
  sim::Telemetry telemetry;
  CircuitManager mgr{sw, telemetry};
  EXPECT_THROW(mgr.establish(make_request(0)), std::invalid_argument);
}

TEST(CircuitManagerTest, PropagationDelayFollowsFiberLength) {
  OpticalSwitch sw;
  sim::Telemetry telemetry;
  CircuitManager mgr{sw, telemetry};
  auto c = mgr.establish(make_request(1));
  ASSERT_TRUE(c);
  // 20 m at 5 ns/m = 100 ns one way.
  EXPECT_EQ(c->propagation_delay(), sim::Time::ns(100));
}

TEST(CircuitManagerTest, BudgetIncludesAllLossElements) {
  OpticalSwitch sw;
  sim::Telemetry telemetry;
  CircuitManager mgr{sw, telemetry};
  auto c = mgr.establish(make_request(8));
  ASSERT_TRUE(c);
  const LinkBudget lb = mgr.budget(*c, /*from_a=*/true);
  // launch -3.7, TX coupling 1.2, TX connector 0.3, 8 hops x 1.0, fibre
  // ~0.007, RX connector 0.3, RX coupling 1.2 => about -14.7 dBm.
  EXPECT_NEAR(lb.received_dbm(), -14.707, 0.01);
  // Both directions are symmetric for symmetric endpoints.
  const LinkBudget back = mgr.budget(*c, /*from_a=*/false);
  EXPECT_NEAR(back.received_dbm(), lb.received_dbm(), 1e-9);
}

TEST(CircuitManagerTest, BudgetUsesPerEndpointLaunchPower) {
  OpticalSwitch sw;
  sim::Telemetry telemetry;
  CircuitManager mgr{sw, telemetry};
  auto req = make_request(1);
  req.a.launch_dbm = -2.0;
  req.b.launch_dbm = -5.0;
  auto c = mgr.establish(req);
  ASSERT_TRUE(c);
  const double a_to_b = mgr.budget(*c, true).received_dbm();
  const double b_to_a = mgr.budget(*c, false).received_dbm();
  EXPECT_NEAR(a_to_b - b_to_a, 3.0, 1e-9);
}

TEST(CircuitManagerTest, SetupTimeComesFromSwitchConfig) {
  OpticalSwitchConfig cfg;
  cfg.reconfiguration_time = sim::Time::ms(10);
  OpticalSwitch sw{cfg};
  sim::Telemetry telemetry;
  CircuitManager mgr{sw, telemetry};
  EXPECT_EQ(mgr.setup_time(), sim::Time::ms(10));
}

TEST(CircuitManagerTest, IndependentCircuitsCoexist) {
  OpticalSwitch sw;
  sim::Telemetry telemetry;
  CircuitManager mgr{sw, telemetry};
  auto c1 = mgr.establish(make_request(2));
  auto c2 = mgr.establish(make_request(2));
  ASSERT_TRUE(c1 && c2);
  EXPECT_NE(c1->id, c2->id);
  EXPECT_EQ(sw.ports_in_use(), 8u);
  mgr.teardown(c1->id);
  EXPECT_NE(mgr.find(c2->id), nullptr);
  EXPECT_EQ(sw.ports_in_use(), 4u);
}

}  // namespace
}  // namespace dredbox::optics
