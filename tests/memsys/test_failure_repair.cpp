#include <gtest/gtest.h>

#include "memsys/remote_memory.hpp"

namespace dredbox::memsys {
namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;

class FailureRepairTest : public ::testing::Test {
 protected:
  FailureRepairTest() : circuits_{switch_, telemetry_}, fabric_{rack_, circuits_, telemetry_} {
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    compute_ = rack_.add_compute_brick(tray_a).id();
    membrick_ = rack_.add_memory_brick(tray_b).id();
  }

  Attachment attach(std::uint64_t bytes = kGiB) {
    AttachRequest req;
    req.compute = compute_;
    req.membrick = membrick_;
    req.bytes = bytes;
    auto a = fabric_.attach(req, Time::zero());
    EXPECT_TRUE(a.has_value());
    return *a;
  }

  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  RemoteMemoryFabric fabric_;
  hw::BrickId compute_;
  hw::BrickId membrick_;
};

TEST_F(FailureRepairTest, FailedCircuitSurfacesInTransactions) {
  const auto a = attach();
  ASSERT_TRUE(fabric_.fail_circuit(a.circuit));
  const Transaction tx = fabric_.read(compute_, a.compute_base, 64, Time::sec(1));
  EXPECT_FALSE(tx.ok());
  EXPECT_EQ(tx.status, TransactionStatus::kCircuitDown);
  // The fault released the switch cross-connects and the transceivers.
  EXPECT_EQ(switch_.ports_in_use(), 0u);
  EXPECT_EQ(rack_.brick(compute_).free_port_count(true), 8u);
}

TEST_F(FailureRepairTest, FailUnknownCircuitReturnsFalse) {
  EXPECT_FALSE(fabric_.fail_circuit(hw::CircuitId{999}));
}

TEST_F(FailureRepairTest, RepairRestoresService) {
  const auto a = attach();
  fabric_.fail_circuit(a.circuit);
  const auto healed = fabric_.repair(compute_, a.segment, Time::sec(2));
  ASSERT_TRUE(healed.has_value());
  EXPECT_NE(healed->circuit, a.circuit);  // fresh circuit
  EXPECT_EQ(switch_.ports_in_use(), 2u);
  const Transaction tx = fabric_.read(compute_, a.compute_base, 64, Time::sec(3));
  EXPECT_TRUE(tx.ok());
  // The segment and window survived the fault: same address still maps.
  EXPECT_EQ(tx.destination, membrick_);
}

TEST_F(FailureRepairTest, RepairHealsAllSharersOfTheCircuit) {
  const auto a1 = attach();
  const auto a2 = attach();
  ASSERT_EQ(a1.circuit, a2.circuit);
  fabric_.fail_circuit(a1.circuit);
  ASSERT_TRUE(fabric_.repair(compute_, a1.segment, Time::sec(2)));
  // Both attachments work again over the replacement circuit.
  EXPECT_TRUE(fabric_.read(compute_, a1.compute_base, 64, Time::sec(3)).ok());
  EXPECT_TRUE(fabric_.read(compute_, a2.compute_base, 64, Time::sec(4)).ok());
  EXPECT_EQ(switch_.ports_in_use(), 2u);  // one shared replacement
}

TEST_F(FailureRepairTest, RepairOnHealthyAttachmentIsNoop) {
  const auto a = attach();
  const auto same = fabric_.repair(compute_, a.segment, Time::sec(1));
  ASSERT_TRUE(same.has_value());
  EXPECT_EQ(same->circuit, a.circuit);
  EXPECT_EQ(switch_.ports_in_use(), 2u);
}

TEST_F(FailureRepairTest, RepairUnknownSegmentFails) {
  EXPECT_FALSE(fabric_.repair(compute_, hw::SegmentId{12345}, Time::sec(1)).has_value());
}

TEST_F(FailureRepairTest, RepairFailsWhenSwitchExhausted) {
  const auto a = attach();
  fabric_.fail_circuit(a.circuit);
  // Burn every switch port with unrelated cross-connects.
  for (std::size_t p = 0; p < switch_.port_count(); p += 2) switch_.connect(p, p + 1);
  EXPECT_FALSE(fabric_.repair(compute_, a.segment, Time::sec(2)).has_value());
  EXPECT_EQ(fabric_.last_error(), AttachError::kNoSwitchPorts);
}

TEST_F(FailureRepairTest, BondedLinkFailsAsAWhole) {
  AttachRequest req;
  req.compute = compute_;
  req.membrick = membrick_;
  req.lanes = 3;
  auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);
  ASSERT_EQ(switch_.ports_in_use(), 6u);
  ASSERT_TRUE(fabric_.fail_circuit(a->circuit));
  EXPECT_EQ(switch_.ports_in_use(), 0u);  // every lane dropped
  EXPECT_FALSE(fabric_.read(compute_, a->compute_base, 64, Time::sec(1)).ok());
  // Repair rebuilds the exact pre-failure link: all three bonded lanes.
  const auto healed = fabric_.repair(compute_, a->segment, Time::sec(2));
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->lanes, 3u);
  EXPECT_EQ(switch_.ports_in_use(), 6u);
  EXPECT_TRUE(fabric_.read(compute_, a->compute_base, 64, Time::sec(3)).ok());
}

TEST_F(FailureRepairTest, RepairRestoresExactWindowAndLinkParameters) {
  AttachRequest req;
  req.compute = compute_;
  req.membrick = membrick_;
  req.bytes = kGiB;
  req.switch_hops = 3;
  req.fiber_length_m = 42.0;
  const auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);
  fabric_.fail_circuit(a->circuit);
  const auto healed = fabric_.repair(compute_, a->segment, Time::sec(2));
  ASSERT_TRUE(healed.has_value());
  // The RMST window is byte-identical and the link parameters of the
  // original provisioning (hop count, fibre run) are carried over.
  EXPECT_EQ(healed->compute_base, a->compute_base);
  EXPECT_EQ(healed->size, a->size);
  EXPECT_EQ(healed->switch_hops, 3u);
  EXPECT_DOUBLE_EQ(healed->fiber_length_m, 42.0);
  const optics::Circuit* circuit = circuits_.find(healed->circuit);
  ASSERT_NE(circuit, nullptr);
  EXPECT_EQ(circuit->hops, 3u);
  EXPECT_DOUBLE_EQ(circuit->fiber_length_m, 42.0);
}

TEST_F(FailureRepairTest, RepairDegradesBondGracefullyUnderPortScarcity) {
  AttachRequest req;
  req.compute = compute_;
  req.membrick = membrick_;
  req.lanes = 3;
  const auto a = fabric_.attach(req, Time::zero());
  ASSERT_TRUE(a);
  fabric_.fail_circuit(a->circuit);
  // Leave only two free switch ports: a full 3-lane rebuild is impossible,
  // but repair still restores service on the lanes it can wire.
  for (std::size_t p = 0; p < switch_.port_count() - 2; p += 2) switch_.connect(p, p + 1);
  const auto healed = fabric_.repair(compute_, a->segment, Time::sec(2));
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(healed->lanes, 1u);
  EXPECT_TRUE(fabric_.read(compute_, a->compute_base, 64, Time::sec(3)).ok());
}

TEST_F(FailureRepairTest, DetachAfterFailureStillCleansUp) {
  const auto a = attach();
  fabric_.fail_circuit(a.circuit);
  EXPECT_TRUE(fabric_.detach(compute_, a.segment));
  EXPECT_EQ(fabric_.attachment_count(), 0u);
  EXPECT_EQ(rack_.memory_brick(membrick_).allocated_bytes(), 0u);
  EXPECT_EQ(switch_.ports_in_use(), 0u);
}

// Regression for the stale-field sweep (ISSUE 9 satellite): the retry
// loop builds every attempt as a FRESH transaction and merges into an
// accumulator, so a retried op must charge per-attempt components exactly
// once per attempt — never twice for the same attempt (the double-charge
// a pooled transaction reused without clearing would produce).
TEST_F(FailureRepairTest, RetriedTransactionBreakdownIsNotDoubleCharged) {
  const auto a = attach();
  sim::RetryPolicy policy;  // defaults: 4 attempts, 10 us initial backoff
  fabric_.set_retry_policy(policy);

  // Healthy single-attempt reference for the per-attempt charges.
  const Transaction healthy = fabric_.read(compute_, a.compute_base, 64, Time::sec(1));
  ASSERT_TRUE(healthy.ok());
  const Time lookup_per_attempt = healthy.breakdown.of(sim::component("TGL lookup (RMST)"));
  ASSERT_GT(lookup_per_attempt, Time::zero());

  // Cut the circuit: the next read pays attempt 1 (circuit-down, charges
  // only the TGL lookup), one backoff, one re-provision, then attempt 2
  // succeeds over the replacement circuit.
  ASSERT_TRUE(fabric_.fail_circuit(a.circuit));
  const Transaction tx = fabric_.read(compute_, a.compute_base, 64, Time::sec(2));
  ASSERT_TRUE(tx.ok());
  EXPECT_EQ(tx.retries, 1u);

  // Per-attempt component: exactly twice the single-attempt charge (one
  // failed + one successful attempt), not 3x or 4x.
  EXPECT_EQ(tx.breakdown.of(sim::component("TGL lookup (RMST)")),
            lookup_per_attempt + lookup_per_attempt);
  // Recovery components: charged exactly once each.
  EXPECT_EQ(tx.breakdown.of(sim::component("retry backoff")), policy.initial_backoff);
  EXPECT_EQ(tx.breakdown.of(sim::component("circuit re-provision")), circuits_.setup_time());
  // Components charged only by the successful attempt appear once.
  constexpr sim::ComponentId kSerialization = sim::component("serialization");
  EXPECT_EQ(tx.breakdown.of(kSerialization), healthy.breakdown.of(kSerialization));

  // Timestamps re-stamped for the whole retried span: issue at the
  // original issue time, completion at or after the last attempt, so
  // round_trip() covers backoff + re-provision + both attempts.
  EXPECT_EQ(tx.issued_at, Time::sec(2));
  EXPECT_GE(tx.completed_at, tx.issued_at + policy.initial_backoff + circuits_.setup_time());
  EXPECT_EQ(tx.round_trip(), tx.completed_at - tx.issued_at);
}

// ISSUE 9 satellite bugfix: asking a never-completed transaction for its
// round trip used to underflow Time (completed_at default-initialized
// before issued_at). It now returns zero — and trips DREDBOX_REQUIRE in
// -DDREDBOX_AUDIT=ON builds so reducers averaging it in are caught.
TEST(TransactionGuards, NeverCompletedRoundTripIsZeroNotUnderflow) {
  Transaction tx;
  tx.issued_at = Time::sec(1);  // completed_at still default (before issued_at)
#if DREDBOX_AUDIT_ENABLED
  EXPECT_THROW(tx.round_trip(), sim::ContractViolation);
#else
  EXPECT_EQ(tx.round_trip(), Time::zero());
  EXPECT_GE(tx.round_trip(), Time::zero()) << "round_trip must never go negative";
#endif
}

// Failed transactions are NOT "never completed": every failure path stamps
// completed_at with the failure time, so their round trip is a real
// duration and must stay exact (the determinism digest folds it in).
TEST_F(FailureRepairTest, FailedTransactionsStillHaveARealRoundTrip) {
  const auto a = attach();
  ASSERT_TRUE(fabric_.fail_circuit(a.circuit));
  const Transaction tx = fabric_.read(compute_, a.compute_base, 64, Time::sec(1));
  ASSERT_FALSE(tx.ok());
  EXPECT_GE(tx.completed_at, tx.issued_at);
  EXPECT_EQ(tx.round_trip(), tx.completed_at - tx.issued_at);
  EXPECT_GT(tx.round_trip(), Time::zero()) << "the TGL lookup took real time";
}

}  // namespace
}  // namespace dredbox::memsys
