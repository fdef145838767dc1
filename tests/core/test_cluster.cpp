#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/contract.hpp"
#include "sim/time.hpp"

namespace dredbox::core {

/// Befriended by Cluster: delivers a spine reply for an explicit pending
/// handle, the way a duplicated or late reply message would.
struct ClusterTestAccess {
  static void deliver_reply(Cluster& cluster, std::uint32_t src, std::uint32_t slot,
                            std::uint32_t generation, bool ok) {
    cluster.complete(src, Cluster::PendingHandle{slot, generation}, ok);
  }
};

namespace {

bool mentions(const std::vector<std::string>& errors, const std::string& field) {
  return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
    return e.find(field) != std::string::npos;
  });
}

DatacenterConfig cluster_config(std::size_t racks) {
  DatacenterConfig config;
  config.racks.assign(racks, RackSpec{1, 2, 2, 0});
  return config;
}

TEST(ClusterConfigTest, ValidConfigHasNoErrors) {
  EXPECT_TRUE(cluster_config(2).validate().empty());
}

TEST(ClusterConfigTest, ErrorsNameDottedFields) {
  DatacenterConfig config = cluster_config(2);
  config.racks[0].trays = 0;
  config.racks[1].memory_bricks_per_tray = 0;
  config.spine.propagation = sim::Time::zero();
  config.spine.cross_share = 1.5;
  config.spine.faults.add({sim::Time::ms(1), sim::FaultKind::kSpineLinkDown, 7, 0, 0.0,
                          sim::Time::ms(1)});
  config.spine.faults.add({sim::Time::ms(1), sim::FaultKind::kLinkFlap, 0, 0, 0.0,
                          sim::Time::ms(1)});
  config.partitions = 0;
  const auto errors = config.validate();
  EXPECT_TRUE(mentions(errors, "racks[0].trays"));
  EXPECT_TRUE(mentions(errors, "racks[1].memory_bricks_per_tray"));
  EXPECT_TRUE(mentions(errors, "spine.propagation"));
  EXPECT_TRUE(mentions(errors, "spine.cross_share"));
  EXPECT_TRUE(mentions(errors, "spine.faults[0].target"));
  EXPECT_FALSE(mentions(errors, "spine.faults[0].kind"));
  EXPECT_TRUE(mentions(errors, "spine.faults[1].kind"));
  EXPECT_TRUE(mentions(errors, "partitions"));
}

TEST(ClusterConfigTest, SpineRadixMustCoverTheRacks) {
  DatacenterConfig config = cluster_config(4);
  config.spine.ports = 2;
  EXPECT_TRUE(mentions(config.validate(), "spine.ports"));
}

TEST(ClusterConfigTest, MultiRackFieldsLeaveSingleRackDigestAlone) {
  // The new spine/partitions knobs are inert while `racks` is empty: a
  // pre-existing single-rack config folds to the same digest it always
  // did, so every pinned example digest survives the API extension.
  const DatacenterConfig base;
  DatacenterConfig tweaked;
  tweaked.spine.propagation = sim::Time::us(3);
  tweaked.spine.cross_share = 0.5;
  tweaked.partitions = 8;
  EXPECT_EQ(base.digest(), tweaked.digest());

  DatacenterConfig cluster = cluster_config(2);
  DatacenterConfig cluster_tweaked = cluster_config(2);
  cluster_tweaked.spine.propagation = sim::Time::us(3);
  EXPECT_NE(cluster.digest(), cluster_tweaked.digest());
}

TEST(ClusterConfigTest, ConstructorRejectsInvalidConfigs) {
  DatacenterConfig config = cluster_config(2);
  config.spine.propagation = sim::Time::zero();
  // validate()'s dotted-field list comes first, ahead of any member's
  // own complaint about the same value.
  try {
    Cluster cluster{config};
    ADD_FAILURE() << "a zero spine propagation must be rejected";
  } catch (const std::invalid_argument& e) {
    // Every finding is one "- " bullet under the header, as for every
    // other config gate.
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("invalid cluster config:\n  - ", 0), 0u) << what;
    EXPECT_NE(what.find("\n  - spine.propagation"), std::string::npos) << what;
  }
}

TEST(ClusterBuilderTest, BuilderAssemblesAMultiRackScenario) {
  Scenario scenario = ScenarioBuilder{}
                          .add_racks(3, RackSpec{1, 2, 2, 0})
                          .cross_rack_share(0.25)
                          .partitions(2)
                          .spine_fault(1, sim::Time::ms(1), sim::Time::ms(2))
                          .build();
  ASSERT_TRUE(scenario.is_cluster());
  Cluster& cluster = scenario.cluster();
  EXPECT_EQ(cluster.size(), 3u);
  EXPECT_EQ(cluster.config().partitions, 2u);
  EXPECT_DOUBLE_EQ(cluster.config().spine.cross_share, 0.25);
  ASSERT_EQ(cluster.config().spine.faults.size(), 1u);
  EXPECT_EQ(cluster.config().spine.faults.events()[0].kind, sim::FaultKind::kSpineLinkDown);
  EXPECT_EQ(cluster.config().spine.faults.events()[0].target, 1u);
  EXPECT_GT(cluster.power_draw_watts(), 0.0);

  // A header line, the spine line, then one line per rack.
  std::istringstream text{cluster.describe()};
  std::vector<std::string> lines;
  for (std::string line; std::getline(text, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2 + cluster.size()) << cluster.describe();
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    const std::string prefix = "rack " + std::to_string(r) + ":";
    EXPECT_EQ(lines[2 + r].rfind(prefix, 0), 0u) << lines[2 + r];
  }
}

TEST(ClusterBuilderTest, SingleRackScenariosStaySingleRack) {
  Scenario scenario = ScenarioBuilder{}.build();
  EXPECT_FALSE(scenario.is_cluster());
  // datacenter() is the single-rack accessor and still works untouched;
  // wiring leaves the clock parked at zero exactly as it always has.
  EXPECT_EQ(scenario.datacenter().simulator().now(), sim::Time::zero());
  EXPECT_GT(scenario.datacenter().power_draw_watts(), 0.0);
}

TEST(ClusterBuilderTest, SpineSetterPreservesDeclaredFaults) {
  ScenarioBuilder builder;
  builder.add_racks(2, RackSpec{1, 2, 2, 0})
      .cross_rack_share(0.25)
      .spine_fault(0, sim::Time::ms(1), sim::Time::ms(1));
  SpineSpec spec;
  spec.propagation = sim::Time::us(1);
  builder.spine(spec);
  Scenario scenario = builder.build();
  EXPECT_EQ(scenario.cluster().config().spine.propagation, sim::Time::us(1));
  EXPECT_EQ(scenario.cluster().config().spine.faults.size(), 1u);
  // The spec leaves the share at 0, so the declared share survives...
  EXPECT_EQ(scenario.cluster().config().spine.cross_share, 0.25);

  // ...while a spec that carries its own share replaces it.
  ScenarioBuilder own;
  own.add_racks(2, RackSpec{1, 2, 2, 0}).cross_rack_share(0.25);
  spec.cross_share = 0.5;
  own.spine(spec);
  EXPECT_EQ(own.config().spine.cross_share, 0.5);
}

TEST(ClusterBuilderTest, PlanSpineFaultOnAMissingRackIsRejected) {
  ScenarioBuilder builder;
  builder.add_racks(2, RackSpec{1, 2, 2, 0})
      .fault_plan("link-flap@1ms+1ms;spine-down@1ms+1ms:target=2");
  try {
    builder.build();
    FAIL() << "a spine-down event on rack 2 of 2 must not build";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("fault_plan[1].target"), std::string::npos)
        << e.what();
  }
}

TEST(ClusterBuilderTest, SingleRackSkipsSpineDownEvents) {
  // A lone rack has no spine, so no handler for the kind: the injector
  // counts the event as skipped instead of losing it.
  Scenario scenario = ScenarioBuilder{}.fault_plan("spine-down@1ms+1ms").build();
  scenario.run_fault_plan();
  EXPECT_EQ(scenario->faults().skipped(), 1u);
  EXPECT_EQ(scenario->faults().injected(), 0u);
}

/// Aligns every rack to the latest rack clock, the way the cluster
/// workload engine does before its window, and returns that instant.
sim::Time align_racks(Cluster& cluster) {
  sim::Time t0 = sim::Time::zero();
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    t0 = std::max(t0, cluster.rack(r).simulator().now());
  }
  for (std::size_t r = 0; r < cluster.size(); ++r) cluster.rack(r).advance_to(t0);
  return t0;
}

/// Builds a 2-rack cluster aligned to a common start, so raw port traffic
/// can flow.
struct TwoRacks {
  explicit TwoRacks(const SpineSpec& spine = {})
      : scenario{make(spine)}, cluster{scenario.cluster()}, start{align_racks(cluster)} {}
  static Scenario make(const SpineSpec& spine) {
    return ScenarioBuilder{}.add_racks(2, RackSpec{1, 2, 2, 0}).spine(spine).build();
  }
  Scenario scenario;
  Cluster& cluster;
  sim::Time start;
};

TEST(ClusterTest, CrossReadRoundTripCrossesTheSpineTwice) {
  TwoRacks rig;
  CrossRackPort& port = rig.cluster.port(0);
  ASSERT_EQ(port.peer_count(), 1u);
  EXPECT_EQ(port.window_bytes(0), rig.cluster.config().spine.gateway_bytes);
  EXPECT_EQ(rig.cluster.gateway_window_bytes(1), rig.cluster.config().spine.gateway_bytes);

  std::vector<CrossCompletion> done;
  port.set_handler([&](const CrossCompletion& c) { done.push_back(c); });
  port.issue(0, 4096, 64, /*write=*/false, /*token=*/7, /*closed_loop=*/false);
  port.issue(0, 8192, 64, /*write=*/false, /*token=*/8, /*closed_loop=*/false);
  rig.cluster.advance_all(rig.start + sim::Time::ms(1), 2);

  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].ok);
  EXPECT_EQ(done[0].token, 7u);
  EXPECT_FALSE(done[0].write);
  // The completion reports the target-rack physical address: two issues
  // 4 KiB apart in the window land 4 KiB apart on the target's fabric.
  EXPECT_EQ(done[1].address - done[0].address, 4096u);
  // Request + reply each traverse the spine: the round trip can never
  // beat two propagation delays.
  EXPECT_GE(done[0].round_trip(), rig.cluster.config().spine.propagation * 2);

  const RackLinkStats src = rig.cluster.link_stats(0);
  const RackLinkStats dst = rig.cluster.link_stats(1);
  EXPECT_EQ(src.tx_messages, 2u);  // the requests
  EXPECT_EQ(dst.tx_messages, 2u);  // the replies
  EXPECT_EQ(dst.rx_messages, 2u);
  EXPECT_EQ(src.fail_fast, 0u);
  EXPECT_NE(rig.cluster.served_digest(1), 0u);
}

/// Round trip of one 64-byte cross-rack request from rack 0 over a spine
/// of `gbps` line rate.
sim::Time round_trip_at(double gbps, bool write) {
  SpineSpec spine;
  spine.bandwidth_gbps = gbps;
  TwoRacks rig{spine};
  std::vector<CrossCompletion> done;
  rig.cluster.port(0).set_handler([&](const CrossCompletion& c) { done.push_back(c); });
  rig.cluster.port(0).issue(0, 4096, 64, write, /*token=*/1, /*closed_loop=*/false);
  rig.cluster.advance_all(rig.start + sim::Time::ms(1), 1);
  EXPECT_EQ(done.size(), 1u);
  EXPECT_TRUE(!done.empty() && done[0].ok);
  return done.empty() ? sim::Time::zero() : done[0].round_trip();
}

TEST(ClusterTest, SpineSerializationChargesEveryByteOnTheWire) {
  // Either way 128 bytes cross the spine: two 32-byte headers plus the
  // 64-byte payload. Halving the line rate from 100 to 50 Gbps adds
  // 80 ps per byte: 128 * 80 = 10240 ps, the fabric service unchanged.
  for (bool write : {false, true}) {
    EXPECT_EQ(round_trip_at(50.0, write) - round_trip_at(100.0, write), sim::Time::ps(10240))
        << (write ? "write" : "read");
  }
}

TEST(ClusterTest, SpinePowerIsOneLitPortPerRack) {
  TwoRacks rig;
  const double racks = rig.cluster.rack(0).power_draw_watts() +
                       rig.cluster.rack(1).power_draw_watts();
  EXPECT_DOUBLE_EQ(rig.cluster.power_draw_watts(),
                   racks + 2 * rig.cluster.config().spine.per_port_power_w);
}

TEST(ClusterTest, DownLinkFailsFastAtTheSender) {
  // Rack 0 sends to rack 1 while an immediate 1 ms spine fault is down:
  // on the sender's own uplink, on the target's, and on the target's as a
  // builder-level fault plan (timed from build rather than from arming).
  ScenarioBuilder sender_down;
  sender_down.add_racks(2, RackSpec{1, 2, 2, 0})
      .spine_fault(0, sim::Time::zero(), sim::Time::ms(1));
  ScenarioBuilder target_down;
  target_down.add_racks(2, RackSpec{1, 2, 2, 0})
      .spine_fault(1, sim::Time::zero(), sim::Time::ms(1));
  ScenarioBuilder target_down_by_plan;
  target_down_by_plan.add_racks(2, RackSpec{1, 2, 2, 0})
      .fault_plan("spine-down@0ms+1ms:target=1");
  for (const ScenarioBuilder* builder : {&sender_down, &target_down, &target_down_by_plan}) {
    Scenario scenario = builder->build();
    Cluster& cluster = scenario.cluster();
    const sim::Time t0 = align_racks(cluster);
    cluster.arm_spine_faults(t0);
    cluster.advance_all(t0 + sim::Time::us(10), 1);  // the down event fires

    std::vector<CrossCompletion> done;
    cluster.port(0).set_handler([&](const CrossCompletion& c) { done.push_back(c); });
    cluster.port(0).issue(0, 0, 64, /*write=*/true, /*token=*/1, /*closed_loop=*/false);
    cluster.advance_all(t0 + sim::Time::us(20), 1);

    ASSERT_EQ(done.size(), 1u);
    EXPECT_FALSE(done[0].ok);
    EXPECT_EQ(cluster.link_stats(0).fail_fast, 1u);
    EXPECT_EQ(cluster.link_stats(1).rx_messages, 0u);

    // After the restore, the same port carries traffic again.
    cluster.advance_all(t0 + sim::Time::ms(2), 1);
    cluster.port(0).issue(0, 0, 64, /*write=*/true, /*token=*/2, /*closed_loop=*/false);
    cluster.advance_all(t0 + sim::Time::ms(3), 1);
    ASSERT_EQ(done.size(), 2u);
    EXPECT_TRUE(done[1].ok);
  }
}

TEST(ClusterTest, SpineFaultsArmExactlyOnce) {
  Scenario scenario = ScenarioBuilder{}
                          .add_racks(2, RackSpec{1, 2, 2, 0})
                          .spine_fault(0, sim::Time::ms(1), sim::Time::ms(1))
                          .build();
  Cluster& cluster = scenario.cluster();
  const sim::Time t0 = align_racks(cluster);
  EXPECT_FALSE(cluster.spine_faults_armed());
  cluster.arm_spine_faults(t0);
  EXPECT_TRUE(cluster.spine_faults_armed());
  EXPECT_THROW(cluster.arm_spine_faults(t0), std::logic_error);
}

TEST(ClusterTest, EachRackInjectsAndRecoversASpineFaultOnce) {
  Scenario scenario = ScenarioBuilder{}
                          .add_racks(3, RackSpec{1, 2, 2, 0})
                          .spine_fault(1, sim::Time::us(10), sim::Time::us(20))
                          .build();
  Cluster& cluster = scenario.cluster();
  const sim::Time t0 = align_racks(cluster);
  cluster.arm_spine_faults(t0);
  cluster.advance_all(t0 + sim::Time::ms(1), 1);
  for (std::size_t r = 0; r < cluster.size(); ++r) {
    const sim::FaultInjector& faults = cluster.rack(r).faults();
    EXPECT_EQ(faults.scheduled(), 1u) << "rack " << r;
    EXPECT_EQ(faults.injected(), 1u) << "rack " << r;
    EXPECT_EQ(faults.recovered(), 1u) << "rack " << r;
    EXPECT_EQ(faults.skipped(), 0u) << "rack " << r;
    EXPECT_NO_THROW(faults.check_invariants());
  }

  // Recovered: the faulted rack reaches both peers again.
  std::vector<CrossCompletion> done;
  cluster.port(1).set_handler([&](const CrossCompletion& c) { done.push_back(c); });
  cluster.port(1).issue(0, 0, 64, /*write=*/false, /*token=*/1, /*closed_loop=*/false);
  cluster.port(1).issue(1, 0, 64, /*write=*/false, /*token=*/2, /*closed_loop=*/false);
  cluster.advance_all(t0 + sim::Time::ms(2), 1);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].ok);
  EXPECT_TRUE(done[1].ok);
}

TEST(ClusterTest, DuplicatedReplyIsRefusedByGeneration) {
  TwoRacks rig;
  CrossRackPort& port = rig.cluster.port(0);
  std::vector<CrossCompletion> done;
  port.set_handler([&](const CrossCompletion& c) { done.push_back(c); });

  // The first request takes pending slot 0 at its first generation (1);
  // its reply retires the slot.
  port.issue(0, 4096, 64, /*write=*/false, /*token=*/1, /*closed_loop=*/false);
  rig.cluster.advance_all(rig.start + sim::Time::ms(1), 1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].token, 1u);

  // The second request reuses slot 0. Delivering the first reply again
  // must not complete it, nor put slot 0 on the free list a second time.
  port.issue(0, 8192, 64, /*write=*/false, /*token=*/2, /*closed_loop=*/false);
  EXPECT_THROW(ClusterTestAccess::deliver_reply(rig.cluster, 0, 0, 1, true),
               sim::ContractViolation);
  EXPECT_EQ(done.size(), 1u);
  rig.cluster.advance_all(rig.start + sim::Time::ms(2), 1);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1].token, 2u);
  EXPECT_TRUE(done[1].ok);

  // A repeat of the second reply, with its slot now free, is refused too.
  EXPECT_THROW(ClusterTestAccess::deliver_reply(rig.cluster, 0, 0, 2, true),
               sim::ContractViolation);

  // Slot 0 was freed exactly once: two concurrent requests get distinct
  // slots and each completes once, with its own token.
  port.issue(0, 0, 64, /*write=*/true, /*token=*/3, /*closed_loop=*/false);
  port.issue(0, 64, 64, /*write=*/true, /*token=*/4, /*closed_loop=*/false);
  rig.cluster.advance_all(rig.start + sim::Time::ms(3), 1);
  ASSERT_EQ(done.size(), 4u);
  EXPECT_EQ(done[2].token, 3u);
  EXPECT_EQ(done[3].token, 4u);
  EXPECT_EQ(rig.cluster.link_stats(1).rx_messages, 4u);
}

/// What a stream of interleaved cross-rack reads and writes from rack 0
/// left behind: rack 1's served digest and rack 0's completions.
struct ServedStream {
  std::uint64_t served_digest = 0;
  std::vector<CrossCompletion> done;
};

/// 64 requests 2 us apart into rack 1's gateway window, with the gateway's
/// RMST entry corrupted at 50 us and scrubbed at 80 us. Tracing on rack 1
/// forces every request it serves through the full fabric walk.
ServedStream serve_stream(bool trace_target) {
  TwoRacks rig;
  Datacenter& target = rig.cluster.rack(1);
  if (trace_target) target.tracer().enable();
  const hw::BrickId gateway = target.fabric().all_attachments().front().compute;
  target.simulator().at(rig.start + sim::Time::us(50),
                        [&target, gateway] { target.fabric().corrupt_rmst(gateway); });
  target.simulator().at(rig.start + sim::Time::us(80),
                        [&target, gateway] { target.fabric().scrub_rmst(gateway); });
  ServedStream out;
  CrossRackPort& port = rig.cluster.port(0);
  port.set_handler([&out](const CrossCompletion& c) { out.done.push_back(c); });
  for (std::uint32_t i = 0; i < 64; ++i) {
    rig.cluster.rack(0).simulator().at(rig.start + sim::Time::us(2 * i), [&port, i] {
      port.issue(0, std::uint64_t{i} * 65 * 64, 64, /*write=*/i % 2 == 1, i,
                 /*closed_loop=*/false);
    });
  }
  rig.cluster.advance_all(rig.start + sim::Time::ms(1), 1);
  out.served_digest = rig.cluster.served_digest(1);
  return out;
}

TEST(ClusterTest, GatewayServesTheSameUntracedAsTraced) {
  const ServedStream walked = serve_stream(/*trace_target=*/true);
  const ServedStream held = serve_stream(/*trace_target=*/false);
  EXPECT_NE(held.served_digest, 0u);
  EXPECT_EQ(walked.served_digest, held.served_digest);
  ASSERT_EQ(held.done.size(), 64u);
  ASSERT_EQ(walked.done.size(), held.done.size());
  for (std::size_t i = 0; i < held.done.size(); ++i) {
    EXPECT_EQ(walked.done[i].token, held.done[i].token) << "completion " << i;
    EXPECT_EQ(walked.done[i].ok, held.done[i].ok) << "completion " << i;
    EXPECT_EQ(walked.done[i].completed_at, held.done[i].completed_at) << "completion " << i;
  }
}

TEST(ClusterTest, GatewayWindowRejectsOutOfRangeOffsets) {
  TwoRacks rig;
  const std::uint64_t window = rig.cluster.gateway_window_bytes(1);
  rig.cluster.port(0).set_handler([](const CrossCompletion&) {});
  EXPECT_THROW(rig.cluster.port(0).issue(0, window, 64, false, 0, false),
               sim::ContractViolation);
}

}  // namespace
}  // namespace dredbox::core
