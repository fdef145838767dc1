#include "sim/partition.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/contract.hpp"
#include "sim/digest.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {
namespace {

TEST(PartitionedKernelTest, ConnectRejectsBadLinks) {
  Simulator a{1}, b{2};
  PartitionedKernel kernel;
  kernel.add_shard(a);
  kernel.add_shard(b);
  EXPECT_THROW(kernel.connect(0, 0, Time::ns(1)), std::invalid_argument);
  EXPECT_THROW(kernel.connect(0, 2, Time::ns(1)), std::invalid_argument);
  EXPECT_THROW(kernel.connect(0, 1, Time::zero()), std::invalid_argument);
  EXPECT_EQ(kernel.connect(0, 1, Time::ns(5)), 0u);
  EXPECT_EQ(kernel.lookahead(0), Time::ns(5));
}

TEST(PartitionedKernelTest, RunWantsOneHorizonPerShard) {
  Simulator a{1};
  PartitionedKernel kernel;
  kernel.add_shard(a);
  EXPECT_THROW(kernel.run({}, 1), std::invalid_argument);
}

TEST(PartitionedKernelTest, SendInsideLookaheadWindowIsAContractViolation) {
  Simulator a{1}, b{2};
  PartitionedKernel kernel;
  kernel.add_shard(a);
  kernel.add_shard(b);
  const std::size_t link = kernel.connect(0, 1, Time::ns(10));
  // Sender's clock is 0: anything before 10 ns is inside the window.
  EXPECT_THROW(kernel.send(link, Time::ns(5), [] {}, "early"), ContractViolation);
  EXPECT_NO_THROW(kernel.send(link, Time::ns(10), [] {}, "on-time"));
}

TEST(PartitionedKernelTest, SingleShardDegeneratesToRunUntil) {
  Simulator sim{1};
  PartitionedKernel kernel;
  kernel.add_shard(sim);
  std::vector<int> order;
  sim.at(Time::ns(30), [&] { order.push_back(3); }, "c");
  sim.at(Time::ns(10), [&] { order.push_back(1); }, "a");
  sim.at(Time::ns(20), [&] { order.push_back(2); }, "b");
  const PartitionRunStats stats = kernel.run({Time::us(1)}, 4);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(stats.dispatched, 3u);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(sim.now(), Time::us(1));
}

TEST(PartitionedKernelTest, EmptyShardsStillAlignToTheHorizon) {
  Simulator a{1}, b{2};
  PartitionedKernel kernel;
  kernel.add_shard(a);
  kernel.add_shard(b);
  kernel.connect(0, 1, Time::ns(1));
  const PartitionRunStats stats = kernel.run({Time::ms(1), Time::ms(2)}, 2);
  EXPECT_EQ(stats.dispatched, 0u);
  EXPECT_EQ(a.now(), Time::ms(1));
  EXPECT_EQ(b.now(), Time::ms(2));
}

TEST(PartitionedKernelTest, SameLinkSameTickPreservesSendOrder) {
  Simulator a{1}, b{2};
  PartitionedKernel kernel;
  kernel.add_shard(a);
  kernel.add_shard(b);
  const std::size_t link = kernel.connect(0, 1, Time::ns(10));
  std::vector<int> order;
  // Two messages on one link for the same tick: FIFO-within-timestamp
  // must hold across the partition cut exactly as inside one queue.
  kernel.send(link, Time::ns(50), [&] { order.push_back(1); }, "first");
  kernel.send(link, Time::ns(50), [&] { order.push_back(2); }, "second");
  kernel.run({Time::us(1), Time::us(1)}, 2);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(PartitionedKernelTest, CrossLinkTiesMergeByLinkId) {
  Simulator a{1}, b{2}, c{3};
  PartitionedKernel kernel;
  kernel.add_shard(a);
  kernel.add_shard(b);
  kernel.add_shard(c);
  const std::size_t low = kernel.connect(0, 2, Time::ns(10));   // link 0
  const std::size_t high = kernel.connect(1, 2, Time::ns(10));  // link 1
  std::vector<int> order;
  // Sent in the *opposite* order: the merge key (when, link, seq) must
  // still put the lower link id first — a pure function of wiring, not
  // of which sender's thread pushed first.
  kernel.send(high, Time::ns(50), [&] { order.push_back(1); }, "high-link");
  kernel.send(low, Time::ns(50), [&] { order.push_back(0); }, "low-link");
  kernel.run({Time::us(1), Time::us(1), Time::us(1)}, 3);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

/// A -> B -> C relay where B starts with an empty queue: A's event wakes
/// B, whose delivered action immediately forwards to C.
struct Relay {
  Relay() {
    kernel.add_shard(a);
    kernel.add_shard(b);
    kernel.add_shard(c);
    ab = kernel.connect(0, 1, Time::ns(1));
    bc = kernel.connect(1, 2, Time::ns(1));
    // C has its own traffic far past the relay, tempting an unsafe cap.
    c.at(Time::us(1), [] {}, "late");
    a.at(Time::ns(5), [this] { hop_a(); }, "origin");
  }
  void hop_a() {
    kernel.send(ab, a.now() + Time::ns(1), [this] { hop_b(); }, "relay1");
  }
  void hop_b() {
    kernel.send(bc, b.now() + Time::ns(1), [this] { c_received = c.now(); }, "relay2");
  }

  PartitionedKernel kernel;
  Simulator a{1}, b{2}, c{3};
  std::size_t ab = 0, bc = 0;
  Time c_received = Time::infinity();
};

// An empty-queue shard is not silent: a message can wake it and make it
// send. The naive per-neighbor-head horizon would let C run past B's
// induced send time (tripping the delivered-in-the-past contract); the
// transitive min-plus reach bound must hold it back.
TEST(PartitionedKernelTest, LookaheadIsTransitiveThroughEmptyShards) {
  for (std::size_t threads : {1u, 2u, 3u}) {
    Relay relay;
    relay.kernel.run({Time::us(2), Time::us(2), Time::us(2)}, threads);
    EXPECT_EQ(relay.c_received, Time::ns(7)) << "threads=" << threads;
  }
}

/// Two shards ping-pong a token; each shard records its own receipt
/// times (its events run only on the thread driving it that round, so
/// per-shard vectors need no locks). The digest over both sequences is
/// the determinism witness.
struct PingPong {
  explicit PingPong(Time lookahead) : lookahead_{lookahead} {
    kernel.add_shard(a);
    kernel.add_shard(b);
    ab = kernel.connect(0, 1, lookahead);
    ba = kernel.connect(1, 0, lookahead);
    a.at(lookahead, [this] { on_a(); }, "kick");
  }

  void on_a() {
    seen_a.push_back(a.now().ticks());
    if (remaining-- > 0) kernel.send(ab, a.now() + lookahead_, [this] { on_b(); }, "ping");
  }
  void on_b() {
    seen_b.push_back(b.now().ticks());
    kernel.send(ba, b.now() + lookahead_, [this] { on_a(); }, "pong");
  }

  std::uint64_t run(Time horizon, std::size_t threads) {
    kernel.run({horizon, horizon}, threads);
    Digest d;
    for (const auto t : seen_a) d.update("a").update(static_cast<std::uint64_t>(t));
    for (const auto t : seen_b) d.update("b").update(static_cast<std::uint64_t>(t));
    return d.value();
  }

  PartitionedKernel kernel;
  Simulator a{11}, b{22};
  std::size_t ab = 0, ba = 0;
  Time lookahead_;
  int remaining = 32;
  std::vector<std::int64_t> seen_a, seen_b;
};

TEST(PartitionedKernelTest, PingPongScheduleIsThreadCountInvariant) {
  const std::uint64_t reference = PingPong{Time::ns(500)}.run(Time::us(100), 1);
  for (std::size_t threads : {2u, 4u}) {
    EXPECT_EQ(PingPong{Time::ns(500)}.run(Time::us(100), threads), reference)
        << "threads=" << threads;
  }
  EXPECT_NE(PingPong{Time::ns(500)}.run(Time::us(1), 1), reference)
      << "digest must actually depend on the schedule";
}

TEST(PartitionedKernelTest, OneTickLookaheadStillConverges) {
  // lookahead = 1 ps: every round advances by the minimum possible
  // window, the worst case for both progress and the horizon math.
  const std::uint64_t reference = PingPong{Time::ps(1)}.run(Time::ps(200), 1);
  for (std::size_t threads : {2u, 4u}) {
    EXPECT_EQ(PingPong{Time::ps(1)}.run(Time::ps(200), threads), reference)
        << "threads=" << threads;
  }
}

TEST(PartitionedKernelTest, StatsCountRoundsAndMessages) {
  PingPong game{Time::ns(500)};
  const PartitionRunStats stats = game.kernel.run({Time::us(100), Time::us(100)}, 2);
  // 32 pings each answered by a pong, plus the final unanswered receipt.
  EXPECT_EQ(stats.messages, 64u);
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_EQ(stats.threads, 2u);
  EXPECT_EQ(game.kernel.links(), 2u);
  EXPECT_EQ(game.kernel.shards(), 2u);
}

/// Seeded random traffic over an arbitrary link graph: tokens wander
/// until the horizon. Every event draws from its own shard's Rng and
/// forwards its token either locally or over a random out-link; while the
/// shard's budget lasts, one event in ten also forks a second token. Each
/// shard folds its (time, label) dispatch sequence into its own digest (a
/// shard's events run on one thread per round, so no locks), and the
/// shard digests fold, in shard order, into the schedule fingerprint.
struct RandomTraffic {
  RandomTraffic(std::size_t n, std::size_t budget) : budget_(n, budget), logs_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      sims.push_back(std::make_unique<Simulator>(1000 + i));
      kernel.add_shard(*sims.back());
    }
    out_.resize(n);
  }

  void connect(std::size_t from, std::size_t to, Time lookahead) {
    const std::size_t link = kernel.connect(from, to, lookahead);
    out_[from].push_back(link);
    to_.push_back(to);
  }

  void seed_tokens(std::size_t per_shard) {
    for (std::size_t i = 0; i < sims.size(); ++i) {
      for (std::size_t e = 0; e < per_shard; ++e) {
        const Time when = Time::ps(sims[i]->rng().uniform_int(1, 20000));
        sims[i]->at(when, [this, i] { on_event(i, "seed"); }, "seed");
      }
    }
  }

  void on_event(std::size_t shard, const char* label) {
    Simulator& sim = *sims[shard];
    logs_[shard].update(label).update(static_cast<std::uint64_t>(sim.now().ticks()));
    Rng& rng = sim.rng();
    int tokens = 1;
    if (budget_[shard] > 0 && rng.chance(0.1)) {
      --budget_[shard];
      tokens = 2;
    }
    for (int k = 0; k < tokens; ++k) {
      const auto& out = out_[shard];
      if (!out.empty() && rng.chance(0.5)) {
        const std::size_t link = out[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1))];
        const std::size_t dest = to_[link];
        const Time when = sim.now() + kernel.lookahead(link) + Time::ps(rng.uniform_int(0, 3000));
        kernel.send(link, when, [this, dest] { on_event(dest, "msg"); }, "msg");
      } else {
        sim.after(Time::ps(rng.uniform_int(1, 4000)), [this, shard] { on_event(shard, "local"); },
                  "local");
      }
    }
  }

  std::uint64_t fingerprint() const {
    Digest d;
    for (std::size_t i = 0; i < logs_.size(); ++i) {
      d.update(static_cast<std::uint64_t>(i)).update(logs_[i].value());
    }
    return d.value();
  }

  PartitionedKernel kernel;
  std::vector<std::unique_ptr<Simulator>> sims;

 private:
  std::vector<std::size_t> budget_;
  std::vector<Digest> logs_;
  std::vector<std::vector<std::size_t>> out_;
  std::vector<std::size_t> to_;
};

/// Links every ordered pair of `mesh`'s shards. With `lookahead` zero the
/// lookaheads spread over 1..5 ns by pair; otherwise every link gets
/// `lookahead`, the spine's shape.
void wire_full_mesh(RandomTraffic& mesh, std::size_t n, Time lookahead) {
  for (std::size_t from = 0; from < n; ++from) {
    for (std::size_t to = 0; to < n; ++to) {
      const auto spread = static_cast<std::int64_t>((from * 7 + to * 3) % 5);
      const Time link = lookahead > Time::zero() ? lookahead : Time::ns(1 + spread);
      if (from != to) mesh.connect(from, to, link);
    }
  }
}

// The schedule of a 16-shard full mesh under seeded random traffic, with
// uneven lookaheads and with one lookahead on every link. The uneven
// values were pinned by the per-link-channel kernel, the even ones by the
// kernel that scanned every shard each round: the dispatch order and the
// exact round count are a function of the caps and the delivery points,
// so any drift in either shows up here.
TEST(PartitionedKernelTest, FullMeshScheduleIsPinned) {
  struct Pinned {
    Time lookahead;
    std::uint64_t fingerprint;
    std::size_t rounds;
    std::uint64_t messages;
    std::size_t dispatched;
  };
  const Pinned cases[] = {
      {Time::zero(), 10556665264365925153ull, 884, 20635, 41168},
      {Time::ns(3), 12567000689784214049ull, 330, 21083, 42053},
  };
  for (const Pinned& pinned : cases) {
    for (std::size_t threads : {1u, 4u}) {
      RandomTraffic mesh{16, 8};
      wire_full_mesh(mesh, 16, pinned.lookahead);
      mesh.seed_tokens(1);
      const PartitionRunStats stats =
          mesh.kernel.run(std::vector<Time>(16, Time::us(1)), threads);
      const std::string where = "lookahead=" + pinned.lookahead.to_string() +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(mesh.fingerprint(), pinned.fingerprint) << where;
      EXPECT_EQ(stats.rounds, pinned.rounds) << where;
      EXPECT_EQ(stats.messages, pinned.messages) << where;
      EXPECT_EQ(stats.dispatched, pinned.dispatched) << where;
      EXPECT_LT(stats.shard_runs, stats.rounds * 16) << "idle shards must not be entered";
    }
  }
}

// On a full mesh at one lookahead L, every seed but the earliest is capped
// at h1 + L - 1 tick: a head exactly there runs in the same round, one
// tick later waits for the next. Three shards: 100 ns, 109.999 ns and
// 119.999 ns at L = 10 ns. Round one runs the first two; the third is past
// 109.999 ns, and in round two it is the earliest seed and runs alone.
TEST(PartitionedKernelTest, MeshCapIsOneTickShortOfTheEarliestHeadPlusLookahead) {
  for (std::size_t threads : {1u, 3u}) {
    Simulator a{1}, b{2}, c{3};
    PartitionedKernel kernel;
    for (Simulator* sim : {&a, &b, &c}) kernel.add_shard(*sim);
    for (std::size_t from = 0; from < 3; ++from) {
      for (std::size_t to = 0; to < 3; ++to) {
        if (from != to) kernel.connect(from, to, Time::ns(10));
      }
    }
    a.at(Time::ns(100), [] {}, "earliest");
    b.at(Time::ns(110) - Time::ps(1), [] {}, "one-tick-inside");
    c.at(Time::ns(120) - Time::ps(1), [] {}, "past-the-cap");
    const PartitionRunStats stats = kernel.run({Time::us(1), Time::us(1), Time::us(1)}, threads);
    EXPECT_EQ(stats.rounds, 2u) << "threads=" << threads;
    EXPECT_EQ(stats.shard_runs, 3u) << "threads=" << threads;
    EXPECT_EQ(stats.dispatched, 3u) << "threads=" << threads;
  }
}

// Non-uniform horizons over a sparse graph with one-way links exercise
// the horizon clipping of reach and caps and the infinite distances of
// unreachable pairs; the round count pins the caps to the values the
// per-link-channel kernel computed.
TEST(PartitionedKernelTest, NonUniformHorizonScheduleIsPinned) {
  for (std::size_t threads : {1u, 3u}) {
    RandomTraffic ring{6, 8};
    for (std::size_t i = 0; i < 6; ++i) ring.connect(i, (i + 1) % 6, Time::ns(2));
    ring.connect(0, 3, Time::ns(1));
    ring.connect(4, 1, Time::ns(3));
    ring.seed_tokens(2);
    const std::vector<Time> horizons{Time::ns(300), Time::ns(900), Time::ns(150),
                                     Time::ns(600), Time::ns(1200), Time::ns(450)};
    const PartitionRunStats stats = ring.kernel.run(horizons, threads);
    EXPECT_EQ(ring.fingerprint(), 969121224818465401ull) << "threads=" << threads;
    EXPECT_EQ(stats.rounds, 87u) << "threads=" << threads;
    EXPECT_EQ(stats.messages, 1326u) << "threads=" << threads;
    EXPECT_EQ(stats.dispatched, 2615u) << "threads=" << threads;
    for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(ring.sims[i]->now(), horizons[i]);
  }
}

// Random sparse graphs — uneven and one-way lookaheads, unreachable
// pairs, per-shard horizons — cover the bound computations' corner cases
// far more densely than the cluster topologies do. Rounds, messages,
// dispatches and the dispatch order of every case fold into one digest,
// pinned to the value the per-link-channel kernel produced.
TEST(PartitionedKernelTest, RandomGraphSchedulesArePinned) {
  Digest all;
  std::uint64_t total_rounds = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng graph{seed};
    const auto n = static_cast<std::size_t>(graph.uniform_int(2, 9));
    RandomTraffic traffic{n, 6};
    for (std::size_t from = 0; from < n; ++from) {
      for (std::size_t to = 0; to < n; ++to) {
        if (from != to && graph.chance(0.4)) {
          traffic.connect(from, to, Time::ps(graph.uniform_int(500, 8000)));
        }
      }
    }
    traffic.seed_tokens(2);
    std::vector<Time> horizons;
    for (std::size_t i = 0; i < n; ++i) horizons.push_back(Time::ns(graph.uniform_int(100, 600)));
    const PartitionRunStats stats = traffic.kernel.run(horizons, 1 + seed % 3);
    all.update(traffic.fingerprint())
        .update(static_cast<std::uint64_t>(stats.rounds))
        .update(stats.messages)
        .update(static_cast<std::uint64_t>(stats.dispatched));
    total_rounds += stats.rounds;
  }
  EXPECT_EQ(total_rounds, 830u);
  EXPECT_EQ(all.value(), 15107709276404678721ull);
}

// Mail sent from wiring code — before the first run() and between two
// runs — waits in the destination's inbox and lands at its timestamp.
TEST(PartitionedKernelTest, SendsOutsideRunAreDelivered) {
  Simulator a{1}, b{2};
  PartitionedKernel kernel;
  kernel.add_shard(a);
  kernel.add_shard(b);
  const std::size_t link = kernel.connect(0, 1, Time::ns(10));
  std::vector<Time> received;
  kernel.send(link, Time::ns(40), [&] { received.push_back(b.now()); }, "before-run");
  const PartitionRunStats first = kernel.run({Time::us(1), Time::us(1)}, 2);
  EXPECT_EQ(first.messages, 1u);
  EXPECT_EQ(received, (std::vector<Time>{Time::ns(40)}));

  kernel.send(link, Time::us(1) + Time::ns(25), [&] { received.push_back(b.now()); }, "between");
  const PartitionRunStats second = kernel.run({Time::us(2), Time::us(2)}, 2);
  EXPECT_EQ(second.messages, 1u);
  EXPECT_EQ(received, (std::vector<Time>{Time::ns(40), Time::us(1) + Time::ns(25)}));
}

// A shard with nothing at or below its cap is not entered — neither its
// prologue nor its run_until — yet still ends parked at its horizon.
TEST(PartitionedKernelTest, IdleShardsAreNotEntered) {
  for (std::size_t threads : {1u, 3u}) {
    Simulator a{1}, b{2}, c{3};
    PartitionedKernel kernel;
    kernel.add_shard(a);
    kernel.add_shard(b);
    kernel.add_shard(c);
    kernel.connect(0, 1, Time::ns(5));
    std::vector<int> entered(3, 0);  // one slot per shard: no two threads share one
    kernel.set_shard_prologue([&](std::size_t shard) { ++entered[shard]; });
    a.at(Time::ns(10), [] {}, "early");
    // Round 1 caps b at 14 ns (a's head + lookahead - 1 tick): b's head
    // at 1 us is past it, so only a runs. Round 2 runs b alone. c never
    // has work.
    b.at(Time::us(1), [] {}, "late");
    const PartitionRunStats stats = kernel.run({Time::us(2), Time::us(2), Time::us(2)}, threads);
    EXPECT_EQ(stats.rounds, 2u) << "threads=" << threads;
    EXPECT_EQ(stats.shard_runs, 2u) << "threads=" << threads;
    EXPECT_EQ(stats.dispatched, 2u) << "threads=" << threads;
    EXPECT_EQ(entered, (std::vector<int>{1, 1, 0})) << "threads=" << threads;
    EXPECT_EQ(a.now(), Time::us(2));
    EXPECT_EQ(b.now(), Time::us(2));
    EXPECT_EQ(c.now(), Time::us(2));
  }
}

}  // namespace
}  // namespace dredbox::sim
