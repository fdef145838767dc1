#include "sim/partition.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/contract.hpp"
#include "sim/digest.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {
namespace {

TEST(PartitionedKernelTest, BadLookaheadsAndPairsAreRejected) {
  EXPECT_THROW(PartitionedKernel{Time::zero()}, std::invalid_argument);
  EXPECT_THROW(PartitionedKernel{Time::zero() - Time::ns(1)}, std::invalid_argument);
  Simulator a{1}, b{2};
  PartitionedKernel kernel{Time::ns(5)};
  EXPECT_EQ(kernel.lookahead(), Time::ns(5));
  kernel.add_shard(a);
  kernel.add_shard(b);
  EXPECT_THROW(kernel.send(0, 0, Time::ns(10), [] {}, "self"), std::invalid_argument);
  EXPECT_THROW(kernel.send(0, 2, Time::ns(10), [] {}, "no-such-shard"), std::invalid_argument);
  EXPECT_THROW(kernel.send(2, 0, Time::ns(10), [] {}, "no-such-shard"), std::invalid_argument);
}

TEST(PartitionedKernelTest, SendInsideLookaheadWindowIsAContractViolation) {
  Simulator a{1}, b{2};
  PartitionedKernel kernel{Time::ns(10)};
  kernel.add_shard(a);
  kernel.add_shard(b);
  // Sender's clock is 0: anything before 10 ns is inside the window.
  EXPECT_THROW(kernel.send(0, 1, Time::ns(5), [] {}, "early"), ContractViolation);
  EXPECT_NO_THROW(kernel.send(0, 1, Time::ns(10), [] {}, "on-time"));
}

TEST(PartitionedKernelTest, SingleShardDegeneratesToRunUntil) {
  Simulator sim{1};
  PartitionedKernel kernel{Time::ns(1)};
  kernel.add_shard(sim);
  std::vector<int> order;
  sim.at(Time::ns(30), [&] { order.push_back(3); }, "c");
  sim.at(Time::ns(10), [&] { order.push_back(1); }, "a");
  sim.at(Time::ns(20), [&] { order.push_back(2); }, "b");
  const PartitionRunStats stats = kernel.run(Time::us(1), 4);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(stats.dispatched, 3u);
  EXPECT_EQ(stats.messages, 0u);
  EXPECT_EQ(stats.rounds, 1u) << "a lone shard runs to the horizon in one round";
  EXPECT_EQ(sim.now(), Time::us(1));
}

TEST(PartitionedKernelTest, EmptyShardsStillAlignToTheHorizon) {
  Simulator a{1}, b{2};
  PartitionedKernel kernel{Time::ns(1)};
  kernel.add_shard(a);
  kernel.add_shard(b);
  const PartitionRunStats stats = kernel.run(Time::ms(1), 2);
  EXPECT_EQ(stats.dispatched, 0u);
  EXPECT_EQ(a.now(), Time::ms(1));
  EXPECT_EQ(b.now(), Time::ms(1));
}

TEST(PartitionedKernelTest, SameLinkSameTickPreservesSendOrder) {
  Simulator a{1}, b{2};
  PartitionedKernel kernel{Time::ns(10)};
  kernel.add_shard(a);
  kernel.add_shard(b);
  std::vector<int> order;
  // Two messages of one pair for the same tick: FIFO-within-timestamp
  // must hold across the partition cut exactly as inside one queue.
  kernel.send(0, 1, Time::ns(50), [&] { order.push_back(1); }, "first");
  kernel.send(0, 1, Time::ns(50), [&] { order.push_back(2); }, "second");
  kernel.run(Time::us(1), 2);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(PartitionedKernelTest, TiesMergeBySourceShard) {
  Simulator a{1}, b{2}, c{3};
  PartitionedKernel kernel{Time::ns(10)};
  kernel.add_shard(a);
  kernel.add_shard(b);
  kernel.add_shard(c);
  std::vector<int> order;
  // Sent in the *opposite* order: the merge key (when, source, send
  // order) must still put the lower source first — a pure function of
  // the shard indices, not of which sender's thread pushed first.
  kernel.send(1, 2, Time::ns(50), [&] { order.push_back(1); }, "from-b");
  kernel.send(0, 2, Time::ns(50), [&] { order.push_back(0); }, "from-a");
  kernel.run(Time::us(1), 3);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

/// A -> B -> C relay on a 3-shard mesh where B starts with an empty
/// queue: A's event wakes B, whose delivered action immediately forwards
/// to C.
struct Relay {
  Relay() {
    kernel.add_shard(a);
    kernel.add_shard(b);
    kernel.add_shard(c);
    // C has its own traffic far past the relay, tempting an unsafe cap.
    c.at(Time::us(1), [] {}, "late");
    a.at(Time::ns(5), [this] { hop_a(); }, "origin");
  }
  void hop_a() { kernel.send(0, 1, a.now() + Time::ns(1), [this] { hop_b(); }, "relay1"); }
  void hop_b() {
    kernel.send(1, 2, b.now() + Time::ns(1), [this] { c_received = c.now(); }, "relay2");
  }

  PartitionedKernel kernel{Time::ns(1)};
  Simulator a{1}, b{2}, c{3};
  Time c_received = Time::infinity();
};

// An empty-queue shard is not silent: a message can wake it and make it
// send. A cap from the other shards' heads alone would let C run past
// B's induced send time (tripping the delivered-in-the-past contract);
// B's reach, min(its head, A's head + L), must hold C back.
TEST(PartitionedKernelTest, AnEmptyShardIsNotSilent) {
  for (std::size_t threads : {1u, 2u, 3u}) {
    Relay relay;
    relay.kernel.run(Time::us(2), threads);
    EXPECT_EQ(relay.c_received, Time::ns(7)) << "threads=" << threads;
  }
}

/// Two shards ping-pong a token; each shard records its own receipt
/// times (its events run only on the thread driving it that round, so
/// per-shard vectors need no locks). The digest over both sequences is
/// the determinism witness.
struct PingPong {
  explicit PingPong(Time lookahead) : kernel{lookahead} {
    kernel.add_shard(a);
    kernel.add_shard(b);
    a.at(lookahead, [this] { on_a(); }, "kick");
  }

  void on_a() {
    seen_a.push_back(a.now().ticks());
    if (remaining-- > 0) {
      kernel.send(0, 1, a.now() + kernel.lookahead(), [this] { on_b(); }, "ping");
    }
  }
  void on_b() {
    seen_b.push_back(b.now().ticks());
    kernel.send(1, 0, b.now() + kernel.lookahead(), [this] { on_a(); }, "pong");
  }

  std::uint64_t run(Time horizon, std::size_t threads) {
    kernel.run(horizon, threads);
    Digest d;
    for (const auto t : seen_a) d.update("a").update(static_cast<std::uint64_t>(t));
    for (const auto t : seen_b) d.update("b").update(static_cast<std::uint64_t>(t));
    return d.value();
  }

  PartitionedKernel kernel;
  Simulator a{11}, b{22};
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
  // window, the worst case for both progress and the cap math.
  const std::uint64_t reference = PingPong{Time::ps(1)}.run(Time::ps(200), 1);
  for (std::size_t threads : {2u, 4u}) {
    EXPECT_EQ(PingPong{Time::ps(1)}.run(Time::ps(200), threads), reference)
        << "threads=" << threads;
  }
}

TEST(PartitionedKernelTest, StatsCountRoundsAndMessages) {
  PingPong game{Time::ns(500)};
  const PartitionRunStats stats = game.kernel.run(Time::us(100), 2);
  // 32 pings each answered by a pong, plus the final unanswered receipt.
  EXPECT_EQ(stats.messages, 64u);
  EXPECT_GE(stats.rounds, 1u);
  EXPECT_EQ(game.kernel.shards(), 2u);
}

/// Seeded random traffic over a full mesh: tokens wander until the
/// horizon. Every event draws from its own shard's Rng and forwards its
/// token either locally or to a random other shard; while the shard's
/// budget lasts, one event in ten also forks a second token. Each shard
/// folds its (time, label) dispatch sequence into its own digest (a
/// shard's events run on one thread per round, so no locks), and the
/// shard digests fold, in shard order, into the schedule fingerprint.
struct RandomTraffic {
  RandomTraffic(std::size_t n, std::size_t budget, Time lookahead)
      : kernel{lookahead}, budget_(n, budget), logs_(n) {
    for (std::size_t i = 0; i < n; ++i) {
      sims.push_back(std::make_unique<Simulator>(1000 + i));
      kernel.add_shard(*sims.back());
    }
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
      if (sims.size() > 1 && rng.chance(0.5)) {
        // The k-th other shard, in ascending order.
        auto dest = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(sims.size()) - 2));
        if (dest >= shard) ++dest;
        const Time when = sim.now() + kernel.lookahead() + Time::ps(rng.uniform_int(0, 3000));
        kernel.send(shard, dest, when, [this, dest] { on_event(dest, "msg"); }, "msg");
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
};

// The schedule of a 16-shard full mesh at a 3 ns lookahead under seeded
// random traffic, pinned by the kernel that scanned every shard each
// round: the dispatch order and the exact round count are a function of
// the caps and the delivery points, so any drift in either shows up here.
TEST(PartitionedKernelTest, FullMeshScheduleIsPinned) {
  for (std::size_t threads : {1u, 4u}) {
    RandomTraffic mesh{16, 8, Time::ns(3)};
    mesh.seed_tokens(1);
    const PartitionRunStats stats = mesh.kernel.run(Time::us(1), threads);
    const std::string where = "threads=" + std::to_string(threads);
    EXPECT_EQ(mesh.fingerprint(), 12567000689784214049ull) << where;
    EXPECT_EQ(stats.rounds, 330u) << where;
    EXPECT_EQ(stats.messages, 21083u) << where;
    EXPECT_EQ(stats.dispatched, 42053u) << where;
    EXPECT_LT(stats.shard_runs, stats.rounds * 16) << "idle shards must not be entered";
  }
}

// Asking for more workers changes neither where nor what a round runs:
// three tokens circle a 16-shard ring at 4 threads, every shard is
// entered on the calling thread, and the rounds are those of 1 thread.
TEST(PartitionedKernelTest, EveryRoundRunsOnTheCallingThread) {
  constexpr std::size_t kShards = 16;
  struct Ring {
    PartitionedKernel kernel{Time::ns(10)};
    std::vector<std::unique_ptr<Simulator>> sims;
    void on_token(std::size_t shard) {
      const std::size_t to = (shard + 1) % sims.size();
      kernel.send(shard, to, sims[shard]->now() + kernel.lookahead(), [this, to] { on_token(to); },
                  "token");
    }
  };
  const auto run = [](std::size_t threads, std::vector<std::thread::id>* entered_on) {
    Ring ring;
    for (std::size_t i = 0; i < kShards; ++i) {
      ring.sims.push_back(std::make_unique<Simulator>(i + 1));
      ring.kernel.add_shard(*ring.sims.back());
    }
    if (entered_on != nullptr) {
      ring.kernel.set_shard_prologue(
          [entered_on](std::size_t shard) { (*entered_on)[shard] = std::this_thread::get_id(); });
    }
    for (const std::size_t start : {0u, 5u, 11u}) {
      const Time first = Time::ns(static_cast<double>(1 + start));
      ring.sims[start]->at(first, [&ring, start] { ring.on_token(start); }, "token");
    }
    return ring.kernel.run(Time::us(2), threads);
  };
  const PartitionRunStats sequential = run(1, nullptr);
  std::vector<std::thread::id> entered_on(kShards);
  const PartitionRunStats stats = run(4, &entered_on);
  EXPECT_LE(stats.shard_runs, stats.rounds * 3);
  EXPECT_EQ(stats.rounds, sequential.rounds);
  EXPECT_EQ(stats.shard_runs, sequential.shard_runs);
  EXPECT_EQ(stats.dispatched, sequential.dispatched);
  EXPECT_EQ(stats.messages, sequential.messages);
  for (std::size_t i = 0; i < kShards; ++i) {
    EXPECT_EQ(entered_on[i], std::this_thread::get_id()) << "shard " << i;
  }
}

/// Random traffic on a 1 ns grid, built to hit the corners of the head
/// scan: every seeded shard has a seed at exactly 1 ns, so the first round
/// opens with h1 = h2 and grid times keep producing exact ties; every third
/// shard starts idle and wakes only through mail; every shard holds one
/// event past the horizon, so its head is infinite once its traffic ends.
struct GridTraffic {
  static constexpr Time kLookahead = Time::ns(3);

  GridTraffic(std::size_t n, std::uint64_t seed)
      : kernel{kLookahead}, events(n, 0), budget_(n, 4), logs_(n) {
    Rng seeds{seed};
    for (std::size_t i = 0; i < n; ++i) {
      sims.push_back(std::make_unique<Simulator>(seed * 100 + i));
      kernel.add_shard(*sims.back());
    }
    for (std::size_t i = 0; i < n; ++i) {
      Simulator& sim = *sims[i];
      sim.at(Time::us(10), [this, i] { on_event(i, "late"); }, "late");
      if (i % 3 == 2) continue;
      sim.at(Time::ns(1), [this, i] { on_event(i, "seed"); }, "seed");
      for (std::int64_t k = seeds.uniform_int(0, 2); k > 0; --k) {
        const Time when = Time::ns(static_cast<double>(seeds.uniform_int(1, 12)));
        sim.at(when, [this, i] { on_event(i, "seed"); }, "seed");
      }
    }
  }

  void on_event(std::size_t shard, const char* label) {
    Simulator& sim = *sims[shard];
    logs_[shard].update(label).update(static_cast<std::uint64_t>(sim.now().ticks()));
    ++events[shard];
    Rng& rng = sim.rng();
    int tokens = 1;
    if (budget_[shard] > 0 && rng.chance(0.2)) {
      --budget_[shard];
      tokens = 2;
    }
    for (int k = 0; k < tokens; ++k) {
      if (sims.size() > 1 && rng.chance(0.4)) {
        auto dest = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(sims.size()) - 2));
        if (dest >= shard) ++dest;
        const Time lead = Time::ns(static_cast<double>(rng.uniform_int(0, 2)));
        const Time when = sim.now() + kLookahead + lead;
        kernel.send(shard, dest, when, [this, dest] { on_event(dest, "msg"); }, "msg");
      } else {
        const Time delay = Time::ns(static_cast<double>(rng.uniform_int(0, 4)));
        sim.after(delay, [this, shard] { on_event(shard, "local"); }, "local");
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
  /// Events each shard dispatched.
  std::vector<std::size_t> events;

 private:
  std::vector<std::size_t> budget_;
  std::vector<Digest> logs_;
};

// The flat head scan across mesh sizes: the dispatch logs and the round
// accounting do not depend on the worker count asked for (1, 2 or 3),
// over two run() calls each. Audit builds also check every one of these
// rounds against check_round's O(n^2) reference scan.
TEST(PartitionedKernelTest, RandomGridMeshesAreThreadCountInvariant) {
  for (const std::size_t n : {1u, 2u, 3u, 16u, 64u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      struct Outcome {
        std::uint64_t fingerprint;
        PartitionRunStats first, second;
      };
      const auto run = [n, seed](std::size_t threads) {
        GridTraffic mesh{n, seed};
        Outcome out{};
        out.first = mesh.kernel.run(Time::ns(200), threads);
        out.second = mesh.kernel.run(Time::ns(400), threads);
        out.fingerprint = mesh.fingerprint();
        if (n >= 3) {
          EXPECT_GT(mesh.events[2], 0u) << "the idle shard 2 must wake through mail";
        }
        for (const auto& sim : mesh.sims) EXPECT_EQ(sim->now(), Time::ns(400));
        return out;
      };
      const Outcome reference = run(1);
      if (n > 1) {
        EXPECT_GT(reference.first.messages, 0u);
      }
      for (const std::size_t threads : {2u, 3u}) {
        const Outcome got = run(threads);
        const std::string where =
            "n=" + std::to_string(n) + " seed=" + std::to_string(seed) +
            " threads=" + std::to_string(threads);
        EXPECT_EQ(got.fingerprint, reference.fingerprint) << where;
        for (const auto& [ours, theirs] :
             {std::pair{got.first, reference.first}, std::pair{got.second, reference.second}}) {
          EXPECT_EQ(ours.rounds, theirs.rounds) << where;
          EXPECT_EQ(ours.shard_runs, theirs.shard_runs) << where;
          EXPECT_EQ(ours.dispatched, theirs.dispatched) << where;
          EXPECT_EQ(ours.messages, theirs.messages) << where;
        }
      }
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
    PartitionedKernel kernel{Time::ns(10)};
    for (Simulator* sim : {&a, &b, &c}) kernel.add_shard(*sim);
    a.at(Time::ns(100), [] {}, "earliest");
    b.at(Time::ns(110) - Time::ps(1), [] {}, "one-tick-inside");
    c.at(Time::ns(120) - Time::ps(1), [] {}, "past-the-cap");
    const PartitionRunStats stats = kernel.run(Time::us(1), threads);
    EXPECT_EQ(stats.rounds, 2u) << "threads=" << threads;
    EXPECT_EQ(stats.shard_runs, 3u) << "threads=" << threads;
    EXPECT_EQ(stats.dispatched, 3u) << "threads=" << threads;
  }
}

// Mail sent from wiring code — before the first run() and between two
// runs — waits in the destination's inbox and lands at its timestamp.
TEST(PartitionedKernelTest, SendsOutsideRunAreDelivered) {
  Simulator a{1}, b{2};
  PartitionedKernel kernel{Time::ns(10)};
  kernel.add_shard(a);
  kernel.add_shard(b);
  std::vector<Time> received;
  kernel.send(0, 1, Time::ns(40), [&] { received.push_back(b.now()); }, "before-run");
  const PartitionRunStats first = kernel.run(Time::us(1), 2);
  EXPECT_EQ(first.messages, 1u);
  EXPECT_EQ(received, (std::vector<Time>{Time::ns(40)}));

  kernel.send(0, 1, Time::us(1) + Time::ns(25), [&] { received.push_back(b.now()); }, "between");
  const PartitionRunStats second = kernel.run(Time::us(2), 2);
  EXPECT_EQ(second.messages, 1u);
  EXPECT_EQ(received, (std::vector<Time>{Time::ns(40), Time::us(1) + Time::ns(25)}));
}

// A shard with nothing at or below its cap is not entered — neither its
// prologue nor its run_until — yet still ends parked at the horizon.
TEST(PartitionedKernelTest, IdleShardsAreNotEntered) {
  for (std::size_t threads : {1u, 3u}) {
    Simulator a{1}, b{2}, c{3};
    PartitionedKernel kernel{Time::ns(5)};
    kernel.add_shard(a);
    kernel.add_shard(b);
    kernel.add_shard(c);
    std::vector<int> entered(3, 0);  // one slot per shard: no two threads share one
    kernel.set_shard_prologue([&](std::size_t shard) { ++entered[shard]; });
    a.at(Time::ns(10), [] {}, "early");
    // Round 1 caps b at 14.999 ns (a's head + lookahead - 1 tick): b's
    // head at 1 us is past it, so only a runs. Round 2 runs b alone. c
    // never has work.
    b.at(Time::us(1), [] {}, "late");
    const PartitionRunStats stats = kernel.run(Time::us(2), threads);
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
