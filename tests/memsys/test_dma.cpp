#include "memsys/dma.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

namespace dredbox::memsys {

/// White-box access for the held-route oracle: how many transactions the
/// fabric priced from a held route rather than walked.
struct FabricTestAccess {
  static std::uint64_t held_transactions(const RemoteMemoryFabric& fabric) {
    return fabric.held_transactions_;
  }
};

namespace {

using sim::Time;
constexpr std::uint64_t kGiB = 1ull << 30;
constexpr std::uint64_t kMiB = 1ull << 20;

class DmaTest : public ::testing::Test {
 protected:
  DmaTest() : circuits_{switch_, telemetry_}, fabric_{rack_, circuits_, telemetry_} {
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    compute_ = rack_.add_compute_brick(tray_a).id();
    membrick_ = rack_.add_memory_brick(tray_b).id();
    AttachRequest req;
    req.compute = compute_;
    req.membrick = membrick_;
    req.bytes = kGiB;
    attachment_ = *fabric_.attach(req, Time::zero());
  }

  sim::Simulator sim_;
  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  RemoteMemoryFabric fabric_;
  hw::BrickId compute_;
  hw::BrickId membrick_;
  Attachment attachment_;
};

TEST_F(DmaTest, SingleTransferCompletes) {
  DmaEngine dma{sim_, fabric_, compute_};
  DmaCompletion result;
  DmaDescriptor desc;
  desc.address = attachment_.compute_base;
  desc.bytes = 1 * kMiB;
  dma.enqueue(desc, [&](const DmaCompletion& c) { result = c; });
  sim_.run();
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.bytes, 1 * kMiB);
  EXPECT_EQ(result.chunks, 256u);  // 1 MiB / 4 KiB
  EXPECT_GT(result.completed_at, result.enqueued_at);
  EXPECT_EQ(dma.completed_transfers(), 1u);
  EXPECT_EQ(dma.in_flight(), 0u);
}

// "Uninstrumented" is a disabled registry: the fabric and a DMA engine
// built on a default sim::Telemetry bind their instruments at construction
// and record nothing, then record once the registry is enabled, with no
// rewiring in between.
TEST_F(DmaTest, DisabledRegistryRecordsNothingUntilEnabled) {
  DmaEngine dma{sim_, fabric_, compute_};
  const sim::metrics::MetricsRegistry& m = telemetry_.metrics();
  const auto counter = [&m](const char* name) {
    const sim::metrics::Counter* c = m.find_counter(name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? ~0ull : c->value();
  };
  const auto samples = [&m](const char* name) {
    const sim::metrics::Histogram* h = m.find_histogram(name);
    EXPECT_NE(h, nullptr) << name;
    return h == nullptr ? ~std::size_t{0} : h->count();
  };
  const auto transfer = [&] {
    DmaDescriptor desc;
    desc.address = attachment_.compute_base;
    desc.bytes = 64 * 1024;  // 16 chunks of 4 KiB
    bool ok = false;
    dma.enqueue(desc, [&ok](const DmaCompletion& c) { ok = c.ok; });
    sim_.run();
    EXPECT_TRUE(ok);
    EXPECT_TRUE(fabric_.read(compute_, attachment_.compute_base, 64, sim_.now()).ok());
    // Past the only window: a TGL miss.
    const std::uint64_t unmapped = attachment_.compute_base + attachment_.size;
    EXPECT_FALSE(fabric_.read(compute_, unmapped, 64, sim_.now()).ok());
  };

  transfer();
  // The DMA counters exist before any transfer completes, and nothing
  // landed in any instrument: not the fixture's attach, not the chunks.
  EXPECT_EQ(counter("memsys.dma.transfers"), 0u);
  EXPECT_EQ(counter("memsys.dma.bytes"), 0u);
  EXPECT_EQ(counter("memsys.fabric.attaches"), 0u);
  EXPECT_EQ(counter("memsys.fabric.transactions"), 0u);
  EXPECT_EQ(counter("hw.tgl.lookup_hits"), 0u);
  EXPECT_EQ(counter("hw.tgl.lookup_misses"), 0u);
  EXPECT_EQ(samples("memsys.write.latency_ns"), 0u);
  EXPECT_EQ(samples("memsys.read.latency_ns"), 0u);

  telemetry_.metrics().enable();
  transfer();
  EXPECT_EQ(counter("memsys.dma.transfers"), 1u);
  EXPECT_EQ(counter("memsys.dma.bytes"), 64u * 1024);
  EXPECT_EQ(counter("memsys.fabric.transactions"), 18u);  // 16 chunks + 2 reads
  EXPECT_EQ(counter("memsys.fabric.failed_transactions"), 1u);
  EXPECT_EQ(counter("hw.tgl.lookup_hits"), 17u);
  EXPECT_EQ(counter("hw.tgl.lookup_misses"), 1u);
  EXPECT_EQ(samples("memsys.write.latency_ns"), 16u);
  EXPECT_EQ(samples("memsys.read.latency_ns"), 1u);
  // The TGL's own counters never depended on the registry.
  EXPECT_EQ(rack_.compute_brick(compute_).tgl().hits(), 34u);
  EXPECT_EQ(rack_.compute_brick(compute_).tgl().misses(), 2u);
}

TEST_F(DmaTest, ThroughputApproachesLineRate) {
  DmaEngine dma{sim_, fabric_, compute_, /*channels=*/1, /*chunk=*/65536};
  DmaCompletion result;
  DmaDescriptor desc;
  desc.address = attachment_.compute_base;
  desc.bytes = 16 * kMiB;
  dma.enqueue(desc, [&](const DmaCompletion& c) { result = c; });
  sim_.run();
  ASSERT_TRUE(result.ok);
  // 10 Gb/s line; big chunks amortise the per-chunk control latency.
  EXPECT_GT(result.effective_gbps(), 6.0);
  EXPECT_LT(result.effective_gbps(), 10.0);
}

TEST_F(DmaTest, SmallChunksPayMoreOverhead) {
  DmaCompletion small, big;
  {
    DmaEngine dma{sim_, fabric_, compute_, 1, 1024};
    DmaDescriptor d;
    d.address = attachment_.compute_base;
    d.bytes = 1 * kMiB;
    dma.enqueue(d, [&](const DmaCompletion& c) { small = c; });
    sim_.run();
  }
  {
    DmaEngine dma{sim_, fabric_, compute_, 1, 65536};
    DmaDescriptor d;
    d.address = attachment_.compute_base + 512 * kMiB;
    d.bytes = 1 * kMiB;
    dma.enqueue(d, [&](const DmaCompletion& c) { big = c; });
    sim_.run();
  }
  ASSERT_TRUE(small.ok && big.ok);
  // 64 KiB chunks amortise the fixed per-chunk round-trip overhead far
  // better than 1 KiB chunks (measured ~9.9 vs ~6.6 Gb/s on the 10 Gb/s
  // line: the ~425 ns control overhead nearly halves tiny chunks).
  EXPECT_GT(big.effective_gbps(), 1.3 * small.effective_gbps());
}

TEST_F(DmaTest, TwoChannelsOverlapTransfers) {
  // Two jobs over two independent attachments (separate circuits would be
  // ideal, but even one shared circuit pipelines request/response).
  DmaEngine dual{sim_, fabric_, compute_, /*channels=*/2, 4096};
  std::vector<DmaCompletion> done;
  for (int i = 0; i < 2; ++i) {
    DmaDescriptor d;
    d.address = attachment_.compute_base + static_cast<std::uint64_t>(i) * 128 * kMiB;
    d.bytes = 2 * kMiB;
    dual.enqueue(d, [&](const DmaCompletion& c) { done.push_back(c); });
  }
  EXPECT_EQ(dual.in_flight(), 2u);
  sim_.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_TRUE(done[0].ok && done[1].ok);
}

TEST_F(DmaTest, QueueDrainsInOrderOnOneChannel) {
  DmaEngine dma{sim_, fabric_, compute_, /*channels=*/1, 4096};
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    DmaDescriptor d;
    d.address = attachment_.compute_base + static_cast<std::uint64_t>(i) * kMiB;
    d.bytes = 64 * 1024;
    dma.enqueue(d, [&order, i](const DmaCompletion&) { order.push_back(i); });
  }
  EXPECT_EQ(dma.queued(), 2u);  // one running, two waiting
  sim_.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_F(DmaTest, ReadDirectionWorks) {
  DmaEngine dma{sim_, fabric_, compute_};
  DmaCompletion result;
  DmaDescriptor d;
  d.address = attachment_.compute_base;
  d.bytes = 256 * 1024;
  d.direction = TransactionKind::kRead;
  dma.enqueue(d, [&](const DmaCompletion& c) { result = c; });
  sim_.run();
  EXPECT_TRUE(result.ok);
}

TEST_F(DmaTest, UnmappedAddressFailsCleanly) {
  DmaEngine dma{sim_, fabric_, compute_};
  DmaCompletion result;
  DmaDescriptor d;
  d.address = 0xDEAD0000;  // not in the remote window
  d.bytes = 8192;
  dma.enqueue(d, [&](const DmaCompletion& c) { result = c; });
  sim_.run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("no-mapping"), std::string::npos);
  EXPECT_NE(result.error.find("0xdead0000"), std::string::npos) << result.error;
  EXPECT_EQ(result.bytes, 0u);
  EXPECT_EQ(dma.in_flight(), 0u);  // channel released for the next job
}

TEST_F(DmaTest, FailedCircuitSurfacesMidTransfer) {
  DmaEngine dma{sim_, fabric_, compute_};
  DmaCompletion result;
  DmaDescriptor d;
  d.address = attachment_.compute_base;
  d.bytes = 1 * kMiB;
  dma.enqueue(d, [&](const DmaCompletion& c) { result = c; });
  // Cut the fibre after ~50 us of simulated transfer.
  sim_.after(Time::us(50), [&] { fabric_.fail_circuit(attachment_.circuit); });
  sim_.run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("circuit-down"), std::string::npos);
  EXPECT_GT(result.bytes, 0u);              // some chunks landed
  EXPECT_LT(result.bytes, 1 * kMiB);        // but not all
}

// --- job lifecycle under faults ---
//
// A channel owns its in-flight job and the FIFO owns the waiting ones.
// Whether a transfer completes, fails fast, or dies mid-flight with
// retries exhausted, its callback fires exactly once, its channel is
// freed before the callback runs, and the next transfer succeeds. (A
// "slot" or "pooled job" in the test names is the channel and the job it
// owns.)

TEST_F(DmaTest, CompletedTransferReclaimsItsPooledJob) {
  DmaEngine dma{sim_, fabric_, compute_};
  DmaDescriptor d;
  d.address = attachment_.compute_base;
  d.bytes = 64 * 1024;
  int completions = 0;
  dma.enqueue(d, [&](const DmaCompletion& c) { completions += c.ok ? 1 : 100; });
  EXPECT_EQ(dma.in_flight(), 1u);
  sim_.run();
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(dma.in_flight(), 0u);
  EXPECT_EQ(dma.queued(), 0u);
  bool ok_again = false;
  d.address += kMiB;
  dma.enqueue(d, [&](const DmaCompletion& c) { ok_again = c.ok; });
  sim_.run();
  EXPECT_TRUE(ok_again);
  EXPECT_EQ(completions, 1) << "a finished job's callback never fires again";
}

TEST_F(DmaTest, BrickCrashMidFlightAbandonsTheJobAndReclaimsItsSlot) {
  DmaEngine dma{sim_, fabric_, compute_};
  DmaCompletion result;
  int delivered = 0;
  DmaDescriptor d;
  d.address = attachment_.compute_base;
  d.bytes = 1 * kMiB;
  dma.enqueue(d, [&](const DmaCompletion& c) {
    result = c;
    ++delivered;
  });
  // Crash the serving dMEMBRICK ~50 us into the transfer: the next chunk's
  // fabric transaction dies with kBrickFailed (not retryable from the data
  // plane), so the engine must abandon the job.
  sim_.after(Time::us(50), [&] { rack_.brick(membrick_).fail(); });
  sim_.run();
  ASSERT_EQ(delivered, 1) << "an abandoned transfer delivers its failure once";
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("brick-failed"), std::string::npos) << result.error;
  EXPECT_GT(result.bytes, 0u);
  EXPECT_LT(result.bytes, 1 * kMiB);
  EXPECT_EQ(dma.in_flight(), 0u) << "the channel is free for the next job";
  EXPECT_EQ(dma.queued(), 0u);
  rack_.brick(membrick_).restore();
  bool ok_again = false;
  d.bytes = 64 * 1024;
  dma.enqueue(d, [&](const DmaCompletion& c) { ok_again = c.ok; });
  sim_.run();
  EXPECT_TRUE(ok_again);
  EXPECT_EQ(delivered, 1);
}

TEST_F(DmaTest, RetryExhaustionUnderPersistentFaultReclaimsEverything) {
  // With a retry policy set, a mid-flight brick crash — which no layer can
  // retry around — sends the chunk through scheduled backoff retries until
  // the policy's attempts exhaust or the failure is recognized as fatal;
  // the job must still be abandoned and its channel freed.
  sim::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = Time::us(5);
  fabric_.set_retry_policy(policy);
  DmaEngine dma{sim_, fabric_, compute_};
  DmaCompletion result;
  int delivered = 0;
  DmaDescriptor d;
  d.address = attachment_.compute_base;
  d.bytes = 1 * kMiB;
  dma.enqueue(d, [&](const DmaCompletion& c) {
    result = c;
    ++delivered;
  });
  sim_.after(Time::us(50), [&] { rack_.brick(membrick_).fail(); });
  sim_.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(dma.in_flight(), 0u);
  EXPECT_EQ(dma.queued(), 0u);
  // A fresh transfer takes the freed channel and lands.
  rack_.brick(membrick_).restore();
  bool ok_again = false;
  DmaDescriptor retry_d;
  retry_d.address = attachment_.compute_base;
  retry_d.bytes = 64 * 1024;
  dma.enqueue(retry_d, [&](const DmaCompletion& c) { ok_again = c.ok; });
  EXPECT_EQ(dma.in_flight(), 1u);
  sim_.run();
  EXPECT_TRUE(ok_again);
  EXPECT_EQ(dma.in_flight(), 0u);
  EXPECT_EQ(delivered, 1);
}

TEST_F(DmaTest, QueuedAndInFlightJobsAreAllPooledAndAllReclaimed) {
  DmaEngine dma{sim_, fabric_, compute_, /*channels=*/1, 4096};
  std::vector<int> completions(4, 0);
  for (int i = 0; i < 4; ++i) {
    DmaDescriptor d;
    d.address = attachment_.compute_base + static_cast<std::uint64_t>(i) * kMiB;
    d.bytes = 64 * 1024;
    dma.enqueue(d, [&completions, i](const DmaCompletion& c) {
      if (c.ok) ++completions[static_cast<std::size_t>(i)];
    });
  }
  EXPECT_EQ(dma.in_flight(), 1u);
  EXPECT_EQ(dma.queued(), 3u);
  sim_.run();
  EXPECT_EQ(completions, (std::vector<int>{1, 1, 1, 1}));
  EXPECT_EQ(dma.in_flight(), 0u);
  EXPECT_EQ(dma.queued(), 0u);
}

TEST_F(DmaTest, ReentrantEnqueueFromCompletionReusesTheReclaimedSlot) {
  // finish() frees the channel BEFORE invoking the callback, so a
  // closed-loop callback that immediately enqueues starts its transfer on
  // the channel its own job vacated.
  DmaEngine dma{sim_, fabric_, compute_, /*channels=*/1, 4096};
  int chained_done = 0;
  DmaDescriptor d;
  d.address = attachment_.compute_base;
  d.bytes = 64 * 1024;
  dma.enqueue(d, [&](const DmaCompletion& c) {
    ASSERT_TRUE(c.ok);
    EXPECT_EQ(dma.in_flight(), 0u) << "channel freed before the callback runs";
    DmaDescriptor chained;
    chained.address = attachment_.compute_base + kMiB;
    chained.bytes = 64 * 1024;
    dma.enqueue(chained, [&](const DmaCompletion& cc) { chained_done += cc.ok ? 1 : 100; });
    EXPECT_EQ(dma.in_flight(), 1u) << "the chained job took the freed channel";
    EXPECT_EQ(dma.queued(), 0u);
  });
  sim_.run();
  EXPECT_EQ(chained_done, 1);
  EXPECT_EQ(dma.in_flight(), 0u);
  EXPECT_EQ(dma.queued(), 0u);
}

TEST_F(DmaTest, JobFailingInsidePumpReentersPumpFromItsCallback) {
  // One channel, no retry policy. Job 0 is unmapped, so it fails inside
  // the pump() its own enqueue runs; its callback queues job 1 (which
  // takes the freed channel), job 2 (unmapped) and job 3. When job 1
  // lands, job 2 fails inside that pump(), and its callback queues job 4
  // from inside it — behind job 3.
  constexpr std::uint64_t kUnmapped = 0xDEAD0000;
  DmaEngine dma{sim_, fabric_, compute_, /*channels=*/1, 4096};
  std::vector<std::pair<int, bool>> fired;  // (job, ok) in callback order
  const auto at = [](std::uint64_t address) {
    DmaDescriptor d;
    d.address = address;
    d.bytes = 64 * 1024;
    return d;
  };
  const auto record = [&fired](int job) {
    return [&fired, job](const DmaCompletion& c) { fired.emplace_back(job, c.ok); };
  };
  const std::uint64_t base = attachment_.compute_base;
  dma.enqueue(at(kUnmapped), [&](const DmaCompletion& c) {
    fired.emplace_back(0, c.ok);
    EXPECT_EQ(dma.in_flight(), 0u);
    dma.enqueue(at(base), record(1));
    dma.enqueue(at(kUnmapped), [&](const DmaCompletion& c2) {
      fired.emplace_back(2, c2.ok);
      dma.enqueue(at(base + 2 * kMiB), record(4));
    });
    dma.enqueue(at(base + kMiB), record(3));
  });
  EXPECT_EQ(fired, (std::vector<std::pair<int, bool>>{{0, false}}));
  EXPECT_EQ(dma.in_flight(), 1u);
  EXPECT_EQ(dma.queued(), 2u);
  sim_.run();
  EXPECT_EQ(fired, (std::vector<std::pair<int, bool>>{
                       {0, false}, {1, true}, {2, false}, {3, true}, {4, true}}));
  EXPECT_EQ(dma.in_flight(), 0u);
  EXPECT_EQ(dma.queued(), 0u);
}

TEST_F(DmaTest, Validation) {
  EXPECT_THROW(DmaEngine(sim_, fabric_, compute_, 0, 4096), std::invalid_argument);
  EXPECT_THROW(DmaEngine(sim_, fabric_, compute_, 2, 0), std::invalid_argument);
  DmaEngine dma{sim_, fabric_, compute_};
  DmaDescriptor empty;
  empty.address = attachment_.compute_base;
  EXPECT_THROW(dma.enqueue(empty, nullptr), std::invalid_argument);
}

// --- chunk trains: the streamed path against the full fabric walk ---

/// DMA chunk trains pinned end to end. One compute brick reaches four
/// single-controller dMEMBRICKs: DDR in its own tray (electrical), DDR
/// across trays on one optical circuit, DDR across trays on a 2-lane bond
/// and HMC across trays. Each medium carries a 256 KiB write and a 256 KiB
/// read on two DMA channels while a 64 B read is issued on the same window
/// every 1.5 us, so chunks and word reads queue on one link and one
/// controller. The expected ticks were recorded when every chunk took the
/// full fabric walk; the streamed path must reproduce them exactly.
class DmaStreamPinTest : public ::testing::Test {
 protected:
  DmaStreamPinTest() : circuits_{switch_, telemetry_}, fabric_{rack_, circuits_, telemetry_} {
    const hw::TrayId tray_a = rack_.add_tray();
    const hw::TrayId tray_b = rack_.add_tray();
    compute_ = rack_.add_compute_brick(tray_a).id();
    hw::MemoryBrickConfig ddr;
    ddr.capacity_bytes = 4ull << 30;
    ddr.memory_controllers = 1;
    hw::MemoryBrickConfig hmc = ddr;
    hmc.technology = hw::MemoryTechnology::kHmc;
    electrical_ = rack_.add_memory_brick(tray_a, ddr).id();
    optical_ = rack_.add_memory_brick(tray_b, ddr).id();
    bonded_ = rack_.add_memory_brick(tray_b, ddr).id();
    hmc_ = rack_.add_memory_brick(tray_b, hmc).id();
  }

  std::uint64_t attach(hw::BrickId membrick, LinkMedium expected, std::size_t lanes = 1) {
    AttachRequest req;
    req.compute = compute_;
    req.membrick = membrick;
    req.bytes = kGiB;
    req.lanes = lanes;
    const auto a = fabric_.attach(req, Time::zero());
    EXPECT_TRUE(a.has_value());
    EXPECT_EQ(a->medium, expected);
    EXPECT_EQ(a->lanes, lanes);
    return a->compute_base;
  }

  /// "write=ticks;read=ticks;words=n:sum" — both transfers' completion
  /// ticks, then the count and summed completion ticks of the word reads.
  std::string run(std::uint64_t base) {
    DmaEngine dma{sim_, fabric_, compute_};
    DmaCompletion write;
    DmaCompletion read;
    DmaDescriptor w;
    w.address = base;
    w.bytes = 256 * 1024;
    dma.enqueue(w, [&](const DmaCompletion& c) { write = c; });
    DmaDescriptor r = w;
    r.address = base + kMiB;
    r.direction = TransactionKind::kRead;
    dma.enqueue(r, [&](const DmaCompletion& c) { read = c; });
    std::size_t words = 0;
    std::uint64_t word_ticks = 0;
    for (std::uint64_t i = 0; i < 100; ++i) {
      sim_.at(Time::ns(1500.0 * static_cast<double>(i)), [&, i] {
        const Transaction tx = fabric_.read(compute_, base + 2 * kMiB + 64 * i, 64, sim_.now());
        EXPECT_TRUE(tx.ok());
        ++words;
        word_ticks += static_cast<std::uint64_t>(tx.completed_at.ticks());
      });
    }
    sim_.run();
    EXPECT_TRUE(write.ok) << write.error;
    EXPECT_TRUE(read.ok) << read.error;
    EXPECT_EQ(write.chunks, 64u);
    return "write=" + std::to_string(write.completed_at.ticks()) +
           ";read=" + std::to_string(read.completed_at.ticks()) +
           ";words=" + std::to_string(words) + ":" + std::to_string(word_ticks);
  }

  sim::Simulator sim_;
  sim::Telemetry telemetry_;
  hw::Rack rack_;
  optics::OpticalSwitch switch_;
  optics::CircuitManager circuits_;
  RemoteMemoryFabric fabric_;
  hw::BrickId compute_;
  hw::BrickId electrical_;
  hw::BrickId optical_;
  hw::BrickId bonded_;
  hw::BrickId hmc_;
};

TEST_F(DmaStreamPinTest, ElectricalTrainIsPinned) {
  EXPECT_EQ(run(attach(electrical_, LinkMedium::kElectrical)),
            "write=160371200;read=162870600;words=100:7558661800");
}

TEST_F(DmaStreamPinTest, OpticalTrainIsPinned) {
  EXPECT_EQ(run(attach(optical_, LinkMedium::kOptical)),
            "write=250432000;read=254214200;words=100:7641971400");
}

TEST_F(DmaStreamPinTest, BondedTrainIsPinned) {
  EXPECT_EQ(run(attach(bonded_, LinkMedium::kOptical, 2)),
            "write=145369600;read=147448400;words=100:7550731200");
}

TEST_F(DmaStreamPinTest, HmcTrainIsPinned) {
  EXPECT_EQ(run(attach(hmc_, LinkMedium::kOptical)),
            "write=242918400;read=246527800;words=100:7629560400");
}

/// A control-plane change landing while chunk trains are in flight.
enum class Upset : std::uint8_t {
  kFailCircuit,       // fabric cuts the fibre; no repair
  kSwitchPortTorn,    // a switch port dies, the fabric is told at once
  kTornUnnoticed,     // a switch port dies, the fabric is told 20 us later
  kBrickCrash,        // the dMEMBRICK crashes, restored 30 us later
  kCorruptRmst,       // the RMST entry is corrupted, scrubbed 30 us later
  kRelocate,          // the segment moves to another dMEMBRICK
  kMigrate,           // the window moves to another dCOMPUBRICK
  kDetach,            // the window is detached
  kFailover,          // the link moves to the packet substrate
  kFailRepair,        // fibre cut, repaired 30 us later
};

enum class Carrier : std::uint8_t { kElectrical, kOptical, kBonded };

std::string to_string(Upset u) {
  switch (u) {
    case Upset::kFailCircuit: return "fail_circuit";
    case Upset::kSwitchPortTorn: return "switch_port_torn";
    case Upset::kTornUnnoticed: return "torn_unnoticed";
    case Upset::kBrickCrash: return "brick_crash";
    case Upset::kCorruptRmst: return "corrupt_rmst";
    case Upset::kRelocate: return "relocate";
    case Upset::kMigrate: return "migrate";
    case Upset::kDetach: return "detach";
    case Upset::kFailover: return "failover";
    case Upset::kFailRepair: return "fail_repair";
  }
  return "unknown";
}

std::string to_string(Carrier c) {
  switch (c) {
    case Carrier::kElectrical: return "electrical";
    case Carrier::kOptical: return "optical";
    case Carrier::kBonded: return "bonded";
  }
  return "unknown";
}

/// One synchronous read or write, whichever path priced it.
struct SyncOp {
  TransactionStatus status = TransactionStatus::kOk;
  Time issued_at;
  Time completed_at;
  std::uint32_t retries = 0;
  bool operator==(const SyncOp&) const = default;
};

std::ostream& operator<<(std::ostream& os, const SyncOp& op) {
  return os << to_string(op.status) << " " << op.issued_at.ticks() << "->"
            << op.completed_at.ticks() << " retries " << op.retries;
}

/// Everything a run leaves behind that the two paths must agree on.
struct TrainOutcome {
  std::vector<DmaCompletion> completions;
  std::vector<SyncOp> ops;
  /// Sync ops the fabric priced from a held route (the rest walked).
  std::size_t held_ops = 0;
  std::uint64_t tgl_hits = 0;
  std::uint64_t tgl_misses = 0;
  /// memsys.* instruments: name, counter value or histogram count, and
  /// histogram sum (0 for counters).
  std::vector<std::tuple<std::string, std::uint64_t, double>> metrics;
};

/// One rack: a compute brick attached to a dMEMBRICK over `carrier`, a
/// spare dMEMBRICK and a second compute brick to relocate or migrate to,
/// and a packet substrate reaching all of them.
struct TrainRig {
  explicit TrainRig(Carrier carrier)
      : circuits{optical_switch, telemetry}, fabric{rack, circuits, telemetry}, packet{telemetry} {
    const hw::TrayId tray_a = rack.add_tray();
    const hw::TrayId tray_b = rack.add_tray();
    compute = rack.add_compute_brick(tray_a).id();
    other_compute = rack.add_compute_brick(tray_a).id();
    membrick = rack.add_memory_brick(carrier == Carrier::kElectrical ? tray_a : tray_b).id();
    spare = rack.add_memory_brick(tray_b).id();
    for (const hw::BrickId b : {compute, other_compute, membrick, spare}) packet.add_brick(b);
    fabric.set_packet_network(&packet);
    telemetry.metrics().enable();
    AttachRequest req;
    req.compute = compute;
    req.membrick = membrick;
    req.bytes = kGiB;
    req.lanes = carrier == Carrier::kBonded ? 2 : 1;
    attachment = *fabric.attach(req, Time::zero());
  }

  /// The first switch port of the attachment's primary circuit (none for
  /// backplane links).
  std::optional<std::size_t> switch_port() const {
    const optics::Circuit* c = circuits.find(attachment.circuit);
    if (c == nullptr) return std::nullopt;
    return c->switch_ports.front();
  }

  void upset(Upset u) {
    const Time at = Time::us(150);
    const Time later = Time::us(180);
    const hw::SegmentId seg = attachment.segment;
    switch (u) {
      case Upset::kFailCircuit:
        sim.at(at, [this] { fabric.fail_circuit(attachment.circuit); });
        break;
      case Upset::kSwitchPortTorn:
        sim.at(at, [this] {
          if (const auto port = switch_port()) {
            fabric.on_circuits_torn(circuits.fail_switch_port(*port));
          }
        });
        break;
      case Upset::kTornUnnoticed:
        sim.at(at, [this] {
          if (const auto port = switch_port()) torn = circuits.fail_switch_port(*port);
        });
        sim.at(Time::us(170), [this] { fabric.on_circuits_torn(torn); });
        break;
      case Upset::kBrickCrash:
        sim.at(at, [this] { rack.brick(membrick).fail(); });
        sim.at(later, [this] { rack.brick(membrick).restore(); });
        break;
      case Upset::kCorruptRmst:
        sim.at(at, [this] { fabric.corrupt_rmst(compute); });
        sim.at(later, [this] { fabric.scrub_rmst(compute); });
        break;
      case Upset::kRelocate:
        sim.at(at, [this, seg] { fabric.relocate_segment(compute, seg, spare, sim.now()); });
        break;
      case Upset::kMigrate:
        sim.at(at, [this, seg] { fabric.migrate_attachment(seg, compute, other_compute, sim.now()); });
        break;
      case Upset::kDetach:
        sim.at(at, [this, seg] { fabric.detach(compute, seg); });
        break;
      case Upset::kFailover:
        sim.at(at, [this, seg] { fabric.failover_to_packet(compute, seg, sim.now()); });
        break;
      case Upset::kFailRepair:
        sim.at(at, [this] { fabric.fail_circuit(attachment.circuit); });
        sim.at(later, [this, seg] { fabric.repair(compute, seg, sim.now()); });
        break;
    }
  }

  /// A 1 MiB write and a 1 MiB read, plus two short transfers that end
  /// before the upset: one whose last chunk is short and one that runs off
  /// the end of the window. Four channels, run to completion.
  TrainOutcome run() {
    TrainOutcome out;
    out.completions.resize(4);
    DmaEngine dma{sim, fabric, compute, /*channels=*/4};
    DmaDescriptor w;
    w.address = attachment.compute_base;
    w.bytes = kMiB;
    DmaDescriptor r = w;
    r.address = attachment.compute_base + 4 * kMiB;
    r.direction = TransactionKind::kRead;
    DmaDescriptor ragged = w;
    ragged.address = attachment.compute_base + 8 * kMiB;
    ragged.bytes = 16 * 1024 + 1000;
    DmaDescriptor overrun = w;
    overrun.address = attachment.compute_base + attachment.size - 8 * 1024;
    overrun.bytes = 16 * 1024;
    std::size_t i = 0;
    for (const DmaDescriptor& d : {w, r, ragged, overrun}) {
      dma.enqueue(d, [&out, i](const DmaCompletion& c) { out.completions[i] = c; });
      ++i;
    }
    sim.run();
    collect(out);
    return out;
  }

  /// 64 B reads and writes alternating every 2 us across the upset on one
  /// window, over one held route, as a VM window or a rack gateway issues
  /// them.
  TrainOutcome run_sync() {
    constexpr int kOps = 200;
    TrainOutcome out;
    out.ops.reserve(kOps);
    RemoteMemoryFabric::HeldRoute held;
    for (int i = 0; i < kOps; ++i) {
      sim.at(Time::us(2 * i), [this, &out, &held, i] {
        const TransactionKind kind = i % 2 == 0 ? TransactionKind::kRead : TransactionKind::kWrite;
        // Strides of 65 words cross 4 KiB pages, so the ops spread over
        // the dMEMBRICK's memory controllers.
        const std::uint64_t address =
            attachment.compute_base + static_cast<std::uint64_t>(i) * 65 * 64;
        const Time now = sim.now();
        const auto tx = fabric.transact(held, kind, compute, address, 64, now);
        out.ops.push_back(SyncOp{tx.status, now, tx.completed_at, tx.retries});
      });
    }
    sim.run();
    out.held_ops = FabricTestAccess::held_transactions(fabric);
    collect(out);
    return out;
  }

  /// Adds the TGL counts and the memsys.* instruments to `out`.
  void collect(TrainOutcome& out) const {
    for (const hw::BrickId b : {compute, other_compute}) {
      out.tgl_hits += rack.compute_brick(b).tgl().hits();
      out.tgl_misses += rack.compute_brick(b).tgl().misses();
    }
    const auto& m = telemetry.metrics();
    for (const std::string& name : m.names()) {
      if (name.rfind("memsys.", 0) != 0) continue;
      if (const auto* c = m.find_counter(name)) out.metrics.emplace_back(name, c->value(), 0.0);
      if (const auto* h = m.find_histogram(name)) {
        out.metrics.emplace_back(name, h->count(), h->sum());
      }
    }
  }

  sim::Simulator sim;
  sim::Telemetry telemetry;
  hw::Rack rack;
  optics::OpticalSwitch optical_switch;
  optics::CircuitManager circuits;
  RemoteMemoryFabric fabric;
  net::PacketNetwork packet;
  hw::BrickId compute;
  hw::BrickId other_compute;
  hw::BrickId membrick;
  hw::BrickId spare;
  Attachment attachment;
  std::vector<optics::Circuit> torn;
};

using TrainParam = std::tuple<Carrier, Upset, bool>;

/// A rig for the param's carrier with its upset scheduled, run to the end:
/// the chunk trains, or with `sync` the synchronous op stream.
TrainOutcome run_rig(const TrainParam& param, bool tracing, bool sync) {
  const auto [carrier, upset, retry] = param;
  TrainRig rig{carrier};
  if (retry) {
    sim::RetryPolicy policy;
    policy.initial_backoff = Time::us(5);
    rig.fabric.set_retry_policy(policy);
  }
  if (tracing) rig.telemetry.tracer().enable();
  rig.upset(upset);
  return sync ? rig.run_sync() : rig.run();
}

const auto kTrainParams = ::testing::Combine(
    ::testing::Values(Carrier::kElectrical, Carrier::kOptical, Carrier::kBonded),
    ::testing::Values(Upset::kFailCircuit, Upset::kSwitchPortTorn, Upset::kTornUnnoticed,
                      Upset::kBrickCrash, Upset::kCorruptRmst, Upset::kRelocate,
                      Upset::kMigrate, Upset::kDetach, Upset::kFailover, Upset::kFailRepair),
    ::testing::Bool());

std::string train_param_name(const ::testing::TestParamInfo<TrainParam>& info) {
  return to_string(std::get<0>(info.param)) + "_" + to_string(std::get<1>(info.param)) +
         (std::get<2>(info.param) ? "_retry" : "_failfast");
}

/// Tracing forces every chunk through the full fabric walk and is
/// digest-neutral by contract, so a traced run is the oracle for the
/// untraced one, whose chunks stream over their held path.
class DmaStreamDifferentialTest : public ::testing::TestWithParam<TrainParam> {
 protected:
  static TrainOutcome run(bool tracing) { return run_rig(GetParam(), tracing, /*sync=*/false); }
};

TEST_P(DmaStreamDifferentialTest, UntracedTrainMatchesTheTracedWalk) {
  const TrainOutcome walked = run(/*tracing=*/true);
  const TrainOutcome streamed = run(/*tracing=*/false);
  ASSERT_EQ(walked.completions.size(), streamed.completions.size());
  for (std::size_t i = 0; i < walked.completions.size(); ++i) {
    SCOPED_TRACE("transfer " + std::to_string(i));
    const DmaCompletion& a = walked.completions[i];
    const DmaCompletion& b = streamed.completions[i];
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.bytes, b.bytes);
    EXPECT_EQ(a.chunks, b.chunks);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.enqueued_at, b.enqueued_at);
    EXPECT_EQ(a.completed_at, b.completed_at);
  }
  EXPECT_EQ(walked.tgl_hits, streamed.tgl_hits);
  EXPECT_EQ(walked.tgl_misses, streamed.tgl_misses);
  EXPECT_EQ(walked.metrics, streamed.metrics);
  // The trains moved traffic before the upset; the short transfers ended
  // before it, one whole and one at the end of its window.
  EXPECT_GT(streamed.completions[0].chunks + streamed.completions[1].chunks, 0u);
  EXPECT_TRUE(streamed.completions[2].ok) << streamed.completions[2].error;
  EXPECT_EQ(streamed.completions[2].chunks, 5u);
  EXPECT_FALSE(streamed.completions[3].ok);
  EXPECT_EQ(streamed.completions[3].bytes, 8u * 1024);
  EXPECT_LT(std::max(streamed.completions[2].completed_at, streamed.completions[3].completed_at),
            Time::us(150));
}

INSTANTIATE_TEST_SUITE_P(Upsets, DmaStreamDifferentialTest, kTrainParams, train_param_name);

/// The same oracle for synchronous ops: each kind rides its own held path
/// untraced, and must leave exactly what the traced walk leaves.
class SyncHeldRouteDifferentialTest : public ::testing::TestWithParam<TrainParam> {
 protected:
  static TrainOutcome run(bool tracing) { return run_rig(GetParam(), tracing, /*sync=*/true); }
};

TEST_P(SyncHeldRouteDifferentialTest, UntracedOpsMatchTheTracedWalk) {
  const TrainOutcome walked = run(/*tracing=*/true);
  const TrainOutcome held = run(/*tracing=*/false);
  ASSERT_EQ(walked.ops.size(), held.ops.size());
  for (std::size_t i = 0; i < walked.ops.size(); ++i) {
    EXPECT_EQ(walked.ops[i], held.ops[i]) << "op " << i;
  }
  EXPECT_EQ(walked.tgl_hits, held.tgl_hits);
  EXPECT_EQ(walked.tgl_misses, held.tgl_misses);
  EXPECT_EQ(walked.metrics, held.metrics);
  // Tracing forces every op through the walk; untraced, the ops before
  // the upset (75 of them, at 0-148 us) ride their held routes.
  EXPECT_EQ(walked.held_ops, 0u);
  EXPECT_GE(held.held_ops, 75u);
}

INSTANTIATE_TEST_SUITE_P(Upsets, SyncHeldRouteDifferentialTest, kTrainParams, train_param_name);

/// A train is one event re-armed step by step, and a retry re-arms it
/// under the retry's label. The kernel profile must still count every
/// chunk continuation under memsys.dma.step — the chunks after a retry
/// included — and every retry under memsys.dma.retry.
TEST(DmaTrainProfileTest, ChunksAfterARetryCountAsSteps) {
  for (const Upset upset : {Upset::kFailRepair, Upset::kBrickCrash, Upset::kCorruptRmst}) {
    SCOPED_TRACE(to_string(upset));
    TrainRig rig{Carrier::kOptical};
    sim::RetryPolicy policy;
    policy.initial_backoff = Time::us(5);
    rig.fabric.set_retry_policy(policy);
    rig.upset(upset);
    rig.sim.queue().enable_profiling();
    const TrainOutcome out = rig.run();
    std::uint64_t chunks = 0;
    std::uint64_t retries = 0;
    for (const DmaCompletion& c : out.completions) {
      chunks += c.chunks;
      retries += c.retries;
    }
    std::uint64_t step_events = 0;
    std::uint64_t retry_events = 0;
    for (const sim::KernelProfileEntry& row : rig.sim.queue().kernel_profile()) {
      if (row.label == "memsys.dma.step") step_events = row.dispatches;
      if (row.label == "memsys.dma.retry") retry_events = row.dispatches;
    }
    // Every landed chunk continues its train with one step event (the
    // last one completes the transfer); every scheduled retry fires once.
    EXPECT_EQ(step_events, chunks);
    EXPECT_EQ(retry_events, retries);
    if (upset == Upset::kFailRepair) {
      EXPECT_GT(retries, 0u) << "the upset must send a chunk through a retry";
      EXPECT_TRUE(out.completions[0].ok && out.completions[1].ok)
          << "the trains must land chunks after the retry";
    }
  }
}

/// A held slot keeps its optical circuit's pointer and re-runs
/// CircuitManager::find only once the manager's teardown count has moved.
/// `teardown_own` picks whose circuit the manager tears, behind the
/// fabric's back (no on_circuits_torn): an unrelated one, or the slot's.
/// Ops run at 0, 2, 4, ... us; the teardown lands just before op 3.
TrainOutcome run_teardown(bool tracing, bool teardown_own) {
  TrainRig rig{Carrier::kOptical};
  if (tracing) rig.telemetry.tracer().enable();
  optics::CircuitRequest unrelated;
  unrelated.a = optics::CircuitEndpoint{rig.other_compute, hw::PortId{0}, -3.7, 1.2};
  unrelated.b = optics::CircuitEndpoint{rig.spare, hw::PortId{0}, -3.7, 1.2};
  const hw::CircuitId bystander = rig.circuits.establish(unrelated)->id;
  TrainOutcome out;
  RemoteMemoryFabric::HeldRoute held;
  for (int i = 0; i < 6; ++i) {
    if (i == 3) {
      const std::uint64_t before = rig.circuits.teardowns();
      EXPECT_TRUE(rig.circuits.teardown(teardown_own ? rig.attachment.circuit : bystander));
      EXPECT_EQ(rig.circuits.teardowns(), before + 1);
    }
    const TransactionKind kind = i % 2 == 0 ? TransactionKind::kRead : TransactionKind::kWrite;
    const Time now = Time::us(2 * i);
    const auto tx = rig.fabric.transact(held, kind, rig.compute,
                                        rig.attachment.compute_base + 4096 * i, 64, now);
    out.ops.push_back(SyncOp{tx.status, now, tx.completed_at, tx.retries});
  }
  out.held_ops = FabricTestAccess::held_transactions(rig.fabric);
  rig.collect(out);
  return out;
}

TEST(HeldRouteTeardownTest, AnUnrelatedTeardownKeepsTheRouteRiding) {
  const TrainOutcome held = run_teardown(/*tracing=*/false, /*teardown_own=*/false);
  const TrainOutcome walked = run_teardown(/*tracing=*/true, /*teardown_own=*/false);
  // Every op rode the held route, the three after the teardown included.
  EXPECT_EQ(held.held_ops, 6u);
  EXPECT_EQ(held.tgl_misses, 0u);
  EXPECT_EQ(walked.held_ops, 0u);
  EXPECT_EQ(held.ops, walked.ops);
  EXPECT_EQ(held.metrics, walked.metrics);
  for (const SyncOp& op : held.ops) EXPECT_EQ(op.status, TransactionStatus::kOk);
}

TEST(HeldRouteTeardownTest, TearingTheSlotsOwnCircuitFallsBackToTheWalk) {
  const TrainOutcome held = run_teardown(/*tracing=*/false, /*teardown_own=*/true);
  const TrainOutcome walked = run_teardown(/*tracing=*/true, /*teardown_own=*/true);
  ASSERT_EQ(held.ops.size(), walked.ops.size());
  for (std::size_t i = 0; i < held.ops.size(); ++i) {
    EXPECT_EQ(held.ops[i], walked.ops[i]) << "op " << i;
  }
  EXPECT_EQ(held.metrics, walked.metrics);
  // The first three rode the held route; from the teardown on, the slot
  // found its circuit gone and every op took the walk, which reports it.
  EXPECT_EQ(held.held_ops, 3u);
  EXPECT_EQ(held.ops[2].status, TransactionStatus::kOk);
  EXPECT_EQ(held.ops[3].status, TransactionStatus::kCircuitDown);
}

/// A link moved to the packet substrate has no circuit: a held slot that
/// resolves to it must walk every op, as the traced walk does, without
/// reading a circuit (Route::circuit is null there).
TEST(HeldRoutePacketTest, APacketLinkWalksEveryOp) {
  const auto run = [](bool tracing) {
    TrainRig rig{Carrier::kOptical};
    if (tracing) rig.telemetry.tracer().enable();
    EXPECT_TRUE(rig.fabric.failover_to_packet(rig.compute, rig.attachment.segment, Time::zero()));
    return rig.run_sync();
  };
  const TrainOutcome held = run(/*tracing=*/false);
  const TrainOutcome walked = run(/*tracing=*/true);
  EXPECT_EQ(held.ops, walked.ops);
  EXPECT_EQ(held.metrics, walked.metrics);
  EXPECT_EQ(held.tgl_hits, walked.tgl_hits);
  EXPECT_EQ(held.held_ops, 0u);
  for (const SyncOp& op : held.ops) EXPECT_EQ(op.status, TransactionStatus::kOk);
}

}  // namespace
}  // namespace dredbox::memsys
