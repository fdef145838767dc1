// Google-benchmark microbenchmarks for the hot paths of the simulation
// substrate itself (these measure the *implementation*, not the modelled
// hardware): RMST associative lookup, event-queue throughput, random
// draws, segment allocator churn, packet-path evaluation, and TCO
// scheduling throughput.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <numeric>
#include <random>
#include <span>
#include <vector>

#include "core/datacenter.hpp"
#include "hw/rmst.hpp"
#include "memsys/dma.hpp"
#include "sim/breakdown.hpp"
#include "memsys/remote_memory.hpp"
#include "net/packet_network.hpp"
#include "reference_event_queue.hpp"
#include "sim/arena.hpp"
#include "sim/event_queue.hpp"
#include "sim/partition.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tco/conventional_dc.hpp"
#include "tco/disaggregated_dc.hpp"
#include "tco/workload.hpp"
#include "workload/engine.hpp"

// Process-wide heap-allocation counter, so the allocation-free benches prove
// their paths allocation-free rather than assert it. Every replaceable
// allocation function is replaced, nothrow and aligned forms included: one
// left to the runtime would escape the count and, under ASan, be freed here
// by a mismatched deallocator. This binary is standalone, so the
// replacements cannot leak into the library or tests.
static std::atomic<std::uint64_t> g_heap_allocs{0};

static void* counted_alloc(std::size_t size, std::size_t align = 0) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  size = size ? size : 1;
  return align ? std::aligned_alloc(align, (size + align - 1) / align * align)
               : std::malloc(size);
}
static void* counted_alloc_or_throw(std::size_t size, std::size_t align = 0) {
  if (void* p = counted_alloc(size, align)) return p;
  throw std::bad_alloc{};
}

using AlignT = std::align_val_t;
using NothrowT = std::nothrow_t;
void* operator new(std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new[](std::size_t n) { return counted_alloc_or_throw(n); }
void* operator new(std::size_t n, AlignT a) { return counted_alloc_or_throw(n, std::size_t(a)); }
void* operator new[](std::size_t n, AlignT a) { return counted_alloc_or_throw(n, std::size_t(a)); }
void* operator new(std::size_t n, const NothrowT&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const NothrowT&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, AlignT a, const NothrowT&) noexcept {
  return counted_alloc(n, std::size_t(a));
}
void* operator new[](std::size_t n, AlignT a, const NothrowT&) noexcept {
  return counted_alloc(n, std::size_t(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, AlignT) noexcept { std::free(p); }
void operator delete[](void* p, AlignT) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, AlignT) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, AlignT) noexcept { std::free(p); }
void operator delete(void* p, const NothrowT&) noexcept { std::free(p); }
void operator delete[](void* p, const NothrowT&) noexcept { std::free(p); }
void operator delete(void* p, AlignT, const NothrowT&) noexcept { std::free(p); }
void operator delete[](void* p, AlignT, const NothrowT&) noexcept { std::free(p); }

// Set when any allocation-free bench saw a heap allocation or measured
// something other than the path it names; main() turns it into the exit
// status (google-benchmark itself exits 0 on a failed bench).
static bool g_alloc_gate_failed = false;

static void fail_gate(benchmark::State& state, const char* why) {
  g_alloc_gate_failed = true;
  state.SkipWithError(why);
}

namespace dredbox::memsys {

/// White-box access: how many transactions the fabric priced from a held
/// route rather than walked.
struct FabricTestAccess {
  static std::uint64_t held_transactions(const RemoteMemoryFabric& fabric) {
    return fabric.held_transactions_;
  }
};

}  // namespace dredbox::memsys

namespace {

using namespace dredbox;

// Counts the heap allocations made inside the measured ops of one
// allocation-free bench. check() records them per op as a counter and
// fails the bench unless there were none.
class AllocGate {
 public:
  template <class Op>
  void count(Op&& op) {
    const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
    op();
    allocs_ += g_heap_allocs.load(std::memory_order_relaxed) - before;
  }
  void check(benchmark::State& state, const char* counter, std::uint64_t ops) {
    state.counters[counter] =
        static_cast<double>(allocs_) / static_cast<double>(std::max<std::uint64_t>(ops, 1));
    if (allocs_ == 0) return;
    fail_gate(state, "heap allocation on an allocation-free path");
  }

 private:
  std::uint64_t allocs_ = 0;
};

// An RMST of `entries` 1 GiB windows laid end to end from kRmstBase.
constexpr std::uint64_t kRmstBase = 1ull << 40;
hw::Rmst make_rmst(std::size_t entries) {
  hw::Rmst rmst{entries};
  for (std::size_t i = 0; i < entries; ++i) {
    hw::RmstEntry e;
    e.segment = hw::SegmentId{static_cast<std::uint32_t>(i + 1)};
    e.base = kRmstBase + (static_cast<std::uint64_t>(i) << 30);
    e.size = 1ull << 30;
    e.dest_brick = hw::BrickId{1};
    rmst.insert(e);
  }
  return rmst;
}

// Two trays of two compute and two memory bricks: the datacenter the
// remote-read and workload-window benches boot their VMs on.
core::DatacenterConfig two_tray_config() {
  core::DatacenterConfig config;
  config.trays = 2;
  config.compute_bricks_per_tray = 2;
  config.memory_bricks_per_tray = 2;
  return config;
}

// A compute brick and an 8 GiB memory brick joined by a 1 GiB attachment:
// the fabric the DMA and chunk-write benches walk. On two trays (the
// default) the attachment rides an optical circuit through the rack
// switch; on one tray, the tray's electrical backplane.
struct AttachedPair {
  sim::Telemetry telemetry;
  hw::Rack rack;
  optics::OpticalSwitch sw;
  optics::CircuitManager circuits{sw, telemetry};
  memsys::RemoteMemoryFabric fabric{rack, circuits, telemetry};
  hw::BrickId cpu;
  std::uint64_t base = 0;  // compute-side base address of the attachment
  memsys::LinkMedium medium = memsys::LinkMedium::kOptical;

  explicit AttachedPair(bool same_tray = false) {
    const hw::TrayId tray_a = rack.add_tray();
    const hw::TrayId tray_b = same_tray ? tray_a : rack.add_tray();
    cpu = rack.add_compute_brick(tray_a).id();
    hw::MemoryBrickConfig mc;
    mc.capacity_bytes = 8ull << 30;
    memsys::AttachRequest req;
    req.compute = cpu;
    req.membrick = rack.add_memory_brick(tray_b, mc).id();
    req.bytes = 1ull << 30;
    const auto attachment = fabric.attach(req, sim::Time::zero());
    base = attachment->compute_base;
    medium = attachment->medium;
  }
};

void BM_RmstLookup(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  const hw::Rmst rmst = make_rmst(entries);
  std::uint64_t addr = kRmstBase + (entries / 2 << 30) + 64;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rmst.find(addr));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RmstLookup)->Arg(4)->Arg(16)->Arg(32);

// Same table, but every lookup targets a different segment than the last,
// defeating the one-entry MRU cache: this measures the base-sorted
// interval index alone (the worst case for clustered remote traffic).
void BM_RmstLookupStrided(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  const hw::Rmst rmst = make_rmst(entries);
  std::vector<std::uint64_t> addrs;
  for (std::size_t i = 0; i < entries; ++i) addrs.push_back(kRmstBase + (i << 30) + 64);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rmst.find(addrs[i]));
    i = (i + 1) % addrs.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RmstLookupStrided)->Arg(4)->Arg(16)->Arg(32);

// Address below every window: the miss path (MRU miss + one index probe).
void BM_RmstLookupMiss(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  const hw::Rmst rmst = make_rmst(entries);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rmst.find(0x1000));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RmstLookupMiss)->Arg(32);

// Breakdown::charge by compile-time component id: every transaction in the
// datapath charges several components, so allocs_per_op must read 0.
void BM_BreakdownCharge(benchmark::State& state) {
  sim::Breakdown breakdown;
  breakdown.charge(sim::component("serialization"), sim::Time::ns(1));
  breakdown.charge(sim::component("optical propagation"), sim::Time::ns(1));
  breakdown.charge(sim::component("MAC/PHY (dCOMPUBRICK)"), sim::Time::ns(1));
  breakdown.charge(sim::component("MAC/PHY (dMEMBRICK)"), sim::Time::ns(1));
  AllocGate allocs;
  for (auto _ : state) {
    allocs.count([&] {
      breakdown.charge(sim::component("MAC/PHY (dMEMBRICK)"), sim::Time::ns(1));
      benchmark::DoNotOptimize(breakdown);
    });
  }
  allocs.check(state, "allocs_per_op", state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BreakdownCharge);

// Repetition-minimum aggregate for the queue benches: this host is shared,
// so per-repetition means carry neighbor steal time (observed up to ~2x).
// The min across repetitions approximates the contention-free cost and is
// the statistic the old-vs-new kernel comparison quotes; scripts/bench.sh
// records it alongside the median.
double stat_min(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

// A fresh queue per iteration: /10000 is the batch figure README and
// DESIGN quote. Small batches measure construction more than queueing;
// BM_EventQueueHold below is the steady-state bench.
void BM_EventQueueScheduleDispatch(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue q;
    for (int i = 0; i < batch; ++i) {
      q.schedule(sim::Time::ns((i * 7919) % 100000), [] {});
    }
    benchmark::DoNotOptimize(q.run());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
// Many short repetitions rather than the global default: neighbor-steal
// bursts on this host last seconds, so a 0.5 s repetition mean can be
// inflated end to end. 25 x 50 ms repetitions give the min aggregate a
// real chance of landing inside clean windows (the median still reflects
// typical load).
BENCHMARK(BM_EventQueueScheduleDispatch)
    ->Arg(10000)
    ->MinTime(0.05)
    ->Repetitions(25)
    ->ComputeStatistics("min", stat_min);

// The retired binary-heap kernel (tests/sim/reference_event_queue.hpp)
// under the identical load, in the same process. The in-binary ratio
// BM_ReferenceQueueScheduleDispatch / BM_EventQueueScheduleDispatch is the
// calendar-queue speedup with host-load noise cancelled out — both benches
// see the same machine conditions, unlike cross-run comparisons against a
// checked-in BENCH_pr7 number recorded under different load.
void BM_ReferenceQueueScheduleDispatch(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ReferenceEventQueue q;
    for (int i = 0; i < batch; ++i) {
      q.schedule(sim::Time::ns((i * 7919) % 100000), [] {});
    }
    benchmark::DoNotOptimize(q.run());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ReferenceQueueScheduleDispatch)
    ->Arg(10000)
    ->MinTime(0.05)
    ->Repetitions(25)
    ->ComputeStatistics("min", stat_min);

// The hold model: a queue kept at `pending` events, each iteration pops
// the earliest and schedules one replacement a seeded random gap (mean
// 1 us) past the clock. This is the steady state a simulation runs in,
// so it measures queue mechanics with no construction in the loop.
template <class Queue>
void hold_bench(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  std::vector<sim::Time> gaps(1024);
  sim::Rng rng{7};
  for (auto& gap : gaps) gap = sim::Time::ps(rng.uniform_int(1, 2'000'000));
  Queue q;
  std::size_t next_gap = 0;
  const auto draw = [&] { return gaps[next_gap++ % gaps.size()]; };
  for (std::size_t i = 0; i < pending; ++i) q.schedule(draw(), [] {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(q.dispatch_one());
    q.schedule(q.now() + draw(), [] {});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
void BM_EventQueueHold(benchmark::State& state) { hold_bench<sim::EventQueue>(state); }
void BM_ReferenceQueueHold(benchmark::State& state) {
  hold_bench<sim::ReferenceEventQueue>(state);
}
BENCHMARK(BM_EventQueueHold)->Arg(8)->Arg(64)->Arg(256);
BENCHMARK(BM_ReferenceQueueHold)->Arg(8)->Arg(64)->Arg(256);

// The hold model of BM_EventQueueHold with the same gaps, but each action
// re-arms its own event instead of the loop scheduling a replacement: the
// queue keeps the same `pending` nodes for the whole run and never builds,
// moves or frees one. The gap to BM_EventQueueHold is what a
// self-rescheduling chain saves per step. 0 allocs/op.
void BM_EventQueueRearmHold(benchmark::State& state) {
  const auto pending = static_cast<std::size_t>(state.range(0));
  std::vector<sim::Time> gaps(1024);
  sim::Rng rng{7};
  for (auto& gap : gaps) gap = sim::Time::ps(rng.uniform_int(1, 2'000'000));
  sim::EventQueue q;
  std::size_t next_gap = 0;
  const auto draw = [&] { return gaps[next_gap++ % gaps.size()]; };
  for (std::size_t i = 0; i < pending; ++i) {
    q.schedule(draw(), [&q, &draw] { q.rearm(q.now() + draw()); });
  }
  const auto hop = [&q] { benchmark::DoNotOptimize(q.dispatch_one()); };
  for (int i = 0; i < 1 << 16; ++i) hop();  // warm-up: the drain reaches its working size
  AllocGate allocs;
  for (auto _ : state) allocs.count(hop);
  allocs.check(state, "allocs_per_op", state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueRearmHold)->Arg(8)->Arg(64)->Arg(256);

// sim::Rng's per-op draws over std::mt19937_64, the engine Rng replaced:
// the same-process baseline for BM_RngDraw, as the reference heap is for
// the queue benches. tests/sim/test_random.cpp pins both to equal outputs,
// so BM_ReferenceRngDraw / BM_RngDraw is the engine's speedup alone.
class ReferenceRng {
 public:
  explicit ReferenceRng(std::uint64_t seed) : engine_{seed} {}
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }
  std::size_t weighted_index(std::span<const double> weights) {
    double x = std::uniform_real_distribution<double>{
        0.0, std::accumulate(weights.begin(), weights.end(), 0.0)}(engine_);
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0) return i;
    }
    return weights.size() - 1;
  }

 private:
  std::mt19937_64 engine_;
};

// The three draws a workload op makes (op kind, address, think time) and
// the raw engine output beneath them. Each iteration is one draw; 0
// allocs/op.
enum class RngDraw { kEngine, kUniformInt, kExponential, kWeightedIndex };

template <class Draw>
void gated_draws(benchmark::State& state, Draw draw) {
  AllocGate allocs;
  for (auto _ : state) allocs.count([&] { benchmark::DoNotOptimize(draw()); });
  allocs.check(state, "allocs_per_op", state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

template <class Engine, class Rng>
void rng_draws(benchmark::State& state, RngDraw kind) {
  static constexpr double kMix[] = {0.6, 0.3, 0.1};  // a read/write/DMA op mix
  Engine engine{1};
  Rng rng{1};
  switch (kind) {
    case RngDraw::kEngine: return gated_draws(state, [&] { return engine(); });
    case RngDraw::kUniformInt:
      return gated_draws(state, [&] { return rng.uniform_int(0, (std::int64_t{1} << 30) - 1); });
    case RngDraw::kExponential: return gated_draws(state, [&] { return rng.exponential(2.5); });
    case RngDraw::kWeightedIndex: return gated_draws(state, [&] { return rng.weighted_index(kMix); });
  }
}
void BM_RngDraw(benchmark::State& state, RngDraw kind) {
  rng_draws<sim::Mt19937_64, sim::Rng>(state, kind);
}
void BM_ReferenceRngDraw(benchmark::State& state, RngDraw kind) {
  rng_draws<std::mt19937_64, ReferenceRng>(state, kind);
}
BENCHMARK_CAPTURE(BM_RngDraw, engine, RngDraw::kEngine);
BENCHMARK_CAPTURE(BM_RngDraw, uniform_int, RngDraw::kUniformInt);
BENCHMARK_CAPTURE(BM_RngDraw, exponential, RngDraw::kExponential);
BENCHMARK_CAPTURE(BM_RngDraw, weighted_index, RngDraw::kWeightedIndex);
BENCHMARK_CAPTURE(BM_ReferenceRngDraw, engine, RngDraw::kEngine);
BENCHMARK_CAPTURE(BM_ReferenceRngDraw, uniform_int, RngDraw::kUniformInt);
BENCHMARK_CAPTURE(BM_ReferenceRngDraw, exponential, RngDraw::kExponential);
BENCHMARK_CAPTURE(BM_ReferenceRngDraw, weighted_index, RngDraw::kWeightedIndex);

// The event kernel's node pool in isolation: steady-state create/destroy
// (freelist pop/push, no growth) over a working set that spans several
// chunks. Complements BM_EventQueueScheduleDispatch by separating allocator
// cost from calendar bookkeeping.
void BM_ArenaAllocFree(benchmark::State& state) {
  struct NodeSized {
    std::uint64_t payload[10];  // ~the event node footprint
  };
  sim::IndexedArena<NodeSized> arena;
  constexpr int kWorkingSet = 1024;
  std::vector<std::uint32_t> slots;
  slots.reserve(kWorkingSet);
  for (int i = 0; i < kWorkingSet; ++i) slots.push_back(arena.create().second);
  int cursor = 0;
  for (auto _ : state) {
    arena.destroy(slots[static_cast<std::size_t>(cursor)]);
    slots[static_cast<std::size_t>(cursor)] = arena.create().second;
    benchmark::DoNotOptimize(slots.data());
    cursor = (cursor + 1) % kWorkingSet;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ArenaAllocFree);

// What arming the schedule auditor costs: one four-way-tie schedule and
// dispatch load, run disarmed (second argument 0) and with the identity
// perturbation armed (1, count each tie group, keep FIFO order). Both go
// through the queue's one dispatch loop, so the pair's difference is the
// armed step taken as each tie group opens.
void BM_EventQueuePerturbedDispatch(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  const bool armed = state.range(1) != 0;
  for (auto _ : state) {
    sim::EventQueue q;
    if (armed) {
      sim::SchedulePerturbation perturbation;
      perturbation.mode = sim::SchedulePerturbation::Mode::kIdentity;
      q.set_perturbation(perturbation);
    }
    for (int i = 0; i < batch; ++i) {
      // Four-way timestamp ties so batches actually form.
      q.schedule(sim::Time::ns(((i / 4) * 7919) % 100000), [] {});
    }
    benchmark::DoNotOptimize(q.run());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueuePerturbedDispatch)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->MinTime(0.05)
    ->Repetitions(25)
    ->ComputeStatistics("min", stat_min);

void BM_MemoryBrickAllocRelease(benchmark::State& state) {
  hw::MemoryBrickConfig cfg;
  cfg.capacity_bytes = 64ull << 30;
  hw::MemoryBrick brick{hw::BrickId{1}, hw::TrayId{1}, cfg};
  for (auto _ : state) {
    auto seg = brick.allocate(1ull << 30, hw::BrickId{2});
    benchmark::DoNotOptimize(seg);
    brick.release(seg->id);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemoryBrickAllocRelease);

void BM_PacketRoundTripEvaluation(benchmark::State& state) {
  sim::Telemetry telemetry;
  net::PacketNetwork network{telemetry};
  const hw::BrickId cpu{1}, mem{2};
  network.add_brick(cpu);
  network.add_brick(mem);
  network.connect(cpu, mem, 10.0);
  std::int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        network.remote_read(cpu, mem, 0x0, 64, sim::Time::us(static_cast<double>(10 * i++))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PacketRoundTripEvaluation);

void BM_FabricAttachDetach(benchmark::State& state) {
  hw::Rack rack;
  const hw::TrayId tray_a = rack.add_tray();
  const hw::TrayId tray_b = rack.add_tray();
  const hw::BrickId cpu = rack.add_compute_brick(tray_a).id();
  const hw::BrickId mem = rack.add_memory_brick(tray_b).id();
  sim::Telemetry telemetry;
  optics::OpticalSwitch sw;
  optics::CircuitManager circuits{sw, telemetry};
  memsys::RemoteMemoryFabric fabric{rack, circuits, telemetry};
  memsys::AttachRequest req;
  req.compute = cpu;
  req.membrick = mem;
  req.bytes = 1ull << 30;
  for (auto _ : state) {
    auto a = fabric.attach(req, sim::Time::zero());
    benchmark::DoNotOptimize(a);
    fabric.detach(cpu, a->segment);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FabricAttachDetach);

void BM_DmaMegabyteTransfer(benchmark::State& state) {
  AttachedPair pair;
  sim::Simulator sim;
  memsys::DmaEngine dma{sim, pair.fabric, pair.cpu, 2, 65536};
  for (auto _ : state) {
    memsys::DmaDescriptor d;
    d.address = pair.base;
    d.bytes = 1 << 20;
    bool done = false;
    dma.enqueue(d, [&](const memsys::DmaCompletion&) { done = true; });
    sim.run();
    benchmark::DoNotOptimize(done);
  }
  state.SetBytesProcessed(state.iterations() * (1 << 20));
}
BENCHMARK(BM_DmaMegabyteTransfer);

// --- telemetry overhead ---
//
// The observability contract has two halves. (1) The causal-tracing
// machinery on the dispatch path — enabled() guards and trace-context
// minting/propagation — must cost < 5% of an event dispatch whether the
// tracer is on or off, and the disabled path must never touch the heap
// (BM_EventDispatchTraceContext, BM_TracerDisabledHotPath). (2) Actually
// recording spans is opt-in and priced separately: the per-span cost
// (BM_TracerEnabledRecordSpan) and the full end-to-end price of a traced
// remote read with its 12-arg critical-path breakdown
// (BM_RemoteReadTelemetry/1 vs /0) are informational, not bounded.

void BM_EventDispatchTraceContext(benchmark::State& state) {
  const bool tracing = state.range(0) != 0;
  const int batch = 1000;
  sim::Tracer tracer;
  tracer.seed_trace_ids(1);
  if (tracing) tracer.enable();
  for (auto _ : state) {
    sim::EventQueue q;
    sim::TraceContext root = tracer.begin_trace();
    for (int i = 0; i < batch; ++i) {
      q.schedule(sim::Time::ns((i * 7919) % 100000), [&tracer, &root] {
        // The per-event share of causal tracing: one guard plus one
        // context derivation, exactly what an instrumented action pays
        // before deciding whether to record anything.
        sim::TraceContext ctx = tracer.child_of(root);
        benchmark::DoNotOptimize(ctx);
      });
    }
    benchmark::DoNotOptimize(q.run());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventDispatchTraceContext)->Arg(0)->Arg(1);

void BM_RemoteReadTelemetry(benchmark::State& state) {
  const bool tracing = state.range(0) != 0;
  core::Datacenter dc{two_tray_config()};
  // Metrics stay on in both variants so the /0-vs-/1 delta isolates the
  // causal-tracing machinery alone.
  dc.metrics().enable();
  if (tracing) dc.tracer().enable();
  const auto vm = dc.boot_vm("bench-guest", /*vcpus=*/2, /*memory=*/2ull << 30);
  const auto up = dc.scale_up(vm.vm, vm.compute, 2ull << 30);
  benchmark::DoNotOptimize(up.ok);
  const auto attachment = dc.fabric().attachments_of(vm.compute).front();
  std::uint64_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dc.remote_read(vm.compute, attachment.compute_base + (offset & 0xFFC0), 64));
    offset += 64;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RemoteReadTelemetry)->Arg(0)->Arg(1);

void BM_TracerDisabledHotPath(benchmark::State& state) {
  sim::Tracer tracer;  // never enabled: every call must be a cheap no-op
  tracer.seed_trace_ids(1);
  AllocGate allocs;
  for (auto _ : state) {
    allocs.count([&] {
      const auto ctx = tracer.begin_trace();
      tracer.record_span(sim::Time::us(1), sim::Time::us(2), sim::TraceCategory::kFabric,
                         "remote read", {}, ctx);
      tracer.record(sim::Time::us(3), sim::TraceCategory::kFabric, "retry");
    });
    benchmark::DoNotOptimize(&tracer);
  }
  // A disabled tracer that heap-allocates is a regression.
  allocs.check(state, "allocs_per_iter", state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerDisabledHotPath);

void BM_TracerEnabledRecordSpan(benchmark::State& state) {
  sim::Tracer tracer;
  tracer.seed_trace_ids(1);
  tracer.enable();
  const auto root = tracer.begin_trace();
  for (auto _ : state) {
    tracer.record_span(sim::Time::us(1), sim::Time::us(2), sim::TraceCategory::kFabric,
                       "remote read", {}, tracer.child_of(root));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TracerEnabledRecordSpan);

// --- allocation-free hot datapath ---
//
// The op datapath — issue, fabric walk, breakdown charging, completion,
// retry bookkeeping — must not touch the heap in steady state. These
// benches measure it directly with the global-new counter: after a short
// warm-up (arena chunks, RMST tables, metric registrations, queue
// capacity all settle), allocs_per_op must read exactly 0.0. AllocGate
// fails the bench otherwise, and the micro.zero_allocs ctest runs them.

void BM_RemoteReadSteadyStateAllocs(benchmark::State& state) {
  core::Datacenter dc{two_tray_config()};
  dc.metrics().enable();
  const auto vm = dc.boot_vm("bench-guest", /*vcpus=*/2, /*memory=*/2ull << 30);
  const auto up = dc.scale_up(vm.vm, vm.compute, 2ull << 30);
  benchmark::DoNotOptimize(up.ok);
  const auto attachment = dc.fabric().attachments_of(vm.compute).front();
  std::uint64_t offset = 0;
  // Warm-up: first touches grow arenas and intern labels; steady state
  // starts once every pool has reached its working-set size.
  for (int i = 0; i < 256; ++i) {
    benchmark::DoNotOptimize(
        dc.remote_read(vm.compute, attachment.compute_base + (offset & 0xFFC0), 64));
    offset += 64;
  }
  AllocGate allocs;
  for (auto _ : state) {
    allocs.count([&] {
      benchmark::DoNotOptimize(
          dc.remote_read(vm.compute, attachment.compute_base + (offset & 0xFFC0), 64));
    });
    offset += 64;
  }
  allocs.check(state, "allocs_per_op", state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RemoteReadSteadyStateAllocs);

// The same window as BM_RemoteReadSteadyStateAllocs, issued the way a VM
// window issues its ops: 64 B reads and writes alternate over one held
// route (RemoteMemoryFabric::transact), as the workload engine and the
// rack gateways price them. The plain bench attaches over the tray's
// electrical backplane; the optical one over a circuit through the rack
// switch, so each op also checks the circuit is still live. 0 allocs/op.
void held_read_steady_state(benchmark::State& state, bool optical) {
  core::DatacenterConfig config = two_tray_config();
  config.prefer_optical_attach = optical;
  core::Datacenter dc{config};
  dc.metrics().enable();
  const auto vm = dc.boot_vm("bench-guest", /*vcpus=*/2, /*memory=*/2ull << 30);
  const auto up = dc.scale_up(vm.vm, vm.compute, 2ull << 30);
  benchmark::DoNotOptimize(up.ok);
  const auto attachment = dc.fabric().attachments_of(vm.compute).front();
  if (attachment.medium !=
      (optical ? memsys::LinkMedium::kOptical : memsys::LinkMedium::kElectrical)) {
    fail_gate(state, "the attachment rides the wrong medium");
    return;
  }
  memsys::RemoteMemoryFabric::HeldRoute held;
  std::uint64_t offset = 0;
  std::uint64_t ops = 0;
  const auto op = [&] {
    const auto kind = static_cast<memsys::TransactionKind>((offset >> 6) & 1);
    const auto tx = dc.fabric().transact(held, kind, vm.compute,
                                         attachment.compute_base + (offset & 0xFFC0), 64,
                                         dc.simulator().now());
    offset += 64;
    ++ops;
    return tx.completed_at;
  };
  for (int i = 0; i < 256; ++i) benchmark::DoNotOptimize(op());  // warm-up
  AllocGate allocs;
  for (auto _ : state) allocs.count([&] { benchmark::DoNotOptimize(op()); });
  allocs.check(state, "allocs_per_op", state.iterations());
  // Ops the held route declined (and the fabric walked).
  const std::uint64_t walked = ops - memsys::FabricTestAccess::held_transactions(dc.fabric());
  if (walked != 0) fail_gate(state, "the held route declined an op; nothing was measured");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
void BM_RemoteReadHeldSteadyStateAllocs(benchmark::State& state) {
  held_read_steady_state(state, /*optical=*/false);
}
BENCHMARK(BM_RemoteReadHeldSteadyStateAllocs);
void BM_RemoteReadHeldOpticalSteadyStateAllocs(benchmark::State& state) {
  held_read_steady_state(state, /*optical=*/true);
}
BENCHMARK(BM_RemoteReadHeldOpticalSteadyStateAllocs);

// A 256 KiB transfer through a DMA channel that owns its job, in chunks of
// range(0) bytes: 4 chunks of 64 KiB, or 64 chunks of 4 KiB that ride the
// channel's held route. The plain bench crosses trays, so its chunks ride
// an optical circuit; the electrical one stays on one tray's backplane.
void dma_steady_state(benchmark::State& state, bool same_tray) {
  AttachedPair pair{same_tray};
  if (pair.medium !=
      (same_tray ? memsys::LinkMedium::kElectrical : memsys::LinkMedium::kOptical)) {
    fail_gate(state, "the attachment rides the wrong medium");
    return;
  }
  sim::Simulator sim;
  memsys::DmaEngine dma{sim, pair.fabric, pair.cpu, 2,
                        static_cast<std::uint32_t>(state.range(0))};
  const auto transfer = [&] {
    memsys::DmaDescriptor d;
    d.address = pair.base;
    d.bytes = 256 << 10;
    bool done = false;
    dma.enqueue(d, [&done](const memsys::DmaCompletion& c) { done = c.ok; });
    sim.run();
    return done;
  };
  for (int i = 0; i < 64; ++i) benchmark::DoNotOptimize(transfer());  // warm-up
  AllocGate allocs;
  for (auto _ : state) allocs.count([&] { benchmark::DoNotOptimize(transfer()); });
  allocs.check(state, "allocs_per_op", state.iterations());
  state.SetBytesProcessed(state.iterations() * (256 << 10));
}
void BM_DmaSteadyStateAllocs(benchmark::State& state) { dma_steady_state(state, false); }
BENCHMARK(BM_DmaSteadyStateAllocs)->Arg(65536)->Arg(4096);
void BM_DmaElectricalSteadyStateAllocs(benchmark::State& state) {
  dma_steady_state(state, /*same_tray=*/true);
}
BENCHMARK(BM_DmaElectricalSteadyStateAllocs)->Arg(4096);

// Far-future timers (window ends, power sweeps) pending while 256 near
// events churn in a hold model: each iteration dispatches the earliest
// event and schedules a replacement 100 ns - 2 us ahead, so the window
// re-spans over and over with the far timers on the overflow rung. A day
// sized to reach the far timers would hold the whole churn in one sorted
// array; sized from the near events it holds a few. Must stay at 0
// allocs/op once the queue's vectors and arena reach their working size.
void BM_EventQueueFarTimer(benchmark::State& state) {
  const auto far_timers = static_cast<int>(state.range(0));
  constexpr int kChurn = 256;
  sim::EventQueue q;
  std::uint64_t rng = 0x5eed;
  const auto hop = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return sim::Time::ns(100 + static_cast<double>((rng >> 33) % 1900));
  };
  for (int i = 0; i < far_timers; ++i) {
    q.schedule(sim::Time::sec(1000) + sim::Time::us(i), [] {});
  }
  for (int i = 0; i < kChurn; ++i) q.schedule(hop(), [] {});
  const auto churn = [&] {
    benchmark::DoNotOptimize(q.dispatch_one());
    q.schedule(q.now() + hop(), [] {});
  };
  for (int i = 0; i < 1 << 16; ++i) churn();  // warm-up: several re-spans
  AllocGate allocs;
  for (auto _ : state) allocs.count(churn);
  allocs.check(state, "allocs_per_op", state.iterations());
  state.counters["in_drain"] = static_cast<double>(q.calendar_stats().in_drain);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueFarTimer)->Arg(1)->Arg(64)->Arg(1024);

// One 4 KiB write through the fabric on a warm cross-tray attachment: the
// walk a DMA chunk makes (TGL match, segment check, link, controller,
// breakdown). Issue times advance 1 us per write, so the link and the
// controller are idle and the cost is the walk alone. 0 allocs/op.
void BM_RemoteWriteChunk(benchmark::State& state) {
  AttachedPair pair;
  std::uint64_t offset = 0;
  sim::Time t = sim::Time::zero();
  const auto write = [&] {
    const memsys::Transaction tx =
        pair.fabric.write(pair.cpu, pair.base + (offset & 0xFFFF000), 4096, t);
    offset += 4096;
    t += sim::Time::us(1);
    return tx.ok();
  };
  for (int i = 0; i < 256; ++i) benchmark::DoNotOptimize(write());  // warm-up
  AllocGate allocs;
  for (auto _ : state) allocs.count([&] { benchmark::DoNotOptimize(write()); });
  allocs.check(state, "allocs_per_op", state.iterations());
  state.SetBytesProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RemoteWriteChunk);

// A closed-loop read/write tenant window, stepped one op at a time: in
// such a window every dispatched event is one op's issue (draw, fabric
// walk, completion, re-issue). After the warm-up every pool has settled,
// and each measured op must leave the heap untouched. The one store that
// grows with the window by design is the result's latency SampleSet
// (geometric doubling, O(log ops) allocations per window, none per op):
// the warm-up ends just past its doubling to 8192 samples, and the
// measured ops fit inside that capacity.
void BM_WorkloadEngineWindowAllocs(benchmark::State& state) {
  constexpr std::uint64_t kWarmOps = 4097;
  core::Datacenter dc{two_tray_config()};
  workload::WorkloadConfig wc;
  workload::TenantSpec closed;
  closed.name = "bench-closed";
  closed.vms = 2;
  closed.outstanding = 2;
  closed.rate_hz = 1e6;  // 1 us mean think time
  closed.mix = {0.6, 0.4, 0.0};
  wc.tenants = {closed};
  wc.duration = sim::Time::ms(50);  // far longer than warm-up plus measured ops
  wc.power_samples = 0;
  workload::WorkloadEngine engine{dc, wc};
  engine.prepare();
  dc.advance_to(engine.boot_ready());
  engine.begin_window(dc.simulator().now());
  sim::EventQueue& queue = dc.simulator().queue();
  std::uint64_t warm = 0;
  while (warm < kWarmOps && queue.dispatch_one()) ++warm;
  AllocGate allocs;
  for (auto _ : state) allocs.count([&] { benchmark::DoNotOptimize(queue.dispatch_one()); });
  allocs.check(state, "allocs_per_op", state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Fixed op count: warm-up plus measured ops stay inside the sample
// store's 8192-sample capacity.
BENCHMARK(BM_WorkloadEngineWindowAllocs)->Iterations(4000);

// Barrier rounds of the partitioned kernel on a warmed full mesh of
// `shards` shards with one token (each receipt forwards it to the next
// shard): one run() per iteration, allocations and host ns counted per
// round. Inbox capacity, the per-run scratch and the Phase-B body are all
// reused, so a warmed kernel's rounds never touch the heap. One token
// moves per round at any shard count, so a round that costs O(touched
// shards) costs the same at 4 and 16 shards.
void BM_PartitionRoundAllocs(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  constexpr sim::Time kLookahead = sim::Time::ns(100);
  struct Ring {
    sim::PartitionedKernel kernel{kLookahead};
    std::vector<std::unique_ptr<sim::Simulator>> sims;
    void on_token(std::size_t shard) {
      sim::Simulator& sim = *sims[shard];
      const std::size_t to = (shard + 1) % sims.size();
      kernel.send(shard, to, sim.now() + kernel.lookahead(), [this, to] { on_token(to); },
                  "token");
    }
  } ring;
  for (std::size_t i = 0; i < shards; ++i) {
    ring.sims.push_back(std::make_unique<sim::Simulator>(i + 1));
    ring.kernel.add_shard(*ring.sims.back());
  }
  ring.sims[0]->at(kLookahead, [&ring] { ring.on_token(0); }, "token");
  sim::Time horizon = sim::Time::us(20);
  ring.kernel.run(horizon);  // warm-up: inbox and scratch capacity settle
  AllocGate allocs;
  std::uint64_t rounds = 0;
  for (auto _ : state) {
    horizon = horizon + sim::Time::us(20);
    allocs.count([&] { rounds += ring.kernel.run(horizon).rounds; });
  }
  allocs.check(state, "allocs_per_round", rounds);
  // An inverted rate: host seconds per round, printed with an SI prefix.
  state.counters["time_per_round"] = benchmark::Counter(
      static_cast<double>(rounds), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds));
}
BENCHMARK(BM_PartitionRoundAllocs)->Arg(4)->Arg(16);

// End-to-end load-session throughput: a full WorkloadEngine run (mixed
// closed + open tenants, sync ops and DMA) per iteration, items = ops the
// engine completed. This is the number the allocation-free datapath is
// supposed to move: compare ops/sec against the previous PR's bench file.
void BM_WorkloadEngineSteadyState(benchmark::State& state) {
  std::uint64_t completed = 0;
  for (auto _ : state) {
    core::Datacenter dc{two_tray_config()};
    workload::WorkloadConfig wc;
    workload::TenantSpec closed;
    closed.name = "bench-closed";
    closed.vms = 2;
    closed.outstanding = 2;
    closed.mix = {0.6, 0.3, 0.1};
    workload::TenantSpec open;
    open.name = "bench-open";
    open.loop = workload::LoopMode::kOpen;
    open.rate_hz = 30000.0;
    open.mix = {0.7, 0.3, 0.0};
    wc.tenants = {closed, open};
    wc.duration = sim::Time::ms(4);
    wc.power_samples = 0;
    workload::WorkloadEngine engine{dc, wc};
    const workload::WorkloadResult result = engine.run();
    benchmark::DoNotOptimize(result.digest);
    completed += result.completed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(completed));
}
BENCHMARK(BM_WorkloadEngineSteadyState);

void BM_FcfsScheduling(benchmark::State& state) {
  const tco::WorkloadGenerator gen{tco::WorkloadType::kRandom};
  sim::Rng rng{1};
  std::vector<tco::VmSpec> workload;
  for (int i = 0; i < 500; ++i) workload.push_back(gen.next(rng));
  for (auto _ : state) {
    tco::ConventionalDatacenter conv{64, 32, 32};
    tco::DisaggregatedDatacenter dd{256, 8, 256, 8};
    for (const auto& vm : workload) {
      benchmark::DoNotOptimize(conv.schedule(vm));
      benchmark::DoNotOptimize(dd.schedule(vm));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(workload.size()));
}
BENCHMARK(BM_FcfsScheduling);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return ran == 0 || g_alloc_gate_failed ? 1 : 0;
}
