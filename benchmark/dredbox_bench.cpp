// Benchmark driver: runs ONE repetition of one fixed-work workload and
// writes its raw measurements as a JSON object. benchmark/run.py starts
// one process per repetition (so peak RSS is per run), checks correctness
// across them and reduces the metrics.
//
//   dredbox_bench --workload NAME --seed N [--traced] [--threads N]
//                 [--smoke] [--reference] --out FILE
//
// Every number comes from timing calls into the public API; nothing in
// src/ is instrumented for the benchmark. Setup is ScenarioBuilder::build()
// + WorkloadEngine::prepare() + the advance to the window start t0; the
// window is begin_window(t0) + the advance over window and drain; finish is
// WorkloadEngine::finish() plus the percentile reduction.
//
// --traced turns on the metric registries and the event-kernel profiler
// of every rack at t0, then runs direct-call probes into each layer after
// finish(). --reference (row-16rack only) runs ClusterEngine::run instead
// of the replayed phases, so the two digests can be compared.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "memsys/dma.hpp"
#include "sim/digest.hpp"
#include "sim/format.hpp"
#include "workload/cluster.hpp"
#include "workload/engine.hpp"

using namespace dredbox;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workloads ---------------------------------------------------------

constexpr std::size_t kRackVmsPerBrick = 8;
constexpr std::size_t kRackComputeBricks = 2 * 4;
/// Repeated set-ups per untraced process; setup_s is their median.
constexpr std::size_t kSetupRepeats = 25;

struct Workload {
  core::ScenarioBuilder builder;
  workload::WorkloadConfig config;
  /// Plan-relative fault plan, shifted onto the window start (rack-faults).
  std::optional<sim::FaultPlan> faults;
  bool cluster = false;
};

/// One rack of 2 trays x 4 compute x 4 memory bricks, with enough APU
/// cores that kRackVmsPerBrick single-vCPU VMs pack onto every compute
/// brick (placement is best-fit on free cores). The 9 GiB dMEMBRICKs hold
/// the 64 GiB of tenant windows with little room to spare, so a crashed
/// brick's segments cannot all be evacuated and rack-faults loses ops.
core::ScenarioBuilder rack_builder(std::uint64_t seed) {
  core::ScenarioBuilder builder;
  builder.racks(2, 4, 4)
      .compute_cores(kRackVmsPerBrick)
      .memory_pool_bytes(9ull << 30)
      .seed(seed);
  return builder;
}

workload::TenantSpec rack_tenant(const char* name) {
  workload::TenantSpec tenant;
  tenant.name = name;
  tenant.vms = kRackVmsPerBrick * kRackComputeBricks;
  tenant.local_bytes = 256ull << 20;
  tenant.remote_bytes = 1ull << 30;
  return tenant;
}

/// Closed loop, 4 outstanding requests per VM, 70/30 reads/writes of 64 B.
workload::TenantSpec closed_reader() {
  workload::TenantSpec tenant = rack_tenant("reader");
  tenant.loop = workload::LoopMode::kClosed;
  tenant.outstanding = 4;
  tenant.rate_hz = 20000.0;
  tenant.mix = {0.70, 0.30, 0.0};
  return tenant;
}

Workload make_workload(const std::string& name, std::uint64_t seed, bool smoke) {
  Workload w;
  // Simulated window lengths are the benchmark's fixed work; --smoke runs
  // 1/100 of each.
  const double scale = smoke ? 0.01 : 1.0;
  if (name == "rack-read") {
    w.builder = rack_builder(seed);
    w.config.tenants = {closed_reader()};
    w.config.duration = sim::Time::ms(250 * scale);
    w.config.drain_grace = sim::Time::ms(1);
  } else if (name == "rack-dma") {
    w.builder = rack_builder(seed);
    workload::TenantSpec tenant = rack_tenant("bulk");
    tenant.loop = workload::LoopMode::kOpen;
    tenant.arrivals = workload::ArrivalProcess::kMmpp;
    tenant.rate_hz = 400.0;
    tenant.mix = {0.10, 0.30, 0.60};
    tenant.dma_bytes = 256ull << 10;
    w.config.tenants = {tenant};
    w.config.duration = sim::Time::ms(2000 * scale);
    w.config.drain_grace = sim::Time::ms(50);
  } else if (name == "rack-faults") {
    w.builder = rack_builder(seed);
    w.builder.prefer_optical().fabric_retry(sim::RetryPolicy{});
    w.config.tenants = {closed_reader()};
    w.config.duration = sim::Time::ms(250 * scale);
    w.config.drain_grace = sim::Time::ms(1);
    sim::FaultPlan::GeneratorConfig plan;
    plan.events = 96;
    plan.horizon = w.config.duration;
    plan.max_duration = w.config.duration / 100;
    plan.weights = {4, 0, 0, 2, 0, 3, 0, 2, 3};
    sim::Rng rng{seed};
    w.faults = sim::FaultPlan::generate(rng, plan);
  } else if (name == "row-16rack") {
    core::RackSpec rack;
    rack.trays = 1;
    rack.compute_bricks_per_tray = 2;
    rack.memory_bricks_per_tray = 2;
    w.builder.add_racks(16, rack)
        .cross_rack_share(0.2)
        .partitions(1)
        .seed(seed)
        .compute_local_memory_bytes(8ull << 30)
        .memory_pool_bytes(32ull << 30);
    for (std::size_t r = 0; r < 16; ++r) {
      workload::TenantSpec tenant;
      tenant.name = "rack" + std::to_string(r);
      tenant.home_rack = r;
      tenant.vms = 2;
      tenant.local_bytes = 512ull << 20;
      tenant.remote_bytes = 1ull << 30;
      tenant.loop = workload::LoopMode::kClosed;
      tenant.outstanding = 2;
      tenant.rate_hz = 50000.0;
      tenant.mix = {0.70, 0.30, 0.0};
      w.config.tenants.push_back(tenant);
    }
    w.config.duration = sim::Time::ms(350 * scale);
    w.config.drain_grace = sim::Time::ms(1);
    w.cluster = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (rack-read, rack-dma, rack-faults, row-16rack)");
  }
  return w;
}

/// Request streams in the window. Each stream's first op meets its VM's
/// RMST MRU, TGL state and the arenas cold; every later op finds them warm.
std::uint64_t stream_count(const workload::WorkloadConfig& config) {
  std::uint64_t streams = 0;
  for (const auto& t : config.tenants) {
    streams += t.vms * (t.loop == workload::LoopMode::kClosed ? t.outstanding : 1);
  }
  return streams;
}

// --- one deployment, driven phase by phase -------------------------------

struct Deployment {
  core::Scenario scenario;
  std::vector<core::Datacenter*> racks;
  /// Index = rack; null for a rack without tenants. Declared after the
  /// scenario so the engines die first.
  std::vector<std::unique_ptr<workload::WorkloadEngine>> engines;
  sim::Time t0;
  double build_s = 0.0;
  double prepare_s = 0.0;
  double advance_s = 0.0;

  double setup_s() const { return build_s + prepare_s + advance_s; }
};

/// build() + prepare() + advance to t0, each timed. A cluster gets one
/// engine per populated rack wired to its spine port, exactly as
/// ClusterEngine's constructor does.
std::unique_ptr<Deployment> set_up(const Workload& w) {
  auto start = Clock::now();
  auto d = std::make_unique<Deployment>(Deployment{w.builder.build(), {}, {}, {}});
  d->build_s = seconds_since(start);

  start = Clock::now();
  if (w.cluster) {
    core::Cluster& cluster = d->scenario.cluster();
    d->engines.resize(cluster.size());
    for (std::size_t r = 0; r < cluster.size(); ++r) {
      d->racks.push_back(&cluster.rack(r));
      workload::WorkloadConfig rack_config = w.config;
      rack_config.tenants.clear();
      for (const auto& tenant : w.config.tenants) {
        if (tenant.home_rack == r) rack_config.tenants.push_back(tenant);
      }
      if (rack_config.tenants.empty()) continue;
      d->engines[r] =
          std::make_unique<workload::WorkloadEngine>(cluster.rack(r), std::move(rack_config));
      d->engines[r]->install_cross_port(&cluster.port(r), cluster.config().spine.cross_share);
    }
  } else {
    d->racks.push_back(&d->scenario.datacenter());
    d->engines.push_back(
        std::make_unique<workload::WorkloadEngine>(d->scenario.datacenter(), w.config));
  }
  for (auto& engine : d->engines) {
    if (engine) engine->prepare();
  }
  d->prepare_s = seconds_since(start);

  start = Clock::now();
  for (std::size_t r = 0; r < d->racks.size(); ++r) {
    d->t0 = std::max(d->t0, d->racks[r]->simulator().now());
    if (d->engines[r]) d->t0 = std::max(d->t0, d->engines[r]->boot_ready());
  }
  for (core::Datacenter* dc : d->racks) dc->advance_to(d->t0);
  d->advance_s = seconds_since(start);
  return d;
}

using Profile = std::map<std::string, std::pair<std::uint64_t, double>>;

void add_profile(Profile& into, const sim::EventQueue& queue) {
  for (const auto& row : queue.kernel_profile()) {
    auto& cell = into[row.label];
    cell.first += row.dispatches;
    cell.second += row.host_ns;
  }
}

/// Registry counters the per-layer metrics read, summed over racks.
const char* const kCounters[] = {
    "hw.tgl.lookup_hits",
    "hw.tgl.lookup_misses",
    "memsys.fabric.retries",
    "memsys.fabric.packet_failovers",
    "memsys.fabric.reprovisions",
    "orch.sdm.evacuated_segments",
    "net.packets.sent",
};

// --- JSON output ---------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    return raw(key, sim::strformat("%.17g", v));
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& flag(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string hex(std::uint64_t v) {
  return sim::strformat("%016llx", static_cast<unsigned long long>(v));
}

std::string profile_json(const Profile& profile) {
  JsonObject out;
  for (const auto& [label, cell] : profile) {
    out.raw(label, sim::strformat("[%llu, %.17g]", static_cast<unsigned long long>(cell.first),
                                  cell.second));
  }
  return out.text();
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss would not do: Linux carries it across exec, so it reports the
/// launching process's peak whenever that was larger.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- direct-call layer probes (traced runs) ------------------------------

/// Mean host ns per call of `fn` over `n` calls.
template <typename Fn>
double ns_per_call(std::size_t n, Fn&& fn) {
  const auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) fn(i);
  return seconds_since(start) * 1e9 / static_cast<double>(n);
}

/// Times each layer's entry point on the workload's own rack after the
/// window: fabric reads/writes on its attachments, a packet round trip,
/// 256 KiB DMA transfers, attach/detach and scale-up/down pairs.
JsonObject run_probes(core::Datacenter& dc, bool smoke, Profile& dma_profile) {
  const std::size_t calls = smoke ? 1000 : 100000;
  const std::size_t control = smoke ? 20 : 200;
  const std::vector<memsys::Attachment> attachments = dc.fabric().all_attachments();
  if (attachments.empty()) throw std::runtime_error("probe: the rack has no attachments");
  const sim::Time now = dc.simulator().now();
  const auto address = [&](std::size_t i) {
    const memsys::Attachment& a = attachments[i % attachments.size()];
    return a.compute_base + (i * 7919 * 64) % (a.size - 64);
  };
  const auto compute = [&](std::size_t i) { return attachments[i % attachments.size()].compute; };
  JsonObject out;
  std::uint64_t failures = 0;

  out.num("read_ns", ns_per_call(calls, [&](std::size_t i) {
    failures += !dc.fabric().read(compute(i), address(i), 64, now).ok();
  }));
  out.num("write_ns", ns_per_call(calls, [&](std::size_t i) {
    failures += !dc.fabric().write(compute(i), address(i), 64, now).ok();
  }));

  const memsys::Attachment& first = attachments.front();
  out.num("packet_read_ns", ns_per_call(calls, [&](std::size_t) {
    dc.packet_network().remote_read(first.compute, first.membrick, first.compute_base, 64, now);
  }));

  // A private simulator, so running it to quiescence cannot touch the
  // rack's own pending events.
  sim::Simulator dma_sim;
  dma_sim.queue().enable_profiling();
  memsys::DmaEngine dma{dma_sim, dc.fabric(), first.compute};
  out.num("dma_256k_ns", ns_per_call(control, [&](std::size_t) {
    memsys::DmaDescriptor descriptor;
    descriptor.address = first.compute_base;
    descriptor.bytes = 256ull << 10;
    bool ok = false;
    dma.enqueue(descriptor, [&ok](const memsys::DmaCompletion& done) { ok = done.ok; });
    dma_sim.run();
    failures += !ok;
  }));
  add_profile(dma_profile, dma_sim.queue());

  // Attach against the emptiest dMEMBRICK: the workload packs segments
  // best-fit, so the first attachment's brick may have no room left.
  memsys::AttachRequest request;
  request.compute = first.compute;
  request.bytes = 1ull << 30;
  std::uint64_t most_free = 0;
  for (hw::BrickId mb : dc.memory_bricks()) {
    const std::uint64_t free = dc.rack().memory_brick(mb).free_bytes();
    if (free > most_free) {
      most_free = free;
      request.membrick = mb;
    }
  }
  out.num("attach_detach_ns", ns_per_call(control, [&](std::size_t) {
    const auto a = dc.fabric().attach(request, now);
    if (!a || !dc.fabric().detach(first.compute, a->segment)) ++failures;
  }));

  const std::vector<hw::VmId> vms = dc.hypervisor_of(first.compute).vms();
  out.num("scale_up_down_ns", ns_per_call(control, [&](std::size_t) {
    const auto up = dc.scale_up(vms.front(), first.compute, 1ull << 30);
    if (!up.ok || !dc.scale_down(vms.front(), first.compute, up.segment).ok) ++failures;
  }));
  out.count("failures", failures);
  return out;
}

// --- one repetition ------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  std::size_t threads = 1;
  bool smoke = false;
  bool reference = false;
  std::string out;
};

/// ClusterEngine::run on a fresh deployment: the digest the replayed
/// phases must reproduce.
std::string run_reference(const Options& opt, const Workload& w) {
  if (!w.cluster) throw std::invalid_argument("--reference applies to row-16rack only");
  core::Scenario scenario = w.builder.build();
  workload::ClusterEngine engine{scenario.cluster(), w.config};
  const workload::ClusterResult result = engine.run(opt.threads);
  return JsonObject{}
      .str("workload", opt.workload)
      .count("seed", opt.seed)
      .flag("reference", true)
      .count("threads", result.threads)
      .str("digest", hex(result.digest))
      .text();
}

std::string run_once(const Options& opt) {
  const Workload w = make_workload(opt.workload, opt.seed, opt.smoke);
  if (opt.reference) return run_reference(opt, w);

  // Set up several times and keep the last deployment for the window;
  // each earlier one is freed before the next is built.
  std::vector<double> setups;
  std::unique_ptr<Deployment> d;
  const std::size_t repeats = opt.traced ? 1 : kSetupRepeats;
  for (std::size_t i = 0; i < repeats; ++i) {
    d.reset();
    d = set_up(w);
    setups.push_back(d->setup_s());
  }
  if (!w.cluster) {
    for (hw::BrickId brick : d->racks[0]->compute_bricks()) {
      if (d->racks[0]->hypervisor_of(brick).vms().size() < kRackVmsPerBrick) {
        throw std::runtime_error("a compute brick hosts fewer than " +
                                 std::to_string(kRackVmsPerBrick) + " VMs");
      }
    }
  }

  // --- window: begin_window(t0) + advance over window and drain ---
  if (opt.traced) {
    for (core::Datacenter* dc : d->racks) {
      dc->metrics().enable();
      dc->simulator().queue().enable_profiling();
    }
  }
  const sim::Time end = d->t0 + w.config.duration + w.config.drain_grace;
  sim::PartitionRunStats partition;
  auto start = Clock::now();
  if (w.cluster) {
    core::Cluster& cluster = d->scenario.cluster();
    if (!cluster.spine_faults_armed()) cluster.arm_spine_faults(d->t0);
  }
  if (w.faults) d->racks[0]->inject_faults(w.faults->shifted(d->t0));
  for (auto& engine : d->engines) {
    if (engine) engine->begin_window(d->t0);
  }
  if (w.cluster) {
    partition = d->scenario.cluster().advance_all(end, opt.threads);
  } else {
    d->racks[0]->advance_to(end);
  }
  const double window_s = seconds_since(start);

  Profile window_profile;
  std::map<std::string, std::uint64_t> counters;
  if (opt.traced) {
    for (core::Datacenter* dc : d->racks) {
      add_profile(window_profile, dc->simulator().queue());
      for (const char* name : kCounters) {
        const auto* counter = dc->metrics().find_counter(name);
        counters[name] += counter != nullptr ? counter->value() : 0;
      }
    }
  }

  // --- finish(): reduce every rack, fold the digest, read percentiles ---
  start = Clock::now();
  std::vector<workload::WorkloadResult> results(d->racks.size());
  for (std::size_t r = 0; r < d->racks.size(); ++r) {
    if (d->engines[r]) results[r] = d->engines[r]->finish();
  }
  std::uint64_t digest = results[0].digest;
  std::uint64_t spine_fail_fast = 0;
  if (w.cluster) {
    // The same fold as ClusterEngine::run, in rack order.
    const core::Cluster& cluster = d->scenario.cluster();
    sim::Digest fold;
    for (std::size_t r = 0; r < results.size(); ++r) {
      const core::RackLinkStats stats = cluster.link_stats(r);
      spine_fail_fast += stats.fail_fast;
      fold.update("rack")
          .update(static_cast<std::uint64_t>(r))
          .update(results[r].digest)
          .update(cluster.served_digest(r))
          .update(stats.tx_messages)
          .update(stats.rx_messages)
          .update(stats.fail_fast);
    }
    digest = fold.value();
  }
  sim::SampleSet merged;
  const sim::SampleSet* latency = &results[0].latency_us;
  if (results.size() > 1) {
    for (const auto& result : results) {
      for (double us : result.latency_us.samples()) merged.add(us);
    }
    latency = &merged;
  }
  const double p50 = latency->percentile(50);
  const double p999 = latency->percentile(99.9);
  const double finish_s = seconds_since(start);

  std::uint64_t offered = 0, completed = 0, failed = 0, cross_ops = 0;
  std::size_t vms_requested = 0, vms_booted = 0;
  bool balanced = true;
  for (const auto& result : results) {
    offered += result.offered;
    completed += result.completed;
    failed += result.failed;
    cross_ops += result.cross_ops;
    vms_requested += result.vms_requested;
    vms_booted += result.vms_booted;
    balanced = balanced && result.offered == result.completed + result.failed;
  }

  std::vector<double> sorted = setups;
  std::sort(sorted.begin(), sorted.end());
  const double setup_s = sorted[sorted.size() / 2];

  JsonObject out;
  out.str("workload", opt.workload)
      .count("seed", opt.seed)
      .flag("traced", opt.traced)
      .flag("smoke", opt.smoke)
      .count("threads", opt.threads)
      .str("digest", hex(digest))
      .count("vms_requested", vms_requested)
      .count("vms_booted", vms_booted)
      .count("offered", offered)
      .count("completed", completed)
      .count("failed", failed)
      .flag("balanced", balanced)
      .count("cold_ops", stream_count(w.config))
      .count("latency_samples", latency->count())
      .num("sim_latency_p50_us", p50)
      .num("sim_latency_p999_us", p999)
      .num("sim_window_s", (w.config.duration + w.config.drain_grace).as_sec());
  std::string setup_list;
  for (double s : setups) {
    setup_list += (setup_list.empty() ? "" : ", ") + sim::strformat("%.17g", s);
  }
  out.raw("setup_samples_s", "[" + setup_list + "]")
      .num("setup_s", setup_s)
      .num("build_s", d->build_s)
      .num("prepare_s", d->prepare_s)
      .num("advance_t0_s", d->advance_s)
      .num("window_s", window_s)
      .num("finish_s", finish_s)
      .num("total_s", setup_s + window_s + finish_s);
  if (w.cluster) {
    out.raw("partition", JsonObject{}
                             .count("rounds", partition.rounds)
                             .count("dispatched", partition.dispatched)
                             .count("messages", partition.messages)
                             .count("shards", d->racks.size())
                             .count("cross_ops", cross_ops)
                             .count("spine_fail_fast", spine_fail_fast)
                             .text());
  }
  if (opt.traced) {
    JsonObject counter_json;
    for (const auto& [name, value] : counters) counter_json.count(name, value);
    Profile dma_profile;
    // Let any fault still active at the window end recover before probing.
    if (w.faults) d->racks[0]->advance_to(end + w.faults->horizon());
    const JsonObject probes = run_probes(*d->racks[0], opt.smoke, dma_profile);
    out.raw("profile_window", profile_json(window_profile))
        .raw("profile_dma_probe", profile_json(dma_profile))
        .raw("counters", counter_json.text())
        .raw("probes", probes.text());
  }
  out.num("peak_rss_mb", peak_rss_mb());
  return out.text();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dredbox_bench: %s\n"
               "usage: dredbox_bench --workload NAME --seed N [--traced] [--threads N] "
               "[--smoke] [--reference] --out FILE\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--threads") {
      opt.threads = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--reference") {
      opt.reference = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty() || opt.out.empty()) usage("--workload and --out are required");
  if (opt.threads == 0) usage("--threads must be at least 1");

  try {
    const std::string json = run_once(opt);
    std::ofstream out{opt.out};
    out << json << "\n";
    if (!out) {
      std::fprintf(stderr, "dredbox_bench: cannot write %s\n", opt.out.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dredbox_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
