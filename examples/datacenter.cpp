// Multi-rack datacenter driver: builds N racks joined by an optical spine,
// places one tenant class per rack, points a share of every rack's
// read/write stream at peer racks' gateway windows, and runs the coupled
// simulation twice on fresh clusters, proving the two schedules
// byte-identical by digest.
//
//   $ ./datacenter                              # 2 racks
//   $ ./datacenter --racks 16 --cross-share 0.15
//   $ ./datacenter --spine-faults 'spine-down@1ms+2ms:target=0'
//   $ ./datacenter --racks 4 --out cluster.json
//
// The JSON report follows the "dredbox-cluster/v1" schema consumed by
// scripts/validate_artifacts.py.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/scenario.hpp"
#include "sim/format.hpp"
#include "workload/cluster.hpp"

using namespace dredbox;

namespace {

void usage() {
  std::printf(
      "usage: datacenter [options]\n"
      "  --racks N        racks on the spine (default 2)\n"
      "  --seed N         deployment seed (default 1)\n"
      "  --duration-ms X  generation window (default 2)\n"
      "  --cross-share X  fraction of reads/writes crossing the spine (default 0.10)\n"
      "  --vms N          VMs per rack (default 1)\n"
      "  --spine-faults SPEC\n"
      "                   window-relative spine-down plan in the fault mini-language,\n"
      "                   e.g. 'spine-down@0.3ms+0.4ms:target=3' (default: none)\n"
      "  --out FILE       write the dredbox-cluster/v1 JSON report to FILE\n");
}

core::ScenarioBuilder make_builder(std::size_t racks, std::uint64_t seed, double cross_share,
                                   const sim::FaultPlan& spine_faults) {
  core::RackSpec rack;
  rack.trays = 1;
  rack.compute_bricks_per_tray = 2;
  rack.memory_bricks_per_tray = 2;
  core::ScenarioBuilder builder;
  builder.add_racks(racks, rack)
      .cross_rack_share(cross_share)
      .seed(seed)
      .compute_local_memory_bytes(8ull << 30)
      .memory_pool_bytes(32ull << 30)
      .configure([&](core::DatacenterConfig& c) { c.spine.faults = spine_faults; });
  return builder;
}

workload::WorkloadConfig make_workload(std::size_t racks, std::size_t vms, double duration_ms) {
  workload::WorkloadConfig config;
  config.duration = sim::Time::ms(duration_ms);
  config.drain_grace = sim::Time::ms(1);
  for (std::size_t r = 0; r < racks; ++r) {
    workload::TenantSpec tenant;
    tenant.name = "rack" + std::to_string(r);
    tenant.home_rack = r;
    tenant.vms = vms;
    tenant.local_bytes = 512ull << 20;
    tenant.remote_bytes = 1ull << 30;
    tenant.loop = workload::LoopMode::kClosed;
    tenant.outstanding = 2;
    tenant.rate_hz = 50000.0;
    tenant.mix = {0.65, 0.35, 0.0};
    config.tenants.push_back(tenant);
  }
  return config;
}

int run(int argc, char** argv) {
  std::size_t racks = 2;
  std::uint64_t seed = 1;
  double duration_ms = 2.0;
  double cross_share = 0.10;
  std::size_t vms = 1;
  std::string spine_faults;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--racks") {
      racks = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--duration-ms") {
      duration_ms = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--cross-share") {
      cross_share = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--vms") {
      vms = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--spine-faults") {
      spine_faults = value();
    } else if (arg == "--out") {
      out_path = value();
    } else {
      usage();
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }
  if (racks == 0 || vms == 0) {
    usage();
    return 2;
  }

  const sim::FaultPlan plan = sim::FaultPlan::parse(spine_faults);
  const core::ScenarioBuilder builder = make_builder(racks, seed, cross_share, plan);
  const workload::WorkloadConfig workload = make_workload(racks, vms, duration_ms);

  std::printf("== dReDBox multi-rack datacenter ==\n");
  std::printf("%zu racks on the spine, %.1f ms window, cross-rack share %.2f%s\n\n", racks,
              duration_ms, cross_share, plan.empty() ? "" : ", spine fault scheduled");

  // Two fresh, fully independent clusters from one builder: same seed,
  // same schedule.
  const auto run_fresh = [&] {
    core::Scenario scenario = builder.build();
    return workload::ClusterEngine{scenario.cluster(), workload}.run();
  };
  const workload::ClusterResult first = run_fresh();
  std::printf("first:   %s\n\n", first.summary().c_str());
  const workload::ClusterResult second = run_fresh();
  std::printf("second:  %s\n\n", second.summary().c_str());

  const bool match = first.digest == second.digest;
  std::printf("digests: %s\n", match ? "IDENTICAL" : "MISMATCH");

  if (!out_path.empty()) {
    std::string json = "{\n";
    json += R"(  "schema": "dredbox-cluster/v1",)" "\n";
    json += sim::strformat("  \"racks\": %zu,\n  \"seed\": %llu,\n", racks,
                           static_cast<unsigned long long>(seed));
    json += sim::strformat("  \"duration_ms\": %.9g,\n  \"cross_share\": %.9g,\n", duration_ms,
                           cross_share);
    json += sim::strformat("  \"spine_faults\": \"%s\",\n", plan.to_string().c_str());
    json += sim::strformat("  \"digest\": \"%016llx\",\n  \"digests_match\": %s,\n",
                           static_cast<unsigned long long>(first.digest),
                           match ? "true" : "false");
    json += sim::strformat(
        "  \"offered\": %llu,\n  \"completed\": %llu,\n  \"failed\": %llu,\n"
        "  \"cross_ops\": %llu,\n  \"spine_tx_messages\": %llu,\n"
        "  \"spine_fail_fast\": %llu,\n",
        static_cast<unsigned long long>(first.offered),
        static_cast<unsigned long long>(first.completed),
        static_cast<unsigned long long>(first.failed),
        static_cast<unsigned long long>(first.cross_ops),
        static_cast<unsigned long long>(first.spine_tx_messages),
        static_cast<unsigned long long>(first.spine_fail_fast));
    json += sim::strformat("  \"rounds\": %zu,\n  \"messages\": %llu,\n", first.kernel.rounds,
                           static_cast<unsigned long long>(first.kernel.messages));
    json += sim::strformat("  \"wall_seconds\": %.9g\n}\n", first.wall_seconds);
    std::ofstream out{out_path};
    out << json;
    if (!out) {
      std::printf("failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }

  return match ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad input (a malformed plan, an invalid config, an unusable workload)
  // is a usage error: report the dotted-field errors, never abort.
  try {
    return run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "datacenter: %s\n", e.what());
    return 2;
  }
}
