// Parameter-sweep driver: fans a grid of (seed x rack size x remote-memory
// ratio x fault plan) cells across worker threads, each cell running the
// standard multi-tenant workload against its own fully independent
// Datacenter, then proves the parallel run bit-identical to a sequential
// one (per-cell determinism digests) and reports the wall-clock speedup.
//
//   $ ./sweep                         # default 2x2x2 grid, 4 threads
//   $ ./sweep --threads 2 --seeds 1,2 --trays 1,2 --ratios 0.25,0.75
//   $ ./sweep --duration-ms 5 --out sweep.json
//
// The JSON report follows the "dredbox-sweep/v1" schema consumed by
// scripts/validate_artifacts.py.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "sim/digest.hpp"
#include "sim/format.hpp"
#include "sim/report.hpp"
#include "sim/run_report.hpp"
#include "workload/sweep_body.hpp"

using namespace dredbox;

namespace {

std::vector<std::string> split(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(csv.substr(start));
      break;
    }
    out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

void usage() {
  std::printf(
      "usage: sweep [options]\n"
      "  --threads N      workers for the parallel pass (default 4)\n"
      "  --seeds LIST     comma-separated seeds (default 1,2)\n"
      "  --trays LIST     comma-separated rack sizes in trays (default 1,2)\n"
      "  --ratios LIST    comma-separated remote-memory ratios (default 0.25,0.75)\n"
      "  --faults LIST    comma-separated fault-plan specs; 'none' = no faults\n"
      "  --duration-ms X  per-cell generation window (default 5)\n"
      "  --vms N          VMs per tenant class (default 2)\n"
      "  --out FILE       write the sweep JSON report to FILE\n"
      "  --skip-parallel  only run the sequential pass\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t threads = 4;
  std::string seeds = "1,2";
  std::string trays = "1,2";
  std::string ratios = "0.25,0.75";
  std::string faults = "none";
  double duration_ms = 5.0;
  std::size_t vms = 2;
  std::string out_path;
  bool skip_parallel = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--threads") {
      threads = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seeds") {
      seeds = value();
    } else if (arg == "--trays") {
      trays = value();
    } else if (arg == "--ratios") {
      ratios = value();
    } else if (arg == "--faults") {
      faults = value();
    } else if (arg == "--duration-ms") {
      duration_ms = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--vms") {
      vms = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--skip-parallel") {
      skip_parallel = true;
    } else {
      usage();
      return arg == "--help" || arg == "-h" ? 0 : 2;
    }
  }

  // --- the grid ---
  core::SweepGrid grid;
  grid.seeds.clear();
  for (const auto& s : split(seeds)) grid.seeds.push_back(std::strtoull(s.c_str(), nullptr, 10));
  grid.rack_trays.clear();
  for (const auto& t : split(trays)) {
    grid.rack_trays.push_back(std::strtoull(t.c_str(), nullptr, 10));
  }
  grid.remote_ratios.clear();
  for (const auto& r : split(ratios)) grid.remote_ratios.push_back(std::strtod(r.c_str(), nullptr));
  grid.fault_plans.clear();
  for (const auto& f : split(faults)) grid.fault_plans.push_back(f == "none" ? "" : f);

  // --- the workload every cell runs ---
  // Two tenant classes: a bursty open-loop front-end (MMPP arrivals, mostly
  // reads) and a closed-loop analytics tenant pushing bulk DMA.
  workload::SweepWorkload shape;
  shape.duration = sim::Time::ms(duration_ms);
  shape.footprint_bytes = 4ull << 30;  // split into 1 GiB hotplug blocks per cell

  workload::TenantSpec web;
  web.name = "web";
  web.vms = vms;
  web.loop = workload::LoopMode::kOpen;
  web.arrivals = workload::ArrivalProcess::kMmpp;
  web.rate_hz = 10000.0;
  shape.tenants.push_back(web);

  workload::TenantSpec analytics;
  analytics.name = "analytics";
  analytics.vms = vms;
  analytics.loop = workload::LoopMode::kClosed;
  analytics.outstanding = 4;
  analytics.rate_hz = 20000.0;
  analytics.mix = {0.50, 0.30, 0.20};
  shape.tenants.push_back(analytics);

  core::SweepRunner runner{grid, workload::make_sweep_body(shape)};
  // Size the bricks so the heaviest split (3 GiB local + 3 GiB remote per
  // VM, several VMs per brick) fits comfortably.
  core::ScenarioBuilder base;
  base.compute_local_memory_bytes(16ull << 30).memory_pool_bytes(64ull << 30);
  runner.set_base(base);

  std::printf("== dReDBox parameter sweep ==\n");
  std::printf("grid: %zu seeds x %zu rack sizes x %zu remote ratios x %zu fault plans = "
              "%zu cells\n",
              grid.seeds.size(), grid.rack_trays.size(), grid.remote_ratios.size(),
              grid.fault_plans.size(), grid.size());
  std::printf("workload: %zu tenant classes, %zu VMs each, %.1f ms window per cell\n\n",
              shape.tenants.size(), vms, duration_ms);

  const core::SweepReport sequential = runner.run(1);
  std::printf("sequential:            %zu/%zu cells ok in %.2f s\n", sequential.cells_ok(),
              sequential.cells.size(), sequential.wall_seconds);

  const core::SweepReport& report = sequential;
  core::SweepReport parallel;
  bool match = true;
  if (!skip_parallel) {
    parallel = runner.run(threads);
    match = core::digests_match(sequential, parallel);
    std::printf("parallel (%zu threads): %zu/%zu cells ok in %.2f s  (speedup %.2fx)\n",
                parallel.threads, parallel.cells_ok(), parallel.cells.size(),
                parallel.wall_seconds,
                parallel.wall_seconds > 0 ? sequential.wall_seconds / parallel.wall_seconds
                                          : 0.0);
    std::printf("per-cell digests:      %s\n", match ? "IDENTICAL" : "MISMATCH");
  }
  std::printf("\n");

  sim::TextTable table{{"cell", "offered", "done", "fail", "p50 us", "p99 us", "digest"}};
  for (const auto& c : report.cells) {
    if (!c.ok) {
      table.add_row({c.cell.label(), "-", "-", "-", "-", "-", "ERROR: " + c.error});
      continue;
    }
    table.add_row({c.cell.label(), std::to_string(c.stats.offered),
                   std::to_string(c.stats.completed), std::to_string(c.stats.failed),
                   sim::strformat("%.2f", c.stats.p50_us),
                   sim::strformat("%.2f", c.stats.p99_us),
                   sim::strformat("%016llx", static_cast<unsigned long long>(c.stats.digest))});
  }
  std::printf("%s", table.to_string().c_str());

  if (!out_path.empty()) {
    // The parallel pass (when run) is the authoritative report; splice in
    // the sequential wall clock, the digest verdict and the host's core
    // count so scripts/validate_artifacts.py can judge the speedup
    // criterion fairly.
    const core::SweepReport& emitted = skip_parallel ? sequential : parallel;
    std::string json = emitted.to_json();
    const std::size_t tail = json.rfind("\n}");
    if (tail != std::string::npos) {
      json.erase(tail);
      json += sim::strformat(
          ",\n  \"sequential_wall_seconds\": %.9g,\n  \"digests_match\": %s,\n"
          "  \"host\": {\"num_cpus\": %u}\n}\n",
          sequential.wall_seconds, match ? "true" : "false",
          std::thread::hardware_concurrency());
    }
    std::ofstream out{out_path};
    out << json;
    if (!out) {
      std::printf("\nfailed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  // Standardized run-report artifact (written when DREDBOX_REPORT_FILE is
  // set): the determinism digest folds every cell's digest in grid order,
  // so two same-grid sweeps render byte-identical documents.
  sim::Digest fold;
  std::uint64_t offered = 0, completed = 0, failed = 0;
  for (const auto& c : report.cells) {
    fold.update(c.cell.label()).update(static_cast<std::uint64_t>(c.ok ? 1 : 0));
    if (!c.ok) continue;
    fold.update(c.stats.digest);
    offered += c.stats.offered;
    completed += c.stats.completed;
    failed += c.stats.failed;
  }
  sim::RunReport run_report;
  run_report.tag("sweep")
      .seed(grid.seeds.empty() ? 0 : grid.seeds.front())
      .config_digest(base.config().digest())
      .determinism_digest(fold.value())
      .fault_plan(faults == "none" ? "" : faults)
      .duration(sim::Time::ms(duration_ms))
      .note("cells", static_cast<std::uint64_t>(report.cells.size()))
      .note("cells_ok", static_cast<std::uint64_t>(report.cells_ok()))
      .note("offered", offered)
      .note("completed", completed)
      .note("failed", failed);
  if (run_report.maybe_write()) {
    std::printf("wrote run report to %s\n", std::getenv(sim::kReportFileEnv));
  }

  const bool all_ok = report.cells_ok() == report.cells.size();
  return match && all_ok ? 0 : 1;
}
