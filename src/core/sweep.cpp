#include "core/sweep.hpp"

#include <algorithm>
#include <chrono>  // dredbox-lint: ignore[wall-clock] sweep speedup is a host-side quantity
#include <stdexcept>

#include "sim/contract.hpp"
#include "sim/format.hpp"
#include "sim/stats.hpp"
#include "sim/trace_export.hpp"
#include "sim/worker_pool.hpp"

namespace dredbox::core {

std::string SweepCell::label() const {
  std::string out = sim::strformat("seed=%llu trays=%zu remote=%.2f",
                                   static_cast<unsigned long long>(seed), trays, remote_ratio);
  if (!fault_plan.empty()) out += " faults=" + fault_plan;
  return out;
}

std::vector<std::string> SweepGrid::errors() const {
  std::vector<std::string> out;
  if (seeds.empty()) out.push_back("seeds: sweep needs at least one seed");
  if (rack_trays.empty()) out.push_back("rack_trays: sweep needs at least one rack size");
  if (remote_ratios.empty()) {
    out.push_back("remote_ratios: sweep needs at least one remote-memory ratio");
  }
  if (fault_plans.empty()) {
    out.push_back("fault_plans: sweep needs at least one entry (\"\" = no faults)");
  }
  for (std::size_t t : rack_trays) {
    if (t == 0) out.push_back("rack_trays: rack sizes must be at least one tray");
  }
  for (double r : remote_ratios) {
    if (!(r >= 0.0) || !(r <= 1.0)) {
      out.push_back(sim::strformat("remote_ratios: ratio %g outside [0, 1]", r));
    }
  }
  for (const auto& spec : fault_plans) {
    if (spec.empty()) continue;
    try {
      (void)sim::FaultPlan::parse(spec);
    } catch (const std::exception& e) {
      out.push_back("fault_plans: \"" + spec + "\": " + e.what());
    }
  }
  return out;
}

std::vector<SweepCell> SweepGrid::expand() const {
  std::vector<SweepCell> cells;
  cells.reserve(size());
  // Row-major, seeds outermost: indices are a pure function of the grid,
  // never of execution order.
  for (std::uint64_t seed : seeds) {
    for (std::size_t trays : rack_trays) {
      for (double ratio : remote_ratios) {
        for (const auto& plan : fault_plans) {
          SweepCell cell;
          cell.index = cells.size();
          cell.seed = seed;
          cell.trays = trays;
          cell.remote_ratio = ratio;
          cell.fault_plan = plan;
          cells.push_back(std::move(cell));
        }
      }
    }
  }
  return cells;
}

std::size_t SweepReport::cells_ok() const {
  std::size_t n = 0;
  for (const auto& c : cells) {
    if (c.ok) ++n;
  }
  return n;
}

namespace {

std::string json_double(double v) { return sim::strformat("%.9g", v); }

std::string json_cell(const CellResult& r) {
  std::string out = "    {";
  out += sim::strformat(R"("index": %zu, "seed": %llu, "trays": %zu, "remote_ratio": %s, )",
                        r.cell.index, static_cast<unsigned long long>(r.cell.seed),
                        r.cell.trays, json_double(r.cell.remote_ratio).c_str());
  out += R"("fault_plan": ")" + sim::json_escape(r.cell.fault_plan) + R"(", )";
  out += sim::strformat(R"("ok": %s)", r.ok ? "true" : "false");
  if (!r.ok) {
    out += R"(, "error": ")" + sim::json_escape(r.error) + "\"}";
    return out;
  }
  const CellStats& s = r.stats;
  out += sim::strformat(R"(, "digest": "%016llx")", static_cast<unsigned long long>(s.digest));
  out += sim::strformat(R"(, "offered": %llu, "completed": %llu, "failed": %llu)",
                        static_cast<unsigned long long>(s.offered),
                        static_cast<unsigned long long>(s.completed),
                        static_cast<unsigned long long>(s.failed));
  out += sim::strformat(R"(, "offered_rate_hz": %s, "throughput_hz": %s)",
                        json_double(s.offered_rate_hz).c_str(),
                        json_double(s.throughput_hz).c_str());
  out += sim::strformat(R"(, "latency_us": {"p50": %s, "p95": %s, "p99": %s})",
                        json_double(s.p50_us).c_str(), json_double(s.p95_us).c_str(),
                        json_double(s.p99_us).c_str());
  out += sim::strformat(R"(, "dma_p99_us": %s)", json_double(s.dma_p99_us).c_str());
  out += sim::strformat(R"(, "power_w": {"mean": %s, "max": %s})",
                        json_double(s.power_mean_w).c_str(),
                        json_double(s.power_max_w).c_str());
  out += "}";
  return out;
}

template <typename T, typename Fn>
std::string json_array(const std::vector<T>& values, Fn render) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ", ";
    out += render(values[i]);
  }
  return out + "]";
}

}  // namespace

std::string SweepReport::to_json() const {
  std::string out = "{\n";
  out += R"(  "schema": "dredbox-sweep/v1",)" "\n";
  out += "  \"grid\": {\n";
  out += "    \"seeds\": " +
         json_array(grid.seeds,
                    [](std::uint64_t s) {
                      return sim::strformat("%llu", static_cast<unsigned long long>(s));
                    }) +
         ",\n";
  out += "    \"rack_trays\": " +
         json_array(grid.rack_trays, [](std::size_t t) { return sim::strformat("%zu", t); }) +
         ",\n";
  out += "    \"remote_ratios\": " +
         json_array(grid.remote_ratios, [](double r) { return json_double(r); }) + ",\n";
  out += "    \"fault_plans\": " +
         json_array(grid.fault_plans,
                    [](const std::string& p) {
                      std::string quoted = "\"";
                      quoted += sim::json_escape(p);
                      quoted += '"';
                      return quoted;
                    }) +
         "\n  },\n";
  out += sim::strformat("  \"threads\": %zu,\n", threads);
  out += "  \"wall_seconds\": " + json_double(wall_seconds) + ",\n";

  sim::RunningStats throughput;
  sim::RunningStats p99;
  for (const auto& c : cells) {
    if (!c.ok) continue;
    throughput.add(c.stats.throughput_hz);
    if (c.stats.p99_us > 0.0) p99.add(c.stats.p99_us);
  }
  out += sim::strformat("  \"aggregate\": {\"cells\": %zu, \"cells_ok\": %zu", cells.size(),
                        cells_ok());
  out += sim::strformat(
      R"(, "throughput_hz": {"mean": %s, "min": %s, "max": %s})",
      json_double(throughput.mean()).c_str(), json_double(throughput.min()).c_str(),
      json_double(throughput.max()).c_str());
  out += sim::strformat(R"(, "p99_us": {"mean": %s, "max": %s}},)" "\n",
                        json_double(p99.mean()).c_str(), json_double(p99.max()).c_str());

  out += "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    out += json_cell(cells[i]);
    out += i + 1 < cells.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool digests_match(const SweepReport& a, const SweepReport& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].ok != b.cells[i].ok) return false;
    if (a.cells[i].ok && a.cells[i].stats.digest != b.cells[i].stats.digest) return false;
  }
  return true;
}

SweepRunner::SweepRunner(SweepGrid grid, CellBody body)
    : grid_{std::move(grid)}, body_{std::move(body)} {
  if (!body_) throw std::invalid_argument("SweepRunner: cell body must be callable");
  sim::throw_if_invalid("SweepGrid", grid_.errors());
}

CellResult SweepRunner::run_cell(const SweepCell& cell) const {
  CellResult out;
  out.cell = cell;
  try {
    // A private copy of the base deployment, specialised to this cell.
    // build() assembles a fully independent Datacenter (own simulator,
    // RNG, telemetry), so concurrent cells share nothing.
    ScenarioBuilder builder = base_;
    builder.trays(cell.trays).seed(cell.seed);
    if (!cell.fault_plan.empty()) builder.fault_plan(cell.fault_plan);
    Scenario scenario = builder.build();
    out.stats = body_(cell, scenario.datacenter());
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

SweepReport SweepRunner::run(std::size_t threads) const {
  const std::vector<SweepCell> cells = grid_.expand();
  SweepReport report;
  report.grid = grid_;
  report.threads = std::max<std::size_t>(1, threads);
  report.cells.resize(cells.size());

  // Host wall-clock, not simulated time: the sweep's parallel speedup is a
  // property of the harness itself.
  const auto started = std::chrono::steady_clock::now();  // dredbox-lint: ignore[wall-clock] measures host-side sweep speedup

  if (report.threads == 1 || cells.size() <= 1) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      report.cells[i] = run_cell(cells[i]);
    }
  } else {
    // Cells are claimed work-stealing style off the shared pool's cursor,
    // but each result lands at its grid index, so the report never depends
    // on which worker ran what.
    sim::WorkerPool pool{std::min(report.threads, cells.size())};
    sim::ResultStore<CellResult> results{cells.size()};
    pool.parallel_for(cells.size(),
                      [&](std::size_t i) { results.store(i, run_cell(cells[i])); });
    report.cells = results.take();
  }

  const auto ended = std::chrono::steady_clock::now();  // dredbox-lint: ignore[wall-clock] measures host-side sweep speedup
  report.wall_seconds = std::chrono::duration<double>(ended - started).count();
  return report;
}

}  // namespace dredbox::core
