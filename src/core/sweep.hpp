#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace dredbox::core {

/// One point of a sweep's parameter grid. `index` is the cell's position
/// in the deterministic row-major expansion, which is also where its
/// result lands in the report — results never depend on completion order.
struct SweepCell {
  std::size_t index = 0;
  std::uint64_t seed = 1;
  std::size_t trays = 2;
  /// Fraction of each tenant VM's footprint served from disaggregated
  /// memory (interpreted by the cell body, e.g. the workload engine).
  double remote_ratio = 0.5;
  /// Fault-plan spec in the sim/fault.hpp mini-language; empty = none.
  std::string fault_plan;

  /// Compact "seed=3 trays=2 remote=0.50 faults=..." rendering.
  std::string label() const;
};

/// The sweep's parameter space: a cross product expanded in row-major
/// order (seeds outermost, fault plans innermost), so cell indices are
/// stable across runs and thread counts.
struct SweepGrid {
  std::vector<std::uint64_t> seeds = {1};
  std::vector<std::size_t> rack_trays = {2};
  std::vector<double> remote_ratios = {0.5};
  std::vector<std::string> fault_plans = {""};

  /// Field-naming validation errors; empty means the grid is runnable.
  std::vector<std::string> errors() const;
  std::size_t size() const {
    return seeds.size() * rack_trays.size() * remote_ratios.size() * fault_plans.size();
  }
  std::vector<SweepCell> expand() const;
};

/// What one cell measured, reduced to plain numbers so the report never
/// holds a Datacenter (and the runner can free each rack as its cell
/// finishes).
struct CellStats {
  /// Determinism fingerprint of the cell's full op stream. Equal seeds and
  /// parameters must produce equal digests regardless of thread count —
  /// the property test_sweep and the CI smoke job assert.
  std::uint64_t digest = 0;
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double offered_rate_hz = 0.0;
  double throughput_hz = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double dma_p99_us = 0.0;
  double power_mean_w = 0.0;
  double power_max_w = 0.0;
};

/// One finished cell: its parameters plus stats, or the error that broke
/// it (a throwing cell body fails the cell, not the sweep).
struct CellResult {
  SweepCell cell;
  CellStats stats;
  bool ok = false;
  std::string error;
};

/// A completed sweep: per-cell results in grid order plus how the sweep
/// itself ran.
struct SweepReport {
  SweepGrid grid;
  std::vector<CellResult> cells;
  std::size_t threads = 1;
  /// Host wall-clock of the run() call (the quantity the parallel-speedup
  /// acceptance check divides).
  double wall_seconds = 0.0;

  std::size_t cells_ok() const;

  /// Serializes to the "dredbox-sweep/v1" JSON schema consumed by
  /// scripts/validate_artifacts.py (digests as fixed-width hex strings).
  std::string to_json() const;
};

/// True when both reports cover the same grid and every per-cell digest
/// matches (the sequential-vs-parallel equivalence check).
bool digests_match(const SweepReport& a, const SweepReport& b);

/// Fans a parameter grid across worker threads, one fully independent
/// Datacenter per cell.
///
/// Each cell copies the base ScenarioBuilder, applies the cell's trays /
/// seed / fault plan, builds a fresh rack and hands it to the cell body.
/// Nothing is shared between concurrent cells — a Datacenter owns its
/// simulator, RNG and telemetry, so per-seed determinism survives any
/// thread count. Cells are claimed from an atomic cursor but stored by
/// grid index, so the report is identical however threads interleave.
///
/// The cell body must be re-entrant: it is invoked concurrently from
/// worker threads, with distinct Datacenters. The standard body lives in
/// workload/sweep_body.hpp; tests substitute lightweight ones.
class SweepRunner {
 public:
  using CellBody = std::function<CellStats(const SweepCell&, Datacenter&)>;

  /// Throws std::invalid_argument listing every grid error.
  SweepRunner(SweepGrid grid, CellBody body);

  /// Base deployment every cell starts from (the cell then overrides
  /// trays, seed and fault plan). Defaults to ScenarioBuilder's defaults.
  void set_base(ScenarioBuilder base) { base_ = std::move(base); }

  const SweepGrid& grid() const { return grid_; }

  /// Runs every cell on `threads` workers (1 = inline on the calling
  /// thread) and reduces to a report. May be called repeatedly — e.g.
  /// once sequential and once parallel to compare digests.
  SweepReport run(std::size_t threads = 1) const;

 private:
  SweepGrid grid_;
  CellBody body_;
  ScenarioBuilder base_;

  CellResult run_cell(const SweepCell& cell) const;
};

}  // namespace dredbox::core
