#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/cross_port.hpp"
#include "core/datacenter.hpp"
#include "memsys/dma.hpp"
#include "sim/digest.hpp"
#include "sim/run_report.hpp"
#include "sim/stats.hpp"
#include "sim/timeseries.hpp"
#include "workload/tenant.hpp"

namespace dredbox::workload {

/// A whole multi-tenant load session: the tenant classes to expand into
/// VMs plus the generation window.
struct WorkloadConfig {
  std::vector<TenantSpec> tenants;
  /// Length of the request-generation window (measured in simulated time,
  /// starting after every tenant booted and scaled up).
  sim::Time duration = sim::Time::ms(20);
  /// Extra simulated time after the window for in-flight DMA transfers and
  /// closed-loop tails to land.
  sim::Time drain_grace = sim::Time::ms(5);
  /// Rack power-draw samples taken across the window (0 disables).
  std::size_t power_samples = 8;
  /// Sim-clock period of the metric time-series sampler (zero disables,
  /// the default). When set, every registered instrument is snapshotted
  /// into ring-buffered series each period across the window plus drain;
  /// the result lands in WorkloadResult::timeseries. Sampling draws
  /// nothing from the Rng, so it never changes the op stream or digest.
  sim::Time sample_period = sim::Time::zero();

  /// Field-naming validation errors; empty means the config is runnable.
  std::vector<std::string> errors() const;
};

/// Everything a load session measured. The digest is an exact FNV-1a fold
/// of the full op stream (kind, VM, address, status, latency ticks), so
/// two runs are byte-identical iff their digests match — the property the
/// sweep runner's sequential-vs-parallel check rests on.
struct WorkloadResult {
  std::size_t vms_requested = 0;
  std::size_t vms_booted = 0;
  std::size_t boot_failures = 0;
  std::size_t scale_up_failures = 0;

  /// Requests generated inside the window (open-loop arrivals plus
  /// closed-loop issues).
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t dmas = 0;
  /// Reads/writes that went to a peer rack over the spine (a subset of
  /// reads + writes; zero unless a cross-rack port is installed).
  std::uint64_t cross_ops = 0;
  /// Data-plane recovery attempts the fabric charged across all requests.
  std::uint64_t retries = 0;

  /// Read/write round trips, microseconds.
  sim::SampleSet latency_us;
  /// Cross-rack round trips, microseconds (also counted in latency_us).
  sim::SampleSet cross_latency_us;
  /// DMA enqueue-to-completion, microseconds.
  sim::SampleSet dma_latency_us;
  /// Rack power draw sampled across the window, watts.
  sim::SampleSet power_w;
  /// Metric time series sampled at WorkloadConfig::sample_period (empty
  /// when sampling was disabled). Export with to_openmetrics()/write_csv().
  sim::TimeSeriesSet timeseries;

  double duration_s = 0.0;
  std::uint64_t digest = 0;

  double offered_rate_hz() const {
    return duration_s > 0.0 ? static_cast<double>(offered) / duration_s : 0.0;
  }
  double throughput_hz() const {
    return duration_s > 0.0 ? static_cast<double>(completed) / duration_s : 0.0;
  }

  /// Human-readable block for examples and reports.
  std::string summary() const;
};

/// Drives a declared multi-tenant workload against one Datacenter: boots
/// every tenant VM through the OpenStack front-end, attaches its
/// disaggregated footprint through the SDM-C (exactly the control path a
/// real tenant exercises), then generates the request streams on the
/// simulation's event queue so arrivals, faults and recoveries interleave
/// on one timeline.
///
/// The engine owns no threads and touches nothing outside the Datacenter
/// it was handed, so any number of engines may run concurrently against
/// fully independent Datacenters (the sweep runner does exactly that).
class WorkloadEngine {
 public:
  /// Throws std::invalid_argument listing every config error.
  WorkloadEngine(core::Datacenter& dc, WorkloadConfig config);

  WorkloadEngine(const WorkloadEngine&) = delete;
  WorkloadEngine& operator=(const WorkloadEngine&) = delete;

  const WorkloadConfig& config() const { return config_; }

  /// Points a share of every tenant's read/write stream at peer racks
  /// through `port` (a rack NIC of a core::Cluster). `default_share` is
  /// the deployment-wide cross-rack fraction; a TenantSpec's
  /// cross_rack_share overrides it per tenant. Must be called before
  /// prepare()/run(); a port with no peers is ignored. The engine takes
  /// over the port's completion handler.
  void install_cross_port(core::CrossRackPort* port, double default_share);

  /// Boots, generates, drains, reduces. One call per engine. Equivalent
  /// to the phase sequence below with this rack's own clock advanced
  /// between phases — the single-Datacenter call pattern.
  WorkloadResult run();

  // --- phase API ---
  // The cluster engine drives each rack's engine through these so the
  // *coupled* advance between begin_window() and finish() can run on the
  // partitioned kernel instead of each rack's private clock: prepare()
  // every rack, advance every rack to the global max boot_ready(),
  // begin_window() every rack, advance the cluster to the shared horizon,
  // finish() every rack.

  /// Phase 1: boots and scales up every tenant VM (control plane only).
  void prepare();
  /// When the last boot/scale-up completed; valid after prepare().
  sim::Time boot_ready() const { return boot_ready_; }
  /// Phase 2: schedules the request streams across [t0, t0 + duration).
  /// The caller must have advanced this rack's clock to exactly t0.
  void begin_window(sim::Time t0);
  /// Phase 3: reduces totals into the result. The caller must have
  /// advanced this rack past t0 + duration + drain_grace.
  WorkloadResult finish();

 private:
  /// One booted VM driving requests: placement, its remote window, its
  /// pacing clock and its brick's DMA engine.
  struct VmDriver {
    const TenantSpec& spec;
    hw::VmId vm;
    hw::BrickId compute;
    std::uint64_t window_base = 0;
    std::uint64_t window_size = 0;
    ArrivalClock clock;
    /// The hosting brick's shared DMA engine (null when the mix has no DMA).
    memsys::DmaEngine* dma = nullptr;
    /// Index in drivers_ — the token echoed back by cross-rack completions.
    std::uint32_t index = 0;
    /// Resolved cross-rack fraction (0 when no port is installed).
    double cross_share = 0.0;
    /// The window's held fabric routes: reads and writes each keep their
    /// own stage terms, so alternating kinds never re-derives them.
    memsys::RemoteMemoryFabric::HeldRoute held;

    VmDriver(const TenantSpec& s, ArrivalClock c) : spec{s}, clock{std::move(c)} {}
  };

  core::Datacenter& dc_;
  WorkloadConfig config_;
  std::vector<std::unique_ptr<VmDriver>> drivers_;
  /// One DMA engine per dCOMPUBRICK, shared by all co-located tenants
  /// (never iterated — lookup only, so no ordering nondeterminism).
  std::unordered_map<hw::BrickId, std::unique_ptr<memsys::DmaEngine>> dma_engines_;
  WorkloadResult result_;
  sim::Digest digest_;
  sim::Time boot_ready_;
  sim::Time end_;
  bool prepared_ = false;
  bool started_ = false;
  bool finished_ = false;
  /// Peer-rack NIC (null on single-rack runs) and the deployment-wide
  /// cross-rack share tenants inherit when they don't set their own.
  core::CrossRackPort* cross_port_ = nullptr;
  double cross_default_share_ = 0.0;
  /// Live only while run() executes and sample_period > 0.
  std::unique_ptr<sim::TimeSeriesSampler> sampler_;

  void boot_tenants();
  void start_streams(sim::Time t0);
  void schedule_power_samples(sim::Time t0);
  /// A VM's issue loops, each run from its own event, which re-arms
  /// itself for the loop's next issue.
  void open_arrival(VmDriver& driver);
  void closed_issue(VmDriver& driver);
  /// Schedules a fresh `workload.closed_issue` event for `driver`.
  void schedule_closed_issue(sim::Time when, VmDriver& driver);
  /// Issues one request at the current simulated time. A closed-loop read
  /// or write returns the VM's next issue time for closed_issue() to
  /// chain; DMA and cross-rack ops chain theirs off the completion and,
  /// like open-loop ops, return nullopt.
  std::optional<sim::Time> perform_op(VmDriver& driver, bool closed_loop);
  /// Issues one read/write against a peer rack's gateway window.
  void issue_cross(VmDriver& driver, bool closed_loop, bool write);
  /// Cross-rack completion handler (runs on this rack's event queue).
  void complete_cross(const core::CrossCompletion& done);
  /// Folds one read/write into the totals and the digest (kind, address,
  /// status, round-trip ticks), whichever path priced it.
  void record_sync_op(memsys::TransactionKind kind, std::uint64_t address,
                      memsys::TransactionStatus status, sim::Time round_trip,
                      std::uint32_t retries);
  void record_dma(VmDriver& driver, const memsys::DmaCompletion& done);
};

/// Builds the standardized dredbox-report/v1 artifact for one finished
/// load session: config + determinism digests, every metric final, the
/// sampled time series (when WorkloadConfig::sample_period was set) and
/// the slowest causal span trees. Callers write it with
/// RunReport::maybe_write() or embed to_json() in a larger document.
/// `fault_plan` is the spec string the run was injected with ("" =
/// healthy).
sim::RunReport make_run_report(const core::Datacenter& dc, const WorkloadConfig& config,
                               const WorkloadResult& result, const std::string& tag,
                               const std::string& fault_plan = "");

}  // namespace dredbox::workload
