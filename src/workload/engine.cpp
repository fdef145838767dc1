#include "workload/engine.hpp"

#include <stdexcept>
#include <utility>

#include "sim/contract.hpp"
#include "sim/format.hpp"
#include "sim/span.hpp"

namespace dredbox::workload {

namespace {

/// Uniform 64-byte-aligned offset so a request of `bytes` fits inside a
/// window of `size`. Validation guarantees bytes <= size.
std::uint64_t aligned_offset(sim::Rng& rng, std::uint64_t size, std::uint64_t bytes) {
  const std::uint64_t span = (size - bytes) / 64;
  return static_cast<std::uint64_t>(rng.uniform_int(0, static_cast<std::int64_t>(span))) * 64;
}

}  // namespace

std::vector<std::string> WorkloadConfig::errors() const {
  std::vector<std::string> out;
  if (tenants.empty()) out.push_back("tenants: workload needs at least one tenant class");
  if (duration <= sim::Time::zero()) {
    out.push_back("duration: generation window must be positive");
  }
  if (drain_grace < sim::Time::zero()) {
    out.push_back("drain_grace: drain window cannot be negative");
  }
  if (sample_period < sim::Time::zero()) {
    out.push_back("sample_period: sampling period cannot be negative");
  }
  for (const auto& tenant : tenants) {
    auto tenant_errors = tenant.errors();
    out.insert(out.end(), tenant_errors.begin(), tenant_errors.end());
  }
  return out;
}

std::string WorkloadResult::summary() const {
  std::string out = sim::strformat(
      "vms %zu/%zu booted (%zu boot, %zu scale-up failures)\n"
      "offered %llu requests (%.0f req/s), completed %llu (%.0f req/s), failed %llu, "
      "retries %llu\n"
      "mix: %llu reads, %llu writes, %llu DMA transfers\n",
      vms_booted, vms_requested, boot_failures, scale_up_failures,
      static_cast<unsigned long long>(offered), offered_rate_hz(),
      static_cast<unsigned long long>(completed), throughput_hz(),
      static_cast<unsigned long long>(failed), static_cast<unsigned long long>(retries),
      static_cast<unsigned long long>(reads), static_cast<unsigned long long>(writes),
      static_cast<unsigned long long>(dmas));
  if (!latency_us.empty()) {
    out += sim::strformat("read/write latency: p50 %.2f us  p95 %.2f us  p99 %.2f us\n",
                          latency_us.percentile(50), latency_us.percentile(95),
                          latency_us.percentile(99));
  }
  if (cross_ops > 0) {
    out += sim::strformat("cross-rack: %llu ops", static_cast<unsigned long long>(cross_ops));
    if (!cross_latency_us.empty()) {
      out += sim::strformat("  p50 %.2f us  p99 %.2f us", cross_latency_us.percentile(50),
                            cross_latency_us.percentile(99));
    }
    out += "\n";
  }
  if (!dma_latency_us.empty()) {
    out += sim::strformat("DMA latency: p50 %.2f us  p95 %.2f us  p99 %.2f us\n",
                          dma_latency_us.percentile(50), dma_latency_us.percentile(95),
                          dma_latency_us.percentile(99));
  }
  if (!power_w.empty()) {
    out += sim::strformat("rack power: mean %.1f W  max %.1f W\n", power_w.mean(),
                          power_w.max());
  }
  out += sim::strformat("digest %016llx", static_cast<unsigned long long>(digest));
  return out;
}

WorkloadEngine::WorkloadEngine(core::Datacenter& dc, WorkloadConfig config)
    : dc_{dc}, config_{std::move(config)} {
  sim::throw_if_invalid("WorkloadConfig", config_.errors());
}

void WorkloadEngine::boot_tenants() {
  sim::Time ready = dc_.simulator().now();
  for (const auto& spec : config_.tenants) {
    for (std::size_t i = 0; i < spec.vms; ++i) {
      ++result_.vms_requested;
      const std::string vm_name = spec.name + "-" + std::to_string(i);
      const auto boot = dc_.boot_vm(vm_name, spec.vcpus, spec.local_bytes);
      if (!boot.ok) {
        ++result_.boot_failures;
        digest_.update("boot-failed").update(vm_name);
        continue;
      }
      const auto up = dc_.scale_up(boot.vm, boot.compute, spec.remote_bytes);
      if (!up.ok) {
        ++result_.scale_up_failures;
        digest_.update("scale-up-failed").update(vm_name);
        continue;
      }
      // Locate the window the scale-up installed: the attachment whose
      // segment the SDM-C reported back.
      auto driver = std::make_unique<VmDriver>(spec, ArrivalClock{spec, dc_.simulator().fork_rng()});
      driver->vm = boot.vm;
      driver->compute = boot.compute;
      for (const auto& attachment : dc_.fabric().attachments_of(boot.compute)) {
        if (attachment.segment == up.segment && attachment.membrick == up.membrick) {
          driver->window_base = attachment.compute_base;
          driver->window_size = attachment.size;
        }
      }
      if (driver->window_size == 0) {
        // Scale-up reported ok but the attachment is not visible — treat
        // as a scale-up failure rather than issuing unmapped traffic.
        ++result_.scale_up_failures;
        digest_.update("window-missing").update(vm_name);
        continue;
      }
      if (spec.mix.dma > 0.0) {
        // DMA engines are per-brick hardware (Fig. 3: two per dCOMPUBRICK),
        // so tenants co-located on a brick share one engine and contend for
        // its channels — exactly the multi-tenant interference of interest.
        auto& engine = dma_engines_[driver->compute];
        if (!engine) {
          engine = std::make_unique<memsys::DmaEngine>(dc_.simulator(), dc_.fabric(),
                                                       driver->compute);
        }
        driver->dma = engine.get();
      }
      ++result_.vms_booted;
      if (up.completed_at > ready) ready = up.completed_at;
      if (boot.completed_at > ready) ready = boot.completed_at;
      driver->index = static_cast<std::uint32_t>(drivers_.size());
      if (cross_port_ != nullptr) {
        driver->cross_share = spec.cross_rack_share.value_or(cross_default_share_);
      }
      digest_.update("vm").update(vm_name).update(driver->window_base)
          .update(driver->window_size);
      drivers_.push_back(std::move(driver));
    }
  }
  boot_ready_ = ready;
}

void WorkloadEngine::start_streams(sim::Time t0) {
  auto& sim = dc_.simulator();
  // One event per initial issue, in driver order, so issues that land on
  // the same tick fire in that order. Each event then carries its issue
  // loop, re-arming itself for the loop's next issue.
  for (auto& owned : drivers_) {
    VmDriver* driver = owned.get();
    if (driver->spec.loop == LoopMode::kOpen) {
      const sim::Time first = t0 + driver->clock.next_gap(t0);
      if (first < end_) {
        sim.at(first, [this, driver] { open_arrival(*driver); }, "workload.open_arrival");
      }
    } else {
      for (std::size_t window = 0; window < driver->spec.outstanding; ++window) {
        const sim::Time first = t0 + driver->clock.next_gap(t0);
        if (first < end_) schedule_closed_issue(first, *driver);
      }
    }
  }
}

void WorkloadEngine::schedule_power_samples(sim::Time t0) {
  if (config_.power_samples == 0) return;
  auto& sim = dc_.simulator();
  const auto n = static_cast<std::int64_t>(config_.power_samples);
  for (std::int64_t j = 1; j <= n; ++j) {
    sim.at(t0 + config_.duration * j / n, [this] {
      const double watts = dc_.power_draw_watts();
      result_.power_w.add(watts);
      digest_.update("power").update(static_cast<std::uint64_t>(watts * 1e3));
    }, "workload.power_sample");
  }
}

// dredbox-lint: hot-path-begin — the per-op issue/record loop: every
// offered op runs one of these; steady state must not touch the heap
// (trace spans are gated on ctx.valid(), which is off on measured runs).
void WorkloadEngine::schedule_closed_issue(sim::Time when, VmDriver& driver) {
  dc_.simulator().at(when, [this, d = &driver] { closed_issue(*d); }, "workload.closed_issue");
}

void WorkloadEngine::open_arrival(VmDriver& driver) {
  auto& sim = dc_.simulator();
  const sim::Time now = sim.now();
  if (now >= end_) return;
  // Chain the next arrival first so pacing is independent of what this
  // request turns out to be.
  const sim::Time next = now + driver.clock.next_gap(now);
  if (next < end_) sim.rearm(next, "workload.open_arrival");
  perform_op(driver, /*closed_loop=*/false);
}

void WorkloadEngine::closed_issue(VmDriver& driver) {
  auto& sim = dc_.simulator();
  if (sim.now() >= end_) return;
  // A read or write chains the VM's next issue here; a DMA or cross-rack
  // op chains it off its completion, which schedules a fresh event.
  const std::optional<sim::Time> next = perform_op(driver, /*closed_loop=*/true);
  if (next && *next < end_) sim.rearm(*next, "workload.closed_issue");
}

std::optional<sim::Time> WorkloadEngine::perform_op(VmDriver& driver, bool closed_loop) {
  auto& sim = dc_.simulator();
  auto& rng = driver.clock.rng();
  const sim::Time now = sim.now();
  ++result_.offered;

  // Root of the op's causal tree: the fabric transaction, its retries,
  // fallbacks, and packet or DMA legs all nest under this trace id. The
  // id stream is separate from the workload Rng, so tracing on/off never
  // moves a random draw.
  sim::TraceContext ctx;
  sim::Telemetry& telemetry = dc_.telemetry();
  if (telemetry.tracing()) ctx = telemetry.tracer().begin_trace();

  const auto& mix = driver.spec.mix;
  const std::size_t kind = rng.weighted_index({mix.read, mix.write, mix.dma});

  // Cross-rack leg: a share of the read/write stream goes to a peer
  // rack's gateway window over the spine. The branch draws from the RNG
  // only when the share is armed, so single-rack runs (share 0, or no
  // port) keep a byte-identical op stream and digest.
  if (kind != 2 && driver.cross_share > 0.0 && rng.chance(driver.cross_share)) {
    issue_cross(driver, closed_loop, /*write=*/kind == 1);
    return std::nullopt;
  }

  if (kind == 2) {
    // Bulk transfer through the brick's shared DMA engines. Direction
    // follows the read/write ratio of the mix (pull vs push).
    ++result_.dmas;
    memsys::DmaDescriptor descriptor;
    descriptor.address =
        driver.window_base + aligned_offset(rng, driver.window_size, driver.spec.dma_bytes);
    descriptor.bytes = driver.spec.dma_bytes;
    const double rw = mix.read + mix.write;
    const bool pull = rw > 0.0 ? rng.chance(mix.read / rw) : false;
    descriptor.direction =
        pull ? memsys::TransactionKind::kRead : memsys::TransactionKind::kWrite;
    descriptor.ctx = ctx;
    // Capture budget (InplaceFunction, 48 bytes): this + driver + ctx +
    // closed_loop fit exactly; the issue time is not captured — it is the
    // completion's enqueued_at, stamped by the engine at this same instant.
    driver.dma->enqueue(
        descriptor,
        [this, d = &driver, closed_loop, ctx](const memsys::DmaCompletion& done) {
          record_dma(*d, done);
          if (ctx.valid()) {
            sim::Span span{dc_.telemetry().tracer(), sim::TraceCategory::kApplication,
                           "op dma", done.enqueued_at};
            span.context(ctx);
            span.arg("vm", d->vm.to_string()).arg("ok", done.ok ? "yes" : "no");
            span.end(done.completed_at);
          }
          if (closed_loop) {
            const sim::Time next = done.completed_at + d->clock.next_gap(done.completed_at);
            if (next < end_) schedule_closed_issue(next, *d);
          }
        });
    return std::nullopt;
  }

  const std::uint64_t address =
      driver.window_base + aligned_offset(rng, driver.window_size, driver.spec.op_bytes);
  const memsys::TransactionKind tx_kind =
      kind == 0 ? memsys::TransactionKind::kRead : memsys::TransactionKind::kWrite;
  if (kind == 0) {
    ++result_.reads;
  } else {
    ++result_.writes;
  }
  // The op rides the window's held route; the fabric walks (its recovery
  // loop and trace spans included) whatever the held route cannot carry.
  const memsys::RemoteMemoryFabric::Outcome tx = dc_.fabric().transact(
      driver.held, tx_kind, driver.compute, address, driver.spec.op_bytes, now, ctx);
  record_sync_op(tx_kind, address, tx.status, tx.completed_at - now, tx.retries);
  if (ctx.valid()) {
    sim::Span span{telemetry.tracer(), sim::TraceCategory::kApplication,
                   kind == 0 ? "op read" : "op write", now};
    span.context(ctx);
    span.arg("vm", driver.vm.to_string()).arg("status", memsys::to_string(tx.status));
    span.end(tx.completed_at);
  }
  if (!closed_loop) return std::nullopt;
  const sim::Time done = tx.completed_at > now ? tx.completed_at : now;
  return done + driver.clock.next_gap(done);
}

void WorkloadEngine::issue_cross(VmDriver& driver, bool closed_loop, bool write) {
  auto& rng = driver.clock.rng();
  if (write) {
    ++result_.writes;
  } else {
    ++result_.reads;
  }
  ++result_.cross_ops;
  const std::size_t peers = cross_port_->peer_count();
  const std::size_t peer =
      peers > 1 ? static_cast<std::size_t>(
                      rng.uniform_int(0, static_cast<std::int64_t>(peers) - 1))
                : 0;
  const std::uint64_t offset =
      aligned_offset(rng, cross_port_->window_bytes(peer), driver.spec.op_bytes);
  // The completion — success or fail-fast — always comes back through
  // complete_cross() as an event on this rack's own queue.
  cross_port_->issue(peer, offset, driver.spec.op_bytes, write, driver.index, closed_loop);
}

void WorkloadEngine::complete_cross(const core::CrossCompletion& done) {
  VmDriver& driver = *drivers_[done.token];
  if (done.ok) {
    ++result_.completed;
    const double us = done.round_trip().as_us();
    result_.latency_us.add(us);
    result_.cross_latency_us.add(us);
  } else {
    ++result_.failed;
  }
  digest_.update("x")
      .update(done.address)
      .update(static_cast<std::uint64_t>(done.ok ? 1 : 0))
      .update(static_cast<std::uint64_t>(done.round_trip().ticks()));
  if (done.closed_loop) {
    const sim::Time next = done.completed_at + driver.clock.next_gap(done.completed_at);
    if (next < end_) schedule_closed_issue(next, driver);
  }
}

void WorkloadEngine::record_sync_op(memsys::TransactionKind kind, std::uint64_t address,
                                    memsys::TransactionStatus status, sim::Time round_trip,
                                    std::uint32_t retries) {
  result_.retries += retries;
  if (status == memsys::TransactionStatus::kOk) {
    ++result_.completed;
    result_.latency_us.add(round_trip.as_us());
  } else {
    ++result_.failed;
  }
  digest_.update(kind == memsys::TransactionKind::kRead ? "r" : "w")
      .update(address)
      .update(static_cast<std::uint64_t>(status))
      .update(static_cast<std::uint64_t>(round_trip.ticks()));
}

void WorkloadEngine::record_dma(VmDriver& driver, const memsys::DmaCompletion& done) {
  result_.retries += done.retries;
  if (done.ok) {
    ++result_.completed;
    result_.dma_latency_us.add((done.completed_at - done.enqueued_at).as_us());
  } else {
    ++result_.failed;
  }
  digest_.update("d")
      .update(driver.window_base)
      .update(done.bytes)
      .update(static_cast<std::uint64_t>(done.ok ? 1 : 0))
      .update(static_cast<std::uint64_t>((done.completed_at - done.enqueued_at).ticks()));
}
// dredbox-lint: hot-path-end

void WorkloadEngine::install_cross_port(core::CrossRackPort* port, double default_share) {
  if (prepared_) {
    throw std::logic_error("install_cross_port() must precede prepare()/run()");
  }
  if (port == nullptr || port->peer_count() == 0) return;  // nothing to cross to
  cross_port_ = port;
  cross_default_share_ = default_share;
  cross_port_->set_handler(
      [this](const core::CrossCompletion& done) { complete_cross(done); });
}

void WorkloadEngine::prepare() {
  if (prepared_) throw std::logic_error("WorkloadEngine::prepare() may only be called once");
  prepared_ = true;
  boot_tenants();
}

void WorkloadEngine::begin_window(sim::Time t0) {
  if (!prepared_ || started_) {
    throw std::logic_error("begin_window() must follow prepare(), once");
  }
  started_ = true;
  end_ = t0 + config_.duration;

  if (config_.sample_period > sim::Time::zero()) {
    sampler_ = std::make_unique<sim::TimeSeriesSampler>(dc_.simulator(), dc_.metrics(),
                                                        config_.sample_period);
    sampler_->start(end_ + config_.drain_grace);
  }
  schedule_power_samples(t0);
  start_streams(t0);
}

WorkloadResult WorkloadEngine::finish() {
  if (!started_ || finished_) {
    throw std::logic_error("finish() must follow begin_window(), once");
  }
  finished_ = true;
  if (sampler_ != nullptr) {
    result_.timeseries = sampler_->take();
    sampler_.reset();
  }
  result_.duration_s = config_.duration.as_sec();
  digest_.update("totals")
      .update(result_.offered)
      .update(result_.completed)
      .update(result_.failed)
      .update(result_.retries);
  result_.digest = digest_.value();
  // Called once (finished_ guards it), so the samples move out, not copy.
  return std::move(result_);
}

WorkloadResult WorkloadEngine::run() {
  prepare();
  dc_.advance_to(boot_ready_);
  begin_window(dc_.simulator().now());
  dc_.advance_to(end_ + config_.drain_grace);
  return finish();
}

sim::RunReport make_run_report(const core::Datacenter& dc, const WorkloadConfig& config,
                               const WorkloadResult& result, const std::string& tag,
                               const std::string& fault_plan) {
  sim::RunReport report;
  report.tag(tag)
      .seed(dc.config().seed)
      .config_digest(dc.config().digest())
      .determinism_digest(result.digest)
      .fault_plan(fault_plan)
      .duration(dc.simulator().now())
      .note("vms_booted", static_cast<std::uint64_t>(result.vms_booted))
      .note("offered", result.offered)
      .note("completed", result.completed)
      .note("failed", result.failed)
      .note("reads", result.reads)
      .note("writes", result.writes)
      .note("dmas", result.dmas)
      .note("retries", result.retries)
      .metrics(dc.metrics())
      .traces(dc.tracer());
  if (!result.timeseries.empty()) {
    report.timeseries(result.timeseries, config.sample_period);
  }
  return report;
}

}  // namespace dredbox::workload
