#include "orch/migration.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/span.hpp"

namespace dredbox::orch {

MigrationEngine::MigrationEngine(hw::Rack& rack, memsys::RemoteMemoryFabric& fabric,
                                 SdmController& sdm, sim::Telemetry& telemetry,
                                 const MigrationConfig& config)
    : rack_{rack},
      fabric_{fabric},
      sdm_{sdm},
      config_{config},
      telemetry_{telemetry},
      completed_metric_{telemetry.metrics().counter("orch.migration.completed")},
      failed_metric_{telemetry.metrics().counter("orch.migration.failed")},
      repointed_bytes_metric_{telemetry.metrics().counter("orch.migration.repointed_bytes")},
      // Downtime is pause/resume plus the residual stop-and-copy: tens of ms.
      downtime_metric_{
          telemetry.metrics().histogram("orch.migration.downtime_ms", 0.0, 200.0, 40)} {
  if (config.network_bandwidth_gbps <= 0) {
    throw std::invalid_argument("MigrationEngine: bandwidth must be positive");
  }
  if (config.dirty_rate_bytes_per_sec >= config.network_bandwidth_gbps * 1e9 / 8.0) {
    throw std::invalid_argument(
        "MigrationEngine: dirty rate at or above network bandwidth never converges");
  }
}

sim::Time MigrationEngine::conventional_copy_time(std::uint64_t total_bytes) const {
  // Same pre-copy recurrence applied to the whole footprint.
  const double bw = bandwidth_bytes_per_sec();
  double remaining = static_cast<double>(total_bytes);
  double seconds = 0.0;
  for (std::size_t i = 0; i < config_.max_precopy_iterations; ++i) {
    const double t = remaining / bw;
    seconds += t;
    remaining = config_.dirty_rate_bytes_per_sec * t;
    if (remaining <= static_cast<double>(config_.downtime_threshold_bytes)) break;
  }
  seconds += remaining / bw;  // stop-and-copy
  return sim::Time::sec(seconds) + config_.pause_resume;
}

MigrationResult MigrationEngine::migrate(hw::VmId vm, hw::BrickId from, hw::BrickId to,
                                         sim::Time now) {
  MigrationResult result = migrate_impl(vm, from, to, now);
  if (result.ok) {
    completed_metric_.add();
    repointed_bytes_metric_.add(result.repointed_bytes);
    downtime_metric_.observe(result.downtime.as_ms());
  } else {
    failed_metric_.add();
  }
  if (telemetry_.tracing()) {
    sim::Span span{telemetry_.tracer(), sim::TraceCategory::kMigration, "live migration", now};
    span.arg("vm", vm.to_string())
        .arg("from", from.to_string())
        .arg("to", to.to_string())
        .arg("ok", result.ok ? "yes" : "no");
    if (result.ok) {
      span.arg("copied_bytes", std::to_string(result.copied_bytes))
          .arg("repointed_bytes", std::to_string(result.repointed_bytes))
          .arg("downtime_ms", std::to_string(result.downtime.as_ms()));
    }
    span.end(now + result.total_time);
  }
  return result;
}

MigrationResult MigrationEngine::migrate_impl(hw::VmId vm, hw::BrickId from, hw::BrickId to,
                                              sim::Time now) {
  MigrationResult result;
  result.vm = vm;
  result.from = from;
  result.to = to;

  if (from == to) {
    result.error = "source and destination brick are the same";
    return result;
  }
  auto& src_hv = sdm_.agent_for(from).hypervisor();
  auto& dst_agent = sdm_.agent_for(to);
  auto& dst_hv = dst_agent.hypervisor();
  if (!src_hv.has_vm(vm)) {
    result.error = "VM " + vm.to_string() + " is not hosted on brick " + from.to_string();
    return result;
  }

  const auto& guest = src_hv.vm(vm);
  const std::uint64_t total = guest.installed_bytes();

  // Split the footprint: disaggregated DIMMs are re-pointed, local DIMMs
  // are copied.
  std::uint64_t remote_backed = 0;
  std::vector<hw::SegmentId> segments;
  for (const auto& dimm : guest.dimms()) {
    if (dimm.hotplugged && dimm.backing_segment.valid()) {
      remote_backed += dimm.size;
      segments.push_back(dimm.backing_segment);
    }
  }
  const std::uint64_t local = total - remote_backed;

  // Destination must fit the vCPUs and the *local* portion only.
  if (dst_hv.brick() != to) {
    result.error = "destination agent mismatch";
    return result;
  }
  if (rack_.compute_brick(to).cores_free() < guest.vcpus()) {
    result.error = "destination brick lacks " + std::to_string(guest.vcpus()) + " free cores";
    return result;
  }
  if (dst_hv.available_bytes() < local) {
    result.error = "destination brick lacks " + std::to_string(local >> 20) +
                   " MiB of host memory for the local portion";
    return result;
  }

  const double bw = bandwidth_bytes_per_sec();

  // --- create the destination instance up front (QEMU starts the
  // destination process before streaming begins) ---
  auto new_vm = dst_hv.create_vm(guest.vcpus(), std::max<std::uint64_t>(local, 1ull << 20));
  if (!new_vm) {
    result.error = "destination hypervisor rejected the instance";
    return result;
  }
  result.new_vm = *new_vm;

  // Remember the source-side windows so the source kernel can hot-remove
  // them after the cutover.
  struct OldWindow {
    std::uint64_t base;
    std::uint64_t size;
  };
  std::vector<OldWindow> old_windows;
  for (const auto& a : fabric_.attachments_of(from)) {
    if (std::find(segments.begin(), segments.end(), a.segment) != segments.end()) {
      old_windows.push_back(OldWindow{a.compute_base, a.size});
    }
  }

  // --- preparation phase, overlapped with pre-copy: wire destination
  // circuits, hot-add the re-pointed ranges into the destination kernel
  // and stage the guest DIMMs. The real hardware stages shadow RMST/glue
  // state and flips it atomically at cutover; the simulation applies the
  // state move eagerly while accounting its latency to this overlapped
  // phase. ---
  sim::Time prep = sim::Time::zero();
  bool switch_programmed = false;
  for (hw::SegmentId segment : segments) {
    auto moved = fabric_.migrate_attachment(segment, from, to, now);
    if (!moved) {
      dst_hv.destroy_vm(*new_vm);
      result.error = "segment re-point failed: " + memsys::to_string(fabric_.last_error());
      return result;
    }
    if (moved->new_circuit && moved->attachment.medium == memsys::LinkMedium::kOptical &&
        !switch_programmed) {
      // Circuits are programmed in parallel by the switch controller; one
      // reconfiguration latency covers the batch.
      prep += sdm_.timing().agent_rpc + sim::Time::ms(25);
      switch_programmed = true;
    }
    const memsys::Attachment& a = moved->attachment;
    const sim::Time hp = dst_agent.attach_physical(a);
    const sim::Time hv_add = dst_agent.expand_guest(*new_vm, a, now + prep + hp);
    prep += hp + hv_add;
    result.repointed_bytes += a.size;
  }
  result.breakdown.charge(sim::component("re-point preparation (overlapped)"), prep);

  // --- pre-copy rounds over the local portion (guest keeps running) ---
  double remaining = static_cast<double>(local);
  double copied = 0.0;
  std::size_t iterations = 0;
  sim::Time precopy = sim::Time::zero();
  while (iterations < config_.max_precopy_iterations &&
         remaining > static_cast<double>(config_.downtime_threshold_bytes)) {
    const double round_s = remaining / bw;
    copied += remaining;
    remaining = config_.dirty_rate_bytes_per_sec * round_s;
    precopy += sim::Time::sec(round_s);
    ++iterations;
  }
  result.precopy_iterations = iterations;
  result.breakdown.charge(sim::component("pre-copy (local memory)"), precopy);

  // Elapsed so far: preparation and pre-copy proceed concurrently.
  sim::Time t = now + std::max(prep, precopy);

  // --- cutover: guest pauses, residual dirty pages drain, the glue-logic
  // state flips to the staged entries, guest resumes at the destination ---
  const sim::Time downtime_start = t;
  t += config_.pause_resume / 2;
  const sim::Time residual = sim::Time::sec(remaining / bw);
  result.breakdown.charge(sim::component("stop-and-copy (residual)"), residual);
  t += residual;
  copied += remaining;
  result.breakdown.charge(sim::component("glue-logic switchover"), sdm_.timing().glue_configure);
  t += sdm_.timing().glue_configure;
  t += config_.pause_resume / 2;
  result.breakdown.charge(sim::component("pause/resume"), config_.pause_resume);
  result.downtime = t - downtime_start;

  src_hv.destroy_vm(vm);
  // Source kernel offlines the now-unmapped remote windows (off the
  // critical path; not charged to downtime).
  auto& src_agent = sdm_.agent_for(from);
  for (const auto& w : old_windows) {
    src_agent.os().detach_remote_memory(w.base, w.size);
  }

  result.ok = true;
  result.copied_bytes = static_cast<std::uint64_t>(copied);
  result.total_time = t - now;
  ++completed_;
  return result;
}

}  // namespace dredbox::orch
