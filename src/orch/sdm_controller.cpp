#include "orch/sdm_controller.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "sim/span.hpp"

namespace dredbox::orch {

SdmController::SdmController(hw::Rack& rack, memsys::RemoteMemoryFabric& fabric,
                             optics::CircuitManager& circuits, sim::Telemetry& telemetry,
                             const SdmTiming& timing)
    : rack_{rack},
      fabric_{fabric},
      circuits_{circuits},
      timing_{timing},
      telemetry_{telemetry},
      allocations_metric_{telemetry.metrics().counter("orch.sdm.allocations")},
      allocation_failures_metric_{telemetry.metrics().counter("orch.sdm.allocation_failures")},
      scale_ups_metric_{telemetry.metrics().counter("orch.sdm.scale_ups")},
      scale_up_failures_metric_{telemetry.metrics().counter("orch.sdm.scale_up_failures")},
      scale_downs_metric_{telemetry.metrics().counter("orch.sdm.scale_downs")},
      rebalances_metric_{telemetry.metrics().counter("orch.sdm.rebalances")},
      // End-to-end scale-up times are dominated by switch programming
      // (25 ms) and kernel hotplug, i.e. tens to hundreds of ms (Fig. 10).
      scale_up_latency_metric_{
          telemetry.metrics().histogram("orch.scale_up.latency_ms", 0.0, 1000.0, 50)},
      stalls_metric_{telemetry.metrics().counter("orch.sdm.stalls")},
      evacuated_metric_{telemetry.metrics().counter("orch.sdm.evacuated_segments")},
      evacuation_failures_metric_{telemetry.metrics().counter("orch.sdm.evacuation_failures")},
      degraded_membricks_metric_{telemetry.metrics().gauge("orch.sdm.degraded_membricks")} {}

void SdmController::register_agent(SdmAgent& agent) {
  agents_[agent.brick()] = &agent;
}

SdmAgent& SdmController::agent_for(hw::BrickId compute) {
  auto it = agents_.find(compute);
  if (it == agents_.end()) {
    throw std::out_of_range("SdmController: no agent registered for brick " +
                            compute.to_string());
  }
  return *it->second;
}

sim::Time SdmController::controller_transaction(sim::Time arrival, sim::Breakdown& breakdown) {
  const sim::Time start = std::max(arrival, controller_busy_until_);
  breakdown.charge(sim::component("SDM-C queueing"), start - arrival);
  breakdown.charge(sim::component("SDM-C inspect+reserve"), timing_.inspect_and_select);
  controller_busy_until_ = start + timing_.inspect_and_select;
  return controller_busy_until_;
}

sim::Time SdmController::program_switch(sim::Time ready, bool new_circuit,
                                        sim::Breakdown& breakdown) {
  if (!new_circuit) {
    breakdown.charge(sim::component("switch programming"), sim::Time::zero());
    return ready;
  }
  const sim::Time setup = circuits_.setup_time();
  const sim::Time start = std::max(ready, switch_ctl_busy_until_);
  breakdown.charge(sim::component("switch ctl queueing"), start - ready);
  breakdown.charge(sim::component("switch programming"), setup);
  switch_ctl_busy_until_ = start + setup;
  return switch_ctl_busy_until_;
}

sim::Time SdmController::wake_brick(hw::BrickId brick, sim::Time ready,
                                    sim::Breakdown& breakdown) {
  if (power_mgr_ != nullptr) {
    const sim::Time wake = power_mgr_->ensure_powered(brick, ready);
    if (wake > sim::Time::zero()) breakdown.charge(sim::component("brick wake-up"), wake);
    return ready + wake;
  }
  if (rack_.brick(brick).power_state() == hw::PowerState::kOff) {
    rack_.brick(brick).power_on();
  }
  return ready;
}

bool SdmController::circuit_exists(hw::BrickId compute, hw::BrickId membrick) const {
  for (const auto& a : fabric_.attachments_of(compute)) {
    if (a.membrick == membrick) return true;
  }
  return false;
}

std::optional<hw::BrickId> SdmController::select_membrick(std::uint64_t bytes,
                                                          hw::BrickId compute) const {
  // Rank: wired < active < idle < off, and within each class same-tray
  // beats cross-tray (electrical circuit, no switch ports). Ties break
  // best fit (smallest sufficient free extent) so slack stays
  // concentrated and more bricks can be powered off later.
  std::optional<hw::BrickId> best;
  int best_rank = std::numeric_limits<int>::max();
  std::uint64_t best_extent = std::numeric_limits<std::uint64_t>::max();
  const hw::TrayId home_tray = rack_.brick(compute).tray();

  for (hw::BrickId id : rack_.bricks_of_kind(hw::BrickKind::kMemory)) {
    const auto& mb = rack_.memory_brick(id);
    if (mb.failed()) continue;  // crashed bricks serve nothing
    const std::uint64_t extent = mb.largest_free_extent();
    if (extent < bytes) continue;
    int base;
    if (circuit_exists(compute, id)) {
      base = 0;
    } else if (mb.power_state() == hw::PowerState::kActive) {
      base = 1;
    } else if (mb.power_state() == hw::PowerState::kIdle) {
      base = 2;
    } else {
      base = 3;
    }
    const int rank = base * 2 + (mb.tray() == home_tray ? 0 : 1);
    if (rank < best_rank || (rank == best_rank && extent < best_extent)) {
      best = id;
      best_rank = rank;
      best_extent = extent;
    }
  }
  return best;
}

std::optional<hw::BrickId> SdmController::select_compute(std::size_t vcpus) const {
  std::optional<hw::BrickId> best;
  int best_rank = std::numeric_limits<int>::max();
  std::size_t best_free = std::numeric_limits<std::size_t>::max();

  for (hw::BrickId id : rack_.bricks_of_kind(hw::BrickKind::kCompute)) {
    const auto& cb = rack_.compute_brick(id);
    if (cb.cores_free() < vcpus) continue;
    int rank;
    if (cb.power_state() == hw::PowerState::kActive) {
      rank = 0;
    } else if (cb.power_state() == hw::PowerState::kIdle) {
      rank = 1;
    } else {
      rank = 2;
    }
    if (rank < best_rank || (rank == best_rank && cb.cores_free() < best_free)) {
      best = id;
      best_rank = rank;
      best_free = cb.cores_free();
    }
  }
  return best;
}

AllocationResult SdmController::allocate_vm(const AllocationRequest& request, sim::Time now) {
  AllocationResult result = allocate_vm_impl(request, now);
  (result.ok ? allocations_metric_ : allocation_failures_metric_).add();
  if (telemetry_.tracing()) {
    sim::Span span{telemetry_.tracer(), sim::TraceCategory::kOrchestration, "allocate VM", now};
    span.context(telemetry_.tracer().begin_trace());
    span.arg("vcpus", std::to_string(request.vcpus))
        .arg("memory_mib", std::to_string(request.memory_bytes >> 20))
        .arg("ok", result.ok ? "yes" : "no");
    if (result.ok) {
      span.arg("compute", result.compute.to_string())
          .arg("remote_mib", std::to_string(result.remote_bytes >> 20));
    }
    span.end(result.completed_at);
  }
  return result;
}

AllocationResult SdmController::allocate_vm_impl(const AllocationRequest& request,
                                                 sim::Time now) {
  AllocationResult result;
  sim::Breakdown breakdown;
  sim::Time t = controller_transaction(now + timing_.api_relay, breakdown);

  auto compute = select_compute(request.vcpus);
  if (!compute) {
    result.error = "no dCOMPUBRICK with " + std::to_string(request.vcpus) + " free cores";
    result.completed_at = t;
    return result;
  }
  t = wake_brick(*compute, t, breakdown);
  SdmAgent& agent = agent_for(*compute);
  auto& hv = agent.hypervisor();

  // Top up host memory with disaggregated segments when local DDR (plus
  // any previously attached remote memory) cannot back the guest.
  std::uint64_t deficit =
      request.memory_bytes > hv.available_bytes() ? request.memory_bytes - hv.available_bytes()
                                                  : 0;
  while (deficit > 0) {
    constexpr std::uint64_t kGib = 1ull << 30;
    const std::uint64_t chunk = ((deficit + kGib - 1) / kGib) * kGib;
    auto membrick = select_membrick(chunk, *compute);
    if (!membrick) {
      result.error = "no dMEMBRICK can back " + std::to_string(chunk >> 30) + " GiB";
      result.completed_at = t;
      return result;
    }
    t = wake_brick(*membrick, t, breakdown);
    // Intra-tray pairs ride the tray's fixed electrical wiring (nothing to
    // program on the optical switch) unless optical is preferred.
    const bool new_circuit =
        !circuit_exists(*compute, *membrick) &&
        (prefer_optical_ ||
         rack_.brick(*compute).tray() != rack_.brick(*membrick).tray());
    t = program_switch(t, new_circuit, breakdown);

    memsys::AttachRequest areq;
    areq.compute = *compute;
    areq.membrick = *membrick;
    areq.bytes = chunk;
    areq.prefer_electrical_intra_tray = !prefer_optical_;
    auto attachment = fabric_.attach(areq, t);
    if (!attachment) {
      result.error = "attach failed: " + memsys::to_string(fabric_.last_error());
      result.completed_at = t;
      return result;
    }
    t += timing_.agent_rpc + timing_.glue_configure;
    t += agent.attach_physical(*attachment);
    result.remote_bytes += chunk;
    deficit = request.memory_bytes > hv.available_bytes()
                  ? request.memory_bytes - hv.available_bytes()
                  : 0;
  }

  auto vm = hv.create_vm(request.vcpus, request.memory_bytes);
  if (!vm) {
    result.error = "hypervisor rejected the VM after reservation";
    result.completed_at = t;
    return result;
  }
  result.ok = true;
  result.vm = *vm;
  result.compute = *compute;
  result.local_bytes = request.memory_bytes - result.remote_bytes;
  result.completed_at = t;
  return result;
}

ScaleUpResult SdmController::scale_up(const ScaleUpRequest& request) {
  // Trace root for the whole control-plane flow: the kernel hot-add and
  // the hypervisor's DIMM-add spans nest under it.
  sim::TraceContext ctx;
  if (telemetry_.tracing()) ctx = telemetry_.tracer().begin_trace();
  ScaleUpResult result = scale_up_impl(request, ctx);
  if (result.ok) {
    scale_ups_metric_.add();
    scale_up_latency_metric_.observe((result.completed_at - result.posted_at).as_ms());
  } else {
    scale_up_failures_metric_.add();
  }
  if (telemetry_.tracing()) {
    sim::Span span{telemetry_.tracer(), sim::TraceCategory::kOrchestration, "scale up",
                   result.posted_at};
    span.context(ctx);
    span.arg("vm", request.vm.to_string())
        .arg("bytes", std::to_string(request.bytes))
        .arg("ok", result.ok ? "yes" : "no");
    if (result.ok) span.arg("membrick", result.membrick.to_string());
    span.end(result.completed_at);
  }
  return result;
}

ScaleUpResult SdmController::scale_up_impl(const ScaleUpRequest& request,
                                           const sim::TraceContext& ctx) {
  ScaleUpResult result;
  result.vm = request.vm;
  result.posted_at = request.posted_at;

  // Application -> Scale-up controller -> SDM-C relay.
  result.breakdown.charge(sim::component("Scale-up API relay"), timing_.api_relay);
  sim::Time t = controller_transaction(request.posted_at + timing_.api_relay, result.breakdown);

  auto membrick = select_membrick(request.bytes, request.compute);
  if (!membrick) {
    result.error = "no dMEMBRICK with " + std::to_string(request.bytes >> 30) +
                   " GiB contiguous free";
    result.completed_at = t;
    return result;
  }
  t = wake_brick(*membrick, t, result.breakdown);

  // Intra-tray pairs ride the tray's fixed electrical wiring (nothing to
  // program on the optical switch) unless optical is preferred.
  const bool new_circuit =
      !circuit_exists(request.compute, *membrick) &&
      (prefer_optical_ ||
       rack_.brick(request.compute).tray() != rack_.brick(*membrick).tray());
  t = program_switch(t, new_circuit, result.breakdown);

  memsys::AttachRequest areq;
  areq.compute = request.compute;
  areq.membrick = *membrick;
  areq.bytes = request.bytes;
  areq.prefer_electrical_intra_tray = !prefer_optical_;
  areq.allow_packet_fallback = request.allow_packet_fallback;
  auto attachment = fabric_.attach(areq, t);
  if (!attachment) {
    result.error = "attach failed: " + memsys::to_string(fabric_.last_error());
    result.completed_at = t;
    return result;
  }

  // Configuration push to the destination brick's glue logic via the agent.
  result.breakdown.charge(sim::component("agent RPC + glue config"),
                          timing_.agent_rpc + timing_.glue_configure);
  t += timing_.agent_rpc + timing_.glue_configure;

  // Baremetal hotplug: serialized per brick (kernel hotplug lock),
  // parallel across bricks.
  SdmAgent& agent = agent_for(request.compute);
  const sim::Time hp_start = std::max(t, agent.busy_until());
  result.breakdown.charge(sim::component("hotplug queueing (per brick)"), hp_start - t);
  const sim::Time hp_latency = agent.attach_physical(*attachment);
  result.breakdown.charge(sim::component("baremetal hotplug"), hp_latency);
  agent.set_busy_until(hp_start + hp_latency);
  if (telemetry_.tracing()) {
    telemetry_.tracer().record_span(hp_start, hp_start + hp_latency,
                                    sim::TraceCategory::kHotplug, "kernel hot-add",
                                    {{"brick", request.compute.to_string()},
                                     {"bytes", std::to_string(request.bytes)}},
                                    telemetry_.tracer().child_of(ctx));
  }
  t = hp_start + hp_latency;

  // Control handed back to the scale-up controller, which configures the
  // hypervisor to expand the guest's physical memory.
  result.breakdown.charge(sim::component("hypervisor handoff"), timing_.hypervisor_handoff);
  t += timing_.hypervisor_handoff;
  const sim::Time hv_latency = agent.expand_guest(request.vm, *attachment, t, ctx);
  result.breakdown.charge(sim::component("QEMU DIMM add + guest online"), hv_latency);
  t += hv_latency;

  result.ok = true;
  result.segment = attachment->segment;
  result.membrick = *membrick;
  result.completed_at = t;
  ++completed_scale_ups_;
  return result;
}

ScaleUpResult SdmController::scale_down(hw::VmId vm, hw::BrickId compute,
                                        hw::SegmentId segment, sim::Time now) {
  ScaleUpResult result;
  result.vm = vm;
  result.posted_at = now;

  result.breakdown.charge(sim::component("Scale-up API relay"), timing_.api_relay);
  sim::Time t = controller_transaction(now + timing_.api_relay, result.breakdown);

  const auto attachments = fabric_.attachments_of(compute);
  auto it = std::find_if(attachments.begin(), attachments.end(),
                         [&](const memsys::Attachment& a) { return a.segment == segment; });
  if (it == attachments.end()) {
    result.error = "segment " + segment.to_string() + " is not attached to brick " +
                   compute.to_string();
    result.completed_at = t;
    return result;
  }

  SdmAgent& agent = agent_for(compute);
  const sim::Time hp_start = std::max(t, agent.busy_until());
  result.breakdown.charge(sim::component("hotplug queueing (per brick)"), hp_start - t);
  const sim::Time shrink_latency = agent.shrink_guest(vm, *it);
  result.breakdown.charge(sim::component("guest shrink + hot-remove"), shrink_latency);
  agent.set_busy_until(hp_start + shrink_latency);
  t = hp_start + shrink_latency;

  result.membrick = it->membrick;
  result.segment = segment;
  if (!fabric_.detach(compute, segment)) {
    result.error = "fabric detach failed";
    result.completed_at = t;
    return result;
  }
  result.ok = true;
  result.completed_at = t;
  scale_downs_metric_.add();
  return result;
}

ScaleUpResult SdmController::rebalance(hw::VmId donor, hw::VmId recipient,
                                       hw::BrickId compute, std::uint64_t bytes,
                                       sim::Time now) {
  ScaleUpResult result;
  result.vm = recipient;
  result.posted_at = now;

  result.breakdown.charge(sim::component("Scale-up API relay"), timing_.api_relay);
  sim::Time t = controller_transaction(now + timing_.api_relay, result.breakdown);

  SdmAgent& agent = agent_for(compute);
  auto& hv = agent.hypervisor();
  if (!hv.has_vm(donor) || !hv.has_vm(recipient)) {
    result.error = "donor or recipient VM is not hosted on brick " + compute.to_string();
    result.completed_at = t;
    return result;
  }
  if (hv.vm(donor).usable_bytes() < bytes) {
    result.error = "donor VM cannot give back " + std::to_string(bytes >> 20) + " MiB";
    result.completed_at = t;
    return result;
  }

  result.breakdown.charge(sim::component("agent RPC"), timing_.agent_rpc);
  t += timing_.agent_rpc;

  const sim::Time reclaim = hv.balloon_reclaim(donor, bytes);
  result.breakdown.charge(sim::component("balloon reclaim (donor)"), reclaim);
  t += reclaim;

  // Recipient gets a DIMM backed by the ballooned-out host pages (no
  // fabric segment involved).
  const sim::Time expand = hv.expand_vm_memory(recipient, bytes, hw::SegmentId{}, t);
  result.breakdown.charge(sim::component("QEMU DIMM add + guest online"), expand);
  t += expand;

  result.ok = true;
  result.membrick = hw::BrickId{};  // no dMEMBRICK involved
  result.completed_at = t;
  rebalances_metric_.add();
  if (telemetry_.tracing()) {
    telemetry_.tracer().record_span(now, t, sim::TraceCategory::kOrchestration,
                                    "balloon rebalance",
                                    {{"donor", donor.to_string()},
                                     {"recipient", recipient.to_string()},
                                     {"bytes", std::to_string(bytes)}},
                                    telemetry_.tracer().begin_trace());
  }
  return result;
}

std::vector<SdmController::BrickStatus> SdmController::inventory() const {
  std::vector<BrickStatus> out;
  for (hw::BrickId id : rack_.all_bricks()) {
    const hw::Brick& b = rack_.brick(id);
    BrickStatus s;
    s.brick = id;
    s.kind = b.kind();
    s.tray = b.tray();
    s.power = b.power_state();
    s.ports_total = b.port_count();
    s.ports_used = b.port_count() - b.free_port_count(true) - b.free_port_count(false);
    if (b.kind() == hw::BrickKind::kCompute) {
      const auto& cb = rack_.compute_brick(id);
      s.cores_total = cb.apu_cores();
      s.cores_used = cb.cores_in_use();
      auto it = agents_.find(id);
      if (it != agents_.end()) s.vms = it->second->hypervisor().vm_count();
    } else if (b.kind() == hw::BrickKind::kMemory) {
      const auto& mb = rack_.memory_brick(id);
      s.memory_total = mb.capacity_bytes();
      s.memory_used = mb.allocated_bytes();
      s.segments = mb.segments().size();
    }
    out.push_back(s);
  }
  return out;
}

void SdmController::report_guest_usage(hw::VmId vm, hw::BrickId compute,
                                       std::uint64_t used_bytes, sim::Time now) {
  auto& hv = agent_for(compute).hypervisor();
  if (!hv.has_vm(vm)) {
    demand_.forget(vm);
    return;
  }
  MemoryDemandRegistry::Report report;
  report.compute = compute;
  report.used_bytes = used_bytes;
  report.usable_bytes = hv.vm(vm).usable_bytes();
  report.at = now;
  demand_.report(vm, report);
}

ScaleUpResult SdmController::scale_up_smart(const ScaleUpRequest& request) {
  const auto donor = demand_.best_donor(request.compute, request.bytes, request.vm,
                                        request.posted_at, demand_staleness_limit());
  if (donor) {
    ScaleUpResult result =
        rebalance(*donor, request.vm, request.compute, request.bytes, request.posted_at);
    if (result.ok) {
      // The donor just gave memory away: refresh its registry entry so a
      // burst of requests does not over-drain it.
      if (auto latest = demand_.latest(*donor)) {
        latest->usable_bytes =
            latest->usable_bytes > request.bytes ? latest->usable_bytes - request.bytes : 0;
        demand_.report(*donor, *latest);
      }
      return result;
    }
    // Donor path failed (raced away); fall through to the attach path.
  }
  return scale_up(request);
}

void SdmController::reset_queues() {
  controller_busy_until_ = sim::Time::zero();
  switch_ctl_busy_until_ = sim::Time::zero();
  for (auto& [id, agent] : agents_) agent->set_busy_until(sim::Time::zero());
}

void SdmController::stall(sim::Time now, sim::Time duration) {
  const sim::Time resume = now + duration;
  if (resume > controller_busy_until_) controller_busy_until_ = resume;
  stalls_metric_.add();
}

std::size_t SdmController::evacuate_membrick(hw::BrickId membrick, sim::Time now) {
  refresh_degraded_membricks();
  std::size_t evacuated = 0;
  std::size_t lost = 0;
  // Trace root for the whole fault response: each attachment's rebind (or
  // loss) is a child, so a report reader can follow a brick crash down to
  // the guests it touched.
  sim::TraceContext ctx;
  const bool tracing = telemetry_.tracing();
  if (tracing) ctx = telemetry_.tracer().begin_trace();
  // Deterministic sweep: compute bricks in id order, attachments in the
  // fabric's stable record order.
  for (hw::BrickId cb : rack_.bricks_of_kind(hw::BrickKind::kCompute)) {
    for (const auto& a : fabric_.attachments_of(cb)) {
      if (a.membrick != membrick) continue;
      const auto replacement = select_membrick(a.size, cb);
      std::optional<memsys::Attachment> moved;
      if (replacement) {
        sim::Breakdown breakdown;
        wake_brick(*replacement, now, breakdown);
        moved = fabric_.relocate_segment(cb, a.segment, *replacement, now);
      }
      if (moved) {
        ++evacuated;
        evacuated_metric_.add();
        if (has_agent(cb)) {
          agent_for(cb).hypervisor().rebind_dimm_backing(a.segment, moved->segment);
        }
        if (tracing) {
          telemetry_.tracer().record_span(now, now, sim::TraceCategory::kOrchestration,
                                          "segment rebind",
                                          {{"compute", cb.to_string()},
                                           {"from", a.segment.to_string()},
                                           {"to", moved->segment.to_string()},
                                           {"membrick", moved->membrick.to_string()}},
                                          telemetry_.tracer().child_of(ctx));
        }
      } else {
        ++lost;
        evacuation_failures_metric_.add();
        if (has_agent(cb)) agent_for(cb).hypervisor().note_backing_lost(a.segment);
        if (tracing) {
          telemetry_.tracer().record_span(now, now, sim::TraceCategory::kOrchestration,
                                          "backing lost",
                                          {{"compute", cb.to_string()},
                                           {"segment", a.segment.to_string()}},
                                          telemetry_.tracer().child_of(ctx));
        }
      }
    }
  }
  if (tracing && (evacuated > 0 || lost > 0)) {
    telemetry_.tracer().record_span(now, now, sim::TraceCategory::kOrchestration,
                                    "evacuate membrick",
                                    {{"membrick", membrick.to_string()},
                                     {"evacuated", std::to_string(evacuated)},
                                     {"lost", std::to_string(lost)}},
                                    ctx);
  }
  return evacuated;
}

void SdmController::note_brick_recovered(hw::BrickId membrick) {
  refresh_degraded_membricks();
  // Segments that never got evacuated are served again: lift degradation.
  for (hw::BrickId cb : rack_.bricks_of_kind(hw::BrickKind::kCompute)) {
    if (!has_agent(cb)) continue;
    for (const auto& a : fabric_.attachments_of(cb)) {
      if (a.membrick == membrick) {
        agent_for(cb).hypervisor().note_backing_restored(a.segment);
      }
    }
  }
}

void SdmController::refresh_degraded_membricks() {
  std::size_t failed = 0;
  for (hw::BrickId id : rack_.bricks_of_kind(hw::BrickKind::kMemory)) {
    if (rack_.brick(id).failed()) ++failed;
  }
  degraded_membricks_metric_.set(static_cast<double>(failed));
}

}  // namespace dredbox::orch
