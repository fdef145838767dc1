#include "hyp/hypervisor.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/span.hpp"

namespace dredbox::hyp {

Hypervisor::Hypervisor(hw::ComputeBrick& brick, os::BareMetalOs& os, sim::Telemetry& telemetry,
                       const HypervisorTiming& timing)
    : brick_{brick},
      os_{os},
      timing_{timing},
      telemetry_{telemetry},
      created_metric_{telemetry.metrics().counter("hyp.vms.created")},
      destroyed_metric_{telemetry.metrics().counter("hyp.vms.destroyed")},
      dimms_added_metric_{telemetry.metrics().counter("hyp.dimms.hotplugged")},
      dimms_removed_metric_{telemetry.metrics().counter("hyp.dimms.removed")},
      balloon_reclaims_metric_{telemetry.metrics().counter("hyp.balloon.reclaims")},
      balloon_returns_metric_{telemetry.metrics().counter("hyp.balloon.returns")},
      running_metric_{telemetry.metrics().gauge("hyp.vms.running")},
      committed_metric_{telemetry.metrics().gauge("hyp.memory.committed_bytes")},
      degraded_metric_{telemetry.metrics().gauge("hyp.vms.degraded")} {
  if (os.brick() != brick.id()) {
    throw std::invalid_argument("Hypervisor: OS instance belongs to a different brick");
  }
}

hw::BrickId Hypervisor::brick() const { return brick_.id(); }

std::size_t Hypervisor::rebind_dimm_backing(hw::SegmentId from, hw::SegmentId to) {
  std::size_t rebound = 0;
  for (auto& [id, vm] : vms_) {
    rebound += vm->rebind_dimm(from, to);
    auto lost = lost_backings_.find(id);
    if (lost != lost_backings_.end()) {
      lost->second.erase(std::remove(lost->second.begin(), lost->second.end(), from),
                         lost->second.end());
      refresh_degraded(*vm);
    }
  }
  return rebound;
}

void Hypervisor::note_backing_lost(hw::SegmentId segment) {
  for (auto& [id, vm] : vms_) {
    if (!vm->has_dimm_backed_by(segment)) continue;
    auto& lost = lost_backings_[id];
    if (std::find(lost.begin(), lost.end(), segment) == lost.end()) lost.push_back(segment);
    if (!vm->degraded()) {
      vm->set_degraded(true);
      degraded_metric_.add(1.0);
    }
  }
}

void Hypervisor::note_backing_restored(hw::SegmentId segment) {
  for (auto& [id, vm] : vms_) {
    auto lost = lost_backings_.find(id);
    if (lost == lost_backings_.end()) continue;
    lost->second.erase(std::remove(lost->second.begin(), lost->second.end(), segment),
                       lost->second.end());
    refresh_degraded(*vm);
  }
}

void Hypervisor::refresh_degraded(VirtualMachine& vm) {
  auto lost = lost_backings_.find(vm.id());
  const bool still_degraded = lost != lost_backings_.end() && !lost->second.empty();
  if (vm.degraded() && !still_degraded) {
    vm.set_degraded(false);
    degraded_metric_.add(-1.0);
  }
}

std::size_t Hypervisor::degraded_vms() const {
  std::size_t n = 0;
  for (const auto& [id, vm] : vms_) {
    if (vm->degraded()) ++n;
  }
  return n;
}

std::uint64_t Hypervisor::ballooned_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [id, vm] : vms_) total += vm->balloon_bytes();
  return total;
}

std::uint64_t Hypervisor::available_bytes() const {
  const std::uint64_t host = os_.total_ram_bytes() + ballooned_bytes();
  return host > committed_bytes_ ? host - committed_bytes_ : 0;
}

sim::Time Hypervisor::balloon_reclaim(hw::VmId vm_id, std::uint64_t size) {
  VirtualMachine& guest = vm(vm_id);
  guest.balloon_inflate(size);  // throws if the guest cannot give it back
  balloon_reclaims_metric_.add();
  const double gib = static_cast<double>(size) / static_cast<double>(1ull << 30);
  return sim::scale(timing_.balloon_per_gib, gib);
}

sim::Time Hypervisor::balloon_return(hw::VmId vm_id, std::uint64_t size) {
  VirtualMachine& guest = vm(vm_id);
  if (size > guest.balloon_bytes()) {
    throw std::logic_error("Hypervisor::balloon_return: balloon holds less than requested");
  }
  if (size > available_bytes()) {
    throw std::logic_error(
        "Hypervisor::balloon_return: ballooned pages were re-committed elsewhere; "
        "attach remote memory first");
  }
  guest.balloon_deflate(size);
  balloon_returns_metric_.add();
  const double gib = static_cast<double>(size) / static_cast<double>(1ull << 30);
  return sim::scale(timing_.balloon_per_gib, gib);
}

std::optional<hw::VmId> Hypervisor::create_vm(std::size_t vcpus, std::uint64_t boot_memory) {
  if (vcpus > brick_.cores_free()) return std::nullopt;
  if (boot_memory > available_bytes()) return std::nullopt;
  brick_.reserve_cores(vcpus);
  committed_bytes_ += boot_memory;
  const hw::VmId id{next_vm_++};
  auto vm = std::make_unique<VirtualMachine>(id, vcpus, boot_memory);
  vm->set_running();
  vms_.emplace(id, std::move(vm));
  created_metric_.add();
  running_metric_.add(1.0);
  committed_metric_.add(static_cast<double>(boot_memory));
  return id;
}

bool Hypervisor::destroy_vm(hw::VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end()) return false;
  VirtualMachine& vm = *it->second;
  brick_.release_cores(vm.vcpus());
  committed_bytes_ -= vm.installed_bytes();
  destroyed_metric_.add();
  running_metric_.add(-1.0);
  committed_metric_.add(-static_cast<double>(vm.installed_bytes()));
  vm.terminate();
  vms_.erase(it);
  return true;
}

VirtualMachine& Hypervisor::vm(hw::VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end()) {
    throw std::out_of_range("Hypervisor::vm: unknown VM " + id.to_string());
  }
  return *it->second;
}

const VirtualMachine& Hypervisor::vm(hw::VmId id) const {
  return const_cast<Hypervisor*>(this)->vm(id);
}

std::vector<hw::VmId> Hypervisor::vms() const {
  std::vector<hw::VmId> out;
  out.reserve(vms_.size());
  for (const auto& [id, vm] : vms_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

sim::Time Hypervisor::expand_vm_memory(hw::VmId vm_id, std::uint64_t size,
                                       hw::SegmentId segment, sim::Time now,
                                       const sim::TraceContext& ctx) {
  if (size > available_bytes()) {
    throw std::logic_error(
        "Hypervisor::expand_vm_memory: host has insufficient memory; attach remote "
        "memory first (available " +
        std::to_string(available_bytes()) + ", requested " + std::to_string(size) + ")");
  }
  VirtualMachine& guest = vm(vm_id);
  GuestDimm dimm;
  dimm.size = size;
  dimm.hotplugged = true;
  dimm.backing_segment = segment;
  dimm.plugged_at = now;
  guest.add_dimm(dimm);
  committed_bytes_ += size;

  const double gib = static_cast<double>(size) / static_cast<double>(1ull << 30);
  const sim::Time latency =
      timing_.dimm_insert_fixed + sim::scale(timing_.guest_online_per_gib, gib);
  dimms_added_metric_.add();
  committed_metric_.add(static_cast<double>(size));
  if (telemetry_.tracing()) {
    sim::Span span{telemetry_.tracer(), sim::TraceCategory::kHypervisor, "DIMM add + guest online",
                   now};
    span.context(ctx.valid() ? telemetry_.tracer().child_of(ctx)
                             : telemetry_.tracer().begin_trace());
    span.arg("vm", vm_id.to_string())
        .arg("bytes", std::to_string(size))
        .arg("brick", brick_.id().to_string());
    span.end(now + latency);
  }
  return latency;
}

sim::Time Hypervisor::shrink_vm_memory(hw::VmId vm_id, hw::SegmentId segment) {
  VirtualMachine& guest = vm(vm_id);
  const std::uint64_t removed = guest.remove_dimm(segment);
  if (removed == 0) return sim::Time::zero();
  committed_bytes_ -= removed;
  dimms_removed_metric_.add();
  committed_metric_.add(-static_cast<double>(removed));
  const double gib = static_cast<double>(removed) / static_cast<double>(1ull << 30);
  return timing_.dimm_insert_fixed + sim::scale(timing_.balloon_per_gib, gib);
}

}  // namespace dredbox::hyp
