#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <map>
#include <vector>

#include "hw/compute_brick.hpp"
#include "hyp/vm.hpp"
#include "os/baremetal_os.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace dredbox::hyp {

/// Timing of hypervisor-side memory operations (Section IV-B: the QEMU
/// memory hotplug implementation adds new RAM DIMMs at runtime and the
/// guest kernel onlines them through its own hotplug support).
struct HypervisorTiming {
  sim::Time dimm_insert_fixed = sim::Time::ms(15);    // device model + ACPI event
  sim::Time guest_online_per_gib = sim::Time::ms(90); // guest kernel hot-add
  sim::Time balloon_per_gib = sim::Time::ms(35);
};

/// The Type-1 hypervisor instance on one dCOMPUBRICK. Executes commodity
/// VMs, reserves APU cores and guest memory against the brick's local DDR
/// plus whatever remote memory the baremetal OS has hot-added, and
/// supports runtime guest memory expansion (DIMM hotplug) and ballooning.
class Hypervisor {
 public:
  /// Binds the VM lifecycle counters, the aggregate running-VM and
  /// committed-byte gauges (deltas, so every brick's hypervisor folds into
  /// one rack view), balloon/DIMM event counters and a kHypervisor span per
  /// guest expansion.
  Hypervisor(hw::ComputeBrick& brick, os::BareMetalOs& os, sim::Telemetry& telemetry,
             const HypervisorTiming& timing = {});

  hw::BrickId brick() const;

  /// Creates a VM with `vcpus` cores and `boot_memory` bytes. Fails
  /// (nullopt) when cores or host memory are short.
  std::optional<hw::VmId> create_vm(std::size_t vcpus, std::uint64_t boot_memory);

  /// Destroys a VM, releasing cores and guest memory accounting.
  bool destroy_vm(hw::VmId vm);

  VirtualMachine& vm(hw::VmId id);
  const VirtualMachine& vm(hw::VmId id) const;
  bool has_vm(hw::VmId id) const { return vms_.count(id) != 0; }
  std::vector<hw::VmId> vms() const;
  std::size_t vm_count() const { return vms_.size(); }

  /// Memory committed to guests (boot + hotplugged DIMMs).
  std::uint64_t committed_bytes() const { return committed_bytes_; }

  /// Pages currently reclaimed from guests through their balloons; these
  /// are back in the host's hands and count as available again (the
  /// "revisited ballooning subsystem for elastic distribution of
  /// disaggregated memory" of the project objectives).
  std::uint64_t ballooned_bytes() const;

  /// Host memory still available for new guests or expansions
  /// (host RAM - committed + ballooned-out pages).
  std::uint64_t available_bytes() const;

  /// Inflates `vm`'s balloon by `size`, returning the pages to the host.
  /// Returns the guest-side latency. Throws when the guest cannot give
  /// that much back.
  sim::Time balloon_reclaim(hw::VmId vm, std::uint64_t size);

  /// Deflates `vm`'s balloon by `size`, handing pages back to the guest.
  /// Requires the host to have the memory available.
  sim::Time balloon_return(hw::VmId vm, std::uint64_t size);

  /// Hypervisor half of the scale-up path: after the baremetal OS onlines
  /// remote memory, plug a new DIMM of `size` bytes (backed by `segment`)
  /// into the guest and online it there. Returns the hypervisor+guest
  /// latency. Throws when the host lacks the memory. `ctx`, when valid,
  /// nests the recorded DIMM-add span under the caller's trace (the SDM-C
  /// passes its scale-up root).
  sim::Time expand_vm_memory(hw::VmId vm, std::uint64_t size, hw::SegmentId segment,
                             sim::Time now, const sim::TraceContext& ctx = {});

  /// Scale-down: balloon out `size` bytes then remove the DIMM backed by
  /// `segment`. Returns the latency; 0-size result means unknown segment.
  sim::Time shrink_vm_memory(hw::VmId vm, hw::SegmentId segment);

  // --- fault recovery (graceful degradation) ---
  /// Segment evacuation landed: every guest DIMM backed by `from` now
  /// points at `to` (the bytes moved to another dMEMBRICK; the guest
  /// topology is unchanged). Clears the degraded flag of VMs whose last
  /// lost DIMM this was. Returns the number of DIMMs re-pointed.
  std::size_t rebind_dimm_backing(hw::SegmentId from, hw::SegmentId to);

  /// A dMEMBRICK crash took `segment`'s backing away before it could be
  /// evacuated: the owning VM (if any) enters degraded mode but keeps
  /// running on its remaining memory.
  void note_backing_lost(hw::SegmentId segment);

  /// The brick that backs `segment` came back: VMs whose only lost DIMMs
  /// rode it leave degraded mode.
  void note_backing_restored(hw::SegmentId segment);

  /// VMs currently running in degraded mode on this brick.
  std::size_t degraded_vms() const;

  const HypervisorTiming& timing() const { return timing_; }

 private:
  hw::ComputeBrick& brick_;
  os::BareMetalOs& os_;
  HypervisorTiming timing_;
  // Ordered by id so guest enumeration (balloon sweeps, vm_ids()) is
  // deterministic.
  std::map<hw::VmId, std::unique_ptr<VirtualMachine>> vms_;
  std::uint64_t committed_bytes_ = 0;
  std::uint32_t next_vm_ = 1;

  sim::Telemetry& telemetry_;
  sim::metrics::Counter& created_metric_;
  sim::metrics::Counter& destroyed_metric_;
  sim::metrics::Counter& dimms_added_metric_;
  sim::metrics::Counter& dimms_removed_metric_;
  sim::metrics::Counter& balloon_reclaims_metric_;
  sim::metrics::Counter& balloon_returns_metric_;
  sim::metrics::Gauge& running_metric_;
  sim::metrics::Gauge& committed_metric_;
  sim::metrics::Gauge& degraded_metric_;

  /// Tracks segments whose backing is currently lost, per VM, so restore /
  /// rebind can tell when a VM's last lost DIMM is healed.
  std::map<hw::VmId, std::vector<hw::SegmentId>> lost_backings_;

  void refresh_degraded(VirtualMachine& vm);
};

}  // namespace dredbox::hyp
