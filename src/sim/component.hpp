#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string_view>

#include "sim/contract.hpp"

namespace dredbox::sim {

/// Identifier of a latency-breakdown component: an index into
/// kComponentLabels. Ops carry 2-byte ids instead of strings, and every id
/// is resolved from its label at compile time by component() below, so
/// there is no runtime interning and no process-wide mutable table.
using ComponentId = std::uint16_t;

/// The whole breakdown vocabulary: the Fig. 8 pipeline stages plus the
/// orchestration stages, in id order. Append new stages at the end — an
/// entry's position is its id.
inline constexpr std::string_view kComponentLabels[] = {
    // net/packet_network.cpp — the Fig. 8 pipeline stages.
    "TGL / NI injection",
    "on-brick switch (dCOMPUBRICK)",
    "on-brick switch (dMEMBRICK)",
    "serialization",
    "congestion penalty",
    "MAC/PHY (dCOMPUBRICK)",
    "MAC/PHY (dMEMBRICK)",
    "FEC encode/decode",
    "optical propagation",
    "electrical propagation",
    "loss retransmissions",
    "glue logic (dMEMBRICK)",
    "memory access",
    // memsys/remote_memory.cpp — the transaction execute path.
    "TGL lookup (RMST)",
    "circuit wait",
    "GTH serdes (TX)",
    "GTH serdes (RX)",
    "GTH serdes (return)",
    "memory controller wait",
    "retry backoff",
    "circuit re-provision",
    // orch/sdm_controller.cpp — scale-up / scale-down control plane.
    "SDM-C queueing",
    "SDM-C inspect+reserve",
    "switch ctl queueing",
    "switch programming",
    "brick wake-up",
    "Scale-up API relay",
    "agent RPC + glue config",
    "hotplug queueing (per brick)",
    "baremetal hotplug",
    "hypervisor handoff",
    "QEMU DIMM add + guest online",
    "guest shrink + hot-remove",
    "agent RPC",
    // orch/accel_manager.cpp — near-data acceleration phases.
    "bitstream transfer",
    "PCAP reconfiguration",
    "descriptor transfer",
    "near-data processing",
    "result transfer",
    "stream from dMEMBRICK",
    "data transfer to dCOMPUBRICK",
    "CPU processing",
    // orch/migration.cpp — VM/page migration phases.
    "pre-copy (local memory)",
    "stop-and-copy (residual)",
    "pause/resume",
    "re-point preparation (overlapped)",
    "glue-logic switchover",
    "balloon reclaim (donor)",
};

inline constexpr std::size_t kComponentCount = std::size(kComponentLabels);

namespace component_detail {

consteval bool labels_distinct() {
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    for (std::size_t j = i + 1; j < kComponentCount; ++j) {
      if (kComponentLabels[i] == kComponentLabels[j]) return false;
    }
  }
  return true;
}

}  // namespace component_detail

static_assert(component_detail::labels_distinct(),
              "kComponentLabels: every breakdown label must appear once");

/// Id of `label`, resolved at compile time. A label that is not in
/// kComponentLabels reaches the throw, which is not a constant expression,
/// so a misspelt label fails to compile at its use site.
consteval ComponentId component(std::string_view label) {
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    if (kComponentLabels[i] == label) return static_cast<ComponentId>(i);
  }
  throw std::invalid_argument("not a breakdown component label (see kComponentLabels)");
}

/// Label of `id`. The view points at static storage.
constexpr std::string_view component_label(ComponentId id) {
  DREDBOX_INVARIANT(id < kComponentCount, "component_label: id is outside kComponentLabels");
  return kComponentLabels[id];
}

}  // namespace dredbox::sim
