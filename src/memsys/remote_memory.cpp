#include "memsys/remote_memory.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/contract.hpp"
#include "sim/format.hpp"
#include "sim/span.hpp"

namespace dredbox::memsys {

namespace {

// Breakdown components charged by the per-transaction datapath.
constexpr sim::ComponentId kBdTglLookup = sim::component("TGL lookup (RMST)");
constexpr sim::ComponentId kBdCircuitWait = sim::component("circuit wait");
constexpr sim::ComponentId kBdSerialization = sim::component("serialization");
constexpr sim::ComponentId kBdSerdesTx = sim::component("GTH serdes (TX)");
constexpr sim::ComponentId kBdSerdesRx = sim::component("GTH serdes (RX)");
constexpr sim::ComponentId kBdSerdesReturn = sim::component("GTH serdes (return)");
constexpr sim::ComponentId kBdOpticalProp = sim::component("optical propagation");
constexpr sim::ComponentId kBdElectricalProp = sim::component("electrical propagation");
constexpr sim::ComponentId kBdGlueLogic = sim::component("glue logic (dMEMBRICK)");
constexpr sim::ComponentId kBdMcWait = sim::component("memory controller wait");
constexpr sim::ComponentId kBdMemAccess = sim::component("memory access");
constexpr sim::ComponentId kBdRetryBackoff = sim::component("retry backoff");
constexpr sim::ComponentId kBdReprovision = sim::component("circuit re-provision");

}  // namespace

std::string to_string(TransactionKind kind) {
  return kind == TransactionKind::kRead ? "read" : "write";
}

std::string to_string(LinkMedium medium) {
  switch (medium) {
    case LinkMedium::kElectrical:
      return "electrical (intra-tray)";
    case LinkMedium::kOptical:
      return "optical (cross-tray)";
    case LinkMedium::kPacket:
      return "packet (fallback)";
  }
  return "<unknown link medium>";
}

std::string to_string(TransactionStatus status) {
  switch (status) {
    case TransactionStatus::kOk:
      return "ok";
    case TransactionStatus::kNoMapping:
      return "no-mapping";
    case TransactionStatus::kCircuitDown:
      return "circuit-down";
    case TransactionStatus::kCorruptMapping:
      return "corrupt-mapping";
    case TransactionStatus::kBrickFailed:
      return "brick-failed";
  }
  return "<unknown status>";
}

std::string to_string(AttachError err) {
  switch (err) {
    case AttachError::kNoMemory:
      return "no contiguous memory on dMEMBRICK";
    case AttachError::kNoComputePort:
      return "no free circuit port on dCOMPUBRICK";
    case AttachError::kNoMemoryPort:
      return "no free circuit port on dMEMBRICK";
    case AttachError::kNoSwitchPorts:
      return "optical switch out of ports";
    case AttachError::kRmstFull:
      return "RMST full";
    case AttachError::kBrickFailed:
      return "dMEMBRICK has failed";
  }
  return "<unknown attach error>";
}

RemoteMemoryFabric::RemoteMemoryFabric(hw::Rack& rack, optics::CircuitManager& circuits,
                                       sim::Telemetry& telemetry,
                                       const CircuitPathLatencies& latencies)
    : rack_{rack},
      circuits_{circuits},
      latencies_{latencies},
      telemetry_{telemetry},
      attaches_metric_{telemetry.metrics().counter("memsys.fabric.attaches")},
      attach_failures_metric_{telemetry.metrics().counter("memsys.fabric.attach_failures")},
      detaches_metric_{telemetry.metrics().counter("memsys.fabric.detaches")},
      transactions_metric_{telemetry.metrics().counter("memsys.fabric.transactions")},
      failed_tx_metric_{telemetry.metrics().counter("memsys.fabric.failed_transactions")},
      // Round trips sit in the hundreds of ns (electrical / optical) up to a
      // few us (packet fallback); RunningStats inside the histogram keeps
      // the exact mean/min/max for out-of-range samples.
      read_latency_metric_{
          telemetry.metrics().histogram("memsys.read.latency_ns", 0.0, 10000.0, 50)},
      write_latency_metric_{
          telemetry.metrics().histogram("memsys.write.latency_ns", 0.0, 10000.0, 50)},
      rmst_entries_metric_{telemetry.metrics().gauge("hw.rmst.entries")},
      rmst_mapped_metric_{telemetry.metrics().gauge("hw.rmst.mapped_bytes")},
      retries_metric_{telemetry.metrics().counter("memsys.fabric.retries")},
      retry_exhausted_metric_{telemetry.metrics().counter("memsys.fabric.retry_exhausted")},
      reprovisions_metric_{telemetry.metrics().counter("memsys.fabric.reprovisions")},
      packet_failovers_metric_{telemetry.metrics().counter("memsys.fabric.packet_failovers")},
      rmst_scrubs_metric_{telemetry.metrics().counter("memsys.fabric.rmst_scrubs")},
      rmst_corruptions_metric_{telemetry.metrics().counter("memsys.fabric.rmst_corruptions")},
      relocations_metric_{telemetry.metrics().counter("memsys.fabric.relocations")},
      tgl_hits_metric_{telemetry.metrics().counter("hw.tgl.lookup_hits")},
      tgl_misses_metric_{telemetry.metrics().counter("hw.tgl.lookup_misses")} {}

bool RemoteMemoryFabric::same_tray(hw::BrickId a, hw::BrickId b) const {
  return rack_.brick(a).tray() == rack_.brick(b).tray();
}

RemoteMemoryFabric::Link* RemoteMemoryFabric::find_link(hw::CircuitId id) {
  auto it = link_table_.find(id.value);
  return it == link_table_.end() ? nullptr : &it->second;
}

const RemoteMemoryFabric::Link* RemoteMemoryFabric::find_link(hw::CircuitId id) const {
  auto it = link_table_.find(id.value);
  return it == link_table_.end() ? nullptr : &it->second;
}

RemoteMemoryFabric::Link* RemoteMemoryFabric::link_with_lane(hw::CircuitId circuit) {
  for (auto& [id, link] : link_table_) {
    for (const Lane& lane : link.lanes) {
      if (lane.circuit == circuit) return &link;
    }
  }
  return nullptr;
}

bool RemoteMemoryFabric::has_rider(hw::CircuitId id) const {
  return std::any_of(attachments_.begin(), attachments_.end(),
                     [&](const Attachment& a) { return a.circuit == id; });
}

bool RemoteMemoryFabric::packet_reachable(hw::BrickId compute, hw::BrickId membrick) const {
  return packet_net_ != nullptr && packet_net_->has_brick(compute) &&
         packet_net_->has_brick(membrick);
}

std::size_t RemoteMemoryFabric::count_links(LinkMedium medium) const {
  return static_cast<std::size_t>(
      std::count_if(link_table_.begin(), link_table_.end(),
                    [&](const auto& entry) { return entry.second.medium == medium; }));
}

void RemoteMemoryFabric::ride(Attachment& a, const Link& link) {
  a.circuit = link.id;
  a.medium = link.medium;
  a.lanes = link.lane_count();
  a.switch_hops = link.switch_hops;
  a.fiber_length_m = link.fiber_length_m;
}

std::optional<Attachment> RemoteMemoryFabric::attach(const AttachRequest& request,
                                                     sim::Time now) {
  ++route_epoch_;
  auto result = attach_impl(request, now);
  if (result) {
    attaches_metric_.add();
    rmst_entries_metric_.add(1.0);
    rmst_mapped_metric_.add(static_cast<double>(result->size));
    if (telemetry_.tracing()) {
      sim::Span span{telemetry_.tracer(), sim::TraceCategory::kFabric, "attach", now};
      span.arg("compute", std::to_string(request.compute.value))
          .arg("membrick", std::to_string(request.membrick.value))
          .arg("bytes", std::to_string(result->size))
          .arg("medium", to_string(result->medium));
      span.end(now);
    }
  } else {
    attach_failures_metric_.add();
  }
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return result;
}

std::optional<Attachment> RemoteMemoryFabric::attach_impl(const AttachRequest& request,
                                                          sim::Time now) {
  auto& compute = rack_.compute_brick(request.compute);
  auto& membrick = rack_.memory_brick(request.membrick);

  if (membrick.failed()) {
    last_error_ = AttachError::kBrickFailed;
    return std::nullopt;
  }
  if (compute.tgl().rmst().full()) {
    last_error_ = AttachError::kRmstFull;
    return std::nullopt;
  }
  if (membrick.largest_free_extent() < request.bytes) {
    last_error_ = AttachError::kNoMemory;
    return std::nullopt;
  }

  // An existing link between the pair is shared by multiple segments;
  // otherwise wire a fresh one.
  const Link* link = acquire_link(request.compute, request.membrick,
                                  std::max<std::size_t>(1, request.lanes), request.switch_hops,
                                  request.fiber_length_m, request.prefer_electrical_intra_tray,
                                  request.allow_packet_fallback);
  if (link == nullptr) return std::nullopt;

  auto segment = membrick.allocate(request.bytes, request.compute);
  if (!segment) {
    // largest_free_extent was checked above; reaching here means a race in
    // caller logic. Keep the invariant: undo the link if fresh.
    last_error_ = AttachError::kNoMemory;
    release_if_unused(link->id);
    return std::nullopt;
  }

  hw::RmstEntry entry;
  entry.segment = segment->id;
  entry.base = compute.find_remote_window(request.bytes);
  entry.size = request.bytes;
  entry.dest_brick = request.membrick;
  entry.dest_base = segment->base;
  entry.out_port = link->out_port();
  entry.circuit = link->id;
  compute.tgl().rmst().insert(entry);

  Attachment a;
  a.compute = request.compute;
  a.membrick = request.membrick;
  a.segment = segment->id;
  a.compute_base = entry.base;
  a.size = request.bytes;
  ride(a, *link);
  a.established_at = now;
  attachments_.push_back(a);
  return a;
}

RemoteMemoryFabric::Link* RemoteMemoryFabric::acquire_link(hw::BrickId compute,
                                                           hw::BrickId membrick,
                                                           std::size_t lanes, std::size_t hops,
                                                           double fiber_m, bool prefer_electrical,
                                                           bool allow_packet) {
  for (auto& [id, link] : link_table_) {
    if (link.compute == compute && link.membrick == membrick) return &link;
  }

  Link link;
  link.compute = compute;
  link.membrick = membrick;
  link.switch_hops = hops;
  link.fiber_length_m = fiber_m;
  auto& cb = rack_.brick(compute);
  auto& mb = rack_.brick(membrick);
  bool wired = false;
  // Enough free transceiver ports on both bricks for every lane?
  if (cb.free_port_count(true) < lanes) {
    last_error_ = AttachError::kNoComputePort;
  } else if (mb.free_port_count(true) < lanes) {
    last_error_ = AttachError::kNoMemoryPort;
  } else if (prefer_electrical && same_tray(compute, membrick)) {
    // Tray backplane cross-connect: no optical switch ports involved;
    // bond `lanes` backplane lanes.
    link.id = hw::CircuitId{next_electrical_id_++};
    link.medium = LinkMedium::kElectrical;
    for (std::size_t l = 0; l < lanes; ++l) {
      auto* cp = cb.find_free_port(true);
      auto* mp = mb.find_free_port(true);
      cp->connected = true;
      mp->connected = true;
      link.lanes.push_back(Lane{cp->id, mp->id, hw::CircuitId{}});
    }
    wired = true;
  } else if (circuits_.optical_switch().free_ports() < 2 * hops * lanes) {
    last_error_ = AttachError::kNoSwitchPorts;
  } else {
    // One optical circuit per lane, all bonded under the primary id; a
    // partial bond is rolled back.
    link.lanes = wire_optical(compute, membrick, lanes, hops, fiber_m);
    wired = link.lanes.size() == lanes;
    if (wired) {
      link.id = link.lanes.front().circuit;
    } else {
      tear_lanes(link);
      link.lanes.clear();
    }
  }

  // Packet-substrate fallback (Section III): when the system runs low on
  // physical circuit ports, the orchestrator programs packet-switch
  // lookup tables instead of a dedicated circuit.
  if (!wired) {
    if (!allow_packet || !packet_reachable(compute, membrick)) return nullptr;
    program_packet(link);
  }
  const hw::CircuitId id = link.id;
  return &link_table_.emplace(id.value, std::move(link)).first->second;
}

std::vector<RemoteMemoryFabric::Lane> RemoteMemoryFabric::wire_optical(hw::BrickId compute,
                                                                       hw::BrickId membrick,
                                                                       std::size_t lanes,
                                                                       std::size_t hops,
                                                                       double fiber_m) {
  auto& cb = rack_.brick(compute);
  auto& mb = rack_.brick(membrick);
  std::vector<Lane> wired;
  for (std::size_t l = 0; l < lanes; ++l) {
    auto* cport = cb.find_free_port(/*circuit_based=*/true);
    auto* mport = mb.find_free_port(/*circuit_based=*/true);
    if (cport == nullptr || mport == nullptr) {
      last_error_ =
          cport == nullptr ? AttachError::kNoComputePort : AttachError::kNoMemoryPort;
      break;
    }
    optics::CircuitRequest creq;
    creq.a = optics::CircuitEndpoint{compute, cport->id, -3.7, 1.2};
    creq.b = optics::CircuitEndpoint{membrick, mport->id, -3.7, 1.2};
    creq.hops = hops;
    creq.fiber_length_m = fiber_m;
    auto circuit = circuits_.establish(creq);
    if (!circuit) {
      last_error_ = AttachError::kNoSwitchPorts;
      break;
    }
    cport->connected = true;
    mport->connected = true;
    wired.push_back(Lane{cport->id, mport->id, circuit->id});
  }
  return wired;
}

void RemoteMemoryFabric::program_packet(Link& link) {
  if (!packet_net_->connected(link.compute, link.membrick)) {
    packet_net_->connect(link.compute, link.membrick, link.fiber_length_m);
  }
  link.id = hw::CircuitId{next_packet_id_++};
  link.medium = LinkMedium::kPacket;
}

bool RemoteMemoryFabric::tear_lanes(const Link& link) {
  bool any = false;
  for (const Lane& lane : link.lanes) {
    // A circuit torn behind the fabric's back released its ports with it
    // (on_circuits_torn); they may already serve another link.
    if (lane.circuit.valid() && circuits_.find(lane.circuit) == nullptr) continue;
    rack_.brick(link.compute).port(lane.compute_port.value).connected = false;
    rack_.brick(link.membrick).port(lane.membrick_port.value).connected = false;
    if (lane.circuit.valid()) circuits_.teardown(lane.circuit);
    any = true;
  }
  return any;
}

bool RemoteMemoryFabric::release_link(hw::CircuitId id) {
  const Link* link = find_link(id);
  if (link == nullptr) return false;
  const bool any = tear_lanes(*link);
  if (!has_rider(id)) link_table_.erase(id.value);
  return any;
}

void RemoteMemoryFabric::release_if_unused(hw::CircuitId id) {
  if (!has_rider(id)) release_link(id);
}

void RemoteMemoryFabric::rewire(hw::CircuitId old_id, Link fresh, sim::Time now) {
  const hw::CircuitId id = fresh.id;
  const Link& link = link_table_.emplace(id.value, std::move(fresh)).first->second;
  for (auto& a : attachments_) {
    if (a.circuit != old_id) continue;
    ride(a, link);
    a.established_at = now;
    auto& rmst = rack_.compute_brick(a.compute).tgl().rmst();
    auto entry = rmst.find_segment(a.segment);
    if (entry) {
      hw::RmstEntry updated = *entry;
      updated.circuit = link.id;
      updated.out_port = link.out_port();
      rmst.remove(a.segment);
      rmst.insert(updated);
      DREDBOX_ENSURE(updated.base == a.compute_base && updated.size == a.size,
                     "rewiring changed the RMST window of segment " + a.segment.to_string());
    }
  }
  release_link(old_id);
}

bool RemoteMemoryFabric::detach(hw::BrickId compute, hw::SegmentId segment) {
  ++route_epoch_;
  const auto it = find_attachment(compute, segment);
  if (it == attachments_.end()) return false;

  const Attachment removed = *it;
  attachments_.erase(it);

  auto& cb = rack_.compute_brick(removed.compute);
  cb.tgl().rmst().remove(segment);
  rack_.memory_brick(removed.membrick).release(segment);

  detaches_metric_.add();
  rmst_entries_metric_.add(-1.0);
  rmst_mapped_metric_.add(-static_cast<double>(removed.size));

  release_if_unused(removed.circuit);
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return true;
}

std::optional<RemoteMemoryFabric::MigratedAttachment> RemoteMemoryFabric::migrate_attachment(
    hw::SegmentId segment, hw::BrickId from, hw::BrickId to, sim::Time now) {
  ++route_epoch_;
  const auto it = find_attachment(from, segment);
  if (it == attachments_.end()) return std::nullopt;
  const Attachment old = *it;

  auto& new_compute = rack_.compute_brick(to);
  if (new_compute.tgl().rmst().full()) {
    last_error_ = AttachError::kRmstFull;
    return std::nullopt;
  }

  // Wire (or reuse) connectivity between the destination brick and the
  // serving dMEMBRICK before touching the source side, so failure leaves
  // the old attachment intact. A fresh link is one lane over the
  // attachment's hop count and fibre run.
  const Link* link = acquire_link(to, old.membrick, 1, old.switch_hops, old.fiber_length_m,
                                  /*prefer_electrical=*/true, /*allow_packet=*/false);
  if (link == nullptr) return std::nullopt;
  const bool wired_fresh = !has_rider(link->id);

  // Move the RMST entry: remove at the source, install at the destination.
  auto& old_compute = rack_.compute_brick(from);
  const auto old_entry = old_compute.tgl().rmst().find_segment(segment);
  old_compute.tgl().rmst().remove(segment);

  hw::RmstEntry entry;
  entry.segment = segment;
  entry.base = new_compute.find_remote_window(old.size);
  entry.size = old.size;
  entry.dest_brick = old.membrick;
  entry.dest_base = old_entry ? old_entry->dest_base : 0;
  entry.out_port = link->out_port();
  entry.circuit = link->id;
  new_compute.tgl().rmst().insert(entry);

  rack_.memory_brick(old.membrick).reassign(segment, to);

  // Update the attachment record in place.
  it->compute = to;
  it->compute_base = entry.base;
  ride(*it, *link);
  it->established_at = now;
  const Attachment updated = *it;

  // Tear down the source-side link if this was its last rider.
  release_if_unused(old.circuit);
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return MigratedAttachment{updated, wired_fresh};
}

bool RemoteMemoryFabric::fail_circuit(hw::CircuitId circuit) {
  ++route_epoch_;
  // Only the optical substrate is subject to this fault model (fibres and
  // beam-steering cross-connects); the tray backplane is passive copper. A
  // bonded link dies as a whole; its riders keep the dead record until
  // repaired.
  const Link* link = link_with_lane(circuit);
  const bool any =
      link != nullptr && link->medium == LinkMedium::kOptical && release_link(link->id);
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return any;
}

std::optional<Attachment> RemoteMemoryFabric::repair(hw::BrickId compute,
                                                     hw::SegmentId segment, sim::Time now) {
  ++route_epoch_;
  const auto it = find_attachment(compute, segment);
  if (it == attachments_.end()) return std::nullopt;
  if (it->medium != LinkMedium::kOptical) return *it;      // nothing to repair
  if (circuits_.find(it->circuit) != nullptr) return *it;  // circuit is healthy

  // Rebuild the exact pre-failure link: same hop count, same fibre run,
  // re-bonding up to the original lane count (degrading gracefully to
  // fewer lanes when ports ran scarce in the meantime, never below one).
  Link fresh = *find_link(it->circuit);
  const std::size_t want_lanes = fresh.lane_count();
  fresh.lanes =
      wire_optical(compute, fresh.membrick, want_lanes, fresh.switch_hops, fresh.fiber_length_m);
  if (fresh.lanes.empty()) return std::nullopt;  // could not wire even one lane
  fresh.id = fresh.lanes.front().circuit;
  fresh.busy_until = sim::Time{};

  // Heal every attachment (and RMST entry) that rode the dead link. The
  // compute-side window must come back byte-identical: only the link
  // record changes, never base or size.
  rewire(it->circuit, std::move(fresh), now);
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return *it;
}

void RemoteMemoryFabric::on_circuits_torn(const std::vector<optics::Circuit>& torn) {
  ++route_epoch_;
  for (const auto& c : torn) {
    rack_.brick(c.a.brick).port(c.a.port.value).connected = false;
    rack_.brick(c.b.brick).port(c.b.port.value).connected = false;
    // A bonded link dies as a whole: tear the surviving sibling lanes too.
    if (const Link* link = link_with_lane(c.id)) release_link(link->id);
  }
  DREDBOX_AUDIT_INVARIANT(check_invariants());
}

std::optional<Attachment> RemoteMemoryFabric::failover_to_packet(hw::BrickId compute,
                                                                 hw::SegmentId segment,
                                                                 sim::Time now) {
  ++route_epoch_;
  const auto it = find_attachment(compute, segment);
  if (it == attachments_.end()) return std::nullopt;
  if (it->medium == LinkMedium::kPacket) return *it;  // already failed over
  if (!packet_reachable(compute, it->membrick)) return std::nullopt;

  // Re-provision the pair's link on the packet substrate by programming
  // lookup-table paths (the Section III control-plane role). Every rider
  // moves with it; windows and backing bytes stay untouched.
  Link fresh = *find_link(it->circuit);
  fresh.lanes.clear();
  fresh.busy_until = sim::Time{};
  program_packet(fresh);
  rewire(it->circuit, std::move(fresh), now);
  packet_failovers_metric_.add();
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return *it;
}

std::optional<Attachment> RemoteMemoryFabric::relocate_segment(hw::BrickId compute,
                                                               hw::SegmentId old_segment,
                                                               hw::BrickId new_membrick,
                                                               sim::Time now) {
  ++route_epoch_;
  const auto it = find_attachment(compute, old_segment);
  if (it == attachments_.end()) return std::nullopt;
  if (it->membrick == new_membrick) return *it;  // already there

  auto& cb = rack_.compute_brick(compute);
  auto& new_mb = rack_.memory_brick(new_membrick);
  if (new_mb.failed()) {
    last_error_ = AttachError::kBrickFailed;
    return std::nullopt;
  }
  if (new_mb.largest_free_extent() < it->size) {
    last_error_ = AttachError::kNoMemory;
    return std::nullopt;
  }

  // Wire (or reuse) connectivity to the new dMEMBRICK before touching the
  // old side, so failure leaves the attachment intact. Preference order:
  // shared pair link, electrical intra-tray, optical, packet fallback.
  const Link* link = acquire_link(compute, new_membrick, 1, it->switch_hops, it->fiber_length_m,
                                  /*prefer_electrical=*/true, /*allow_packet=*/true);
  if (link == nullptr) return std::nullopt;

  // Carve the replacement segment (ids are namespaced by the carving
  // brick, so relocation necessarily issues a new segment id).
  auto new_seg = new_mb.allocate(it->size, compute);
  if (!new_seg) {
    last_error_ = AttachError::kNoMemory;
    release_if_unused(link->id);
    return std::nullopt;
  }

  // Re-point the RMST entry, keeping the compute-side window identical.
  auto& rmst = cb.tgl().rmst();
  hw::RmstEntry entry;
  entry.segment = new_seg->id;
  entry.base = it->compute_base;
  entry.size = it->size;
  entry.dest_brick = new_membrick;
  entry.dest_base = new_seg->base;
  entry.out_port = link->out_port();
  entry.circuit = link->id;
  rmst.remove(old_segment);
  rmst.insert(entry);

  const Attachment old = *it;
  it->membrick = new_membrick;
  it->segment = new_seg->id;
  ride(*it, *link);
  it->established_at = now;
  const Attachment result = *it;

  // Release the old backing bytes and the old link when last rider.
  rack_.memory_brick(old.membrick).release(old_segment);
  release_if_unused(old.circuit);
  relocations_metric_.add();
  DREDBOX_ENSURE(result.compute_base == old.compute_base && result.size == old.size,
                 "relocation changed the compute-side window");
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return result;
}

bool RemoteMemoryFabric::corrupt_rmst(hw::BrickId compute, std::size_t ordinal) {
  ++route_epoch_;
  auto& rmst = rack_.compute_brick(compute).tgl().rmst();
  std::size_t seen = 0;
  for (const auto& a : attachments_) {
    if (a.compute != compute) continue;
    if (seen++ != ordinal) continue;
    auto entry = rmst.find_segment(a.segment);
    if (!entry) return false;
    hw::RmstEntry mangled = *entry;
    // A modelled SEU in the PL's segment comparators: the destination
    // offset picks up flipped bits, scattering accesses over wrong bytes.
    mangled.dest_base ^= 0x5a5a000ull;
    rmst.remove(a.segment);
    rmst.insert(mangled);
    rmst_corruptions_metric_.add();
    return true;
  }
  return false;
}

std::size_t RemoteMemoryFabric::scrub_rmst(hw::BrickId compute) {
  ++route_epoch_;
  auto& rmst = rack_.compute_brick(compute).tgl().rmst();
  std::size_t rewritten = 0;
  for (const auto& a : attachments_) {
    if (a.compute != compute) continue;
    const hw::MemorySegment* backing = rack_.memory_brick(a.membrick).find_segment(a.segment);
    if (backing == nullptr) continue;
    const auto entry = rmst.find_segment(a.segment);
    hw::RmstEntry fixed;
    fixed.segment = a.segment;
    fixed.base = a.compute_base;
    fixed.size = a.size;
    fixed.dest_brick = a.membrick;
    fixed.dest_base = backing->base;
    fixed.out_port = entry ? entry->out_port : hw::PortId{0};
    fixed.circuit = a.circuit;
    rmst.remove(a.segment);
    rmst.insert(fixed);
    ++rewritten;
  }
  if (rewritten > 0) rmst_scrubs_metric_.add();
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return rewritten;
}

std::vector<Attachment> RemoteMemoryFabric::attachments_of(hw::BrickId compute) const {
  std::vector<Attachment> out;
  for (const auto& a : attachments_) {
    if (a.compute == compute) out.push_back(a);
  }
  return out;
}

std::uint64_t RemoteMemoryFabric::attached_bytes(hw::BrickId compute) const {
  std::uint64_t total = 0;
  for (const auto& a : attachments_) {
    if (a.compute == compute) total += a.size;
  }
  return total;
}

sim::Time RemoteMemoryFabric::serialization_time(std::uint32_t bytes, LinkMedium medium,
                                                 std::size_t lanes) const {
  const double bits = static_cast<double>(bytes + latencies_.framing_bytes) * 8.0;
  const double rate = medium == LinkMedium::kElectrical ? latencies_.electrical_rate_gbps
                                                        : latencies_.line_rate_gbps;
  // Bonded lanes stripe the payload (aggregate-bandwidth mode, Section II).
  return sim::Time::ns(bits / (rate * static_cast<double>(std::max<std::size_t>(1, lanes))));
}

const Attachment* RemoteMemoryFabric::find_attachment(hw::BrickId compute,
                                                      std::uint64_t address) const {
  for (const auto& a : attachments_) {
    if (a.compute == compute && address >= a.compute_base &&
        address - a.compute_base < a.size) {
      return &a;
    }
  }
  return nullptr;
}

std::vector<Attachment>::iterator RemoteMemoryFabric::find_attachment(hw::BrickId compute,
                                                                      hw::SegmentId segment) {
  return std::find_if(attachments_.begin(), attachments_.end(), [&](const Attachment& a) {
    return a.compute == compute && a.segment == segment;
  });
}

// dredbox-lint: hot-path-begin — execute()/execute_path() are the per-op
// datapath (one traversal per remote read/write, plus one per retry
// attempt); steady state must not allocate. Tracing-gated telemetry and
// the fault-recovery branches are cold and carry suppressions.
Transaction RemoteMemoryFabric::execute(TransactionKind kind, hw::BrickId compute,
                                        std::uint64_t address, std::uint32_t bytes,
                                        sim::Time when, const sim::TraceContext& parent) {
  // The fabric span's causal identity: nested under the caller's trace
  // when one was passed (workload op, DMA chunk), a fresh root otherwise.
  // Minting never draws from the simulation Rng, so tracing on/off leaves
  // the op stream and digests untouched.
  sim::TraceContext ctx;
  const bool tracing = telemetry_.tracing();
  if (tracing) {
    auto& tracer = telemetry_.tracer();
    ctx = parent.valid() ? tracer.child_of(parent) : tracer.begin_trace();
  }

  Transaction tx = execute_path(kind, compute, address, bytes, when, ctx);

  // Recovery loop: with a retry policy set, failed transactions back off
  // exponentially and attack the cause — scrub a corrupted RMST, wire a
  // replacement circuit, or fall back to the packet substrate. Attempts
  // are bounded by the policy (count and hard deadline), so a transaction
  // against a truly dead resource still completes, just not ok().
  if (!tx.ok() && retry_policy_.has_value()) {
    sim::BackoffSchedule schedule{*retry_policy_, when};
    sim::Breakdown accumulated = tx.breakdown;
    sim::Time t = tx.completed_at;
    std::uint32_t retries = 0;
    while (!tx.ok()) {
      // A crashed dMEMBRICK is not recoverable from the data plane; the
      // orchestrator has to evacuate the segment first.
      if (tx.status == TransactionStatus::kBrickFailed) break;
      const Attachment* a = find_attachment(compute, address);
      if (a == nullptr) break;  // genuine decode fault: no window installed

      const auto delay = schedule.next(t);
      if (!delay) {
        retry_exhausted_metric_.add();
        break;
      }
      accumulated.charge(kBdRetryBackoff, *delay);
      if (tracing) {
        telemetry_.tracer().record_span(t, t + *delay, sim::TraceCategory::kFabric,
                                        "retry backoff", {{"status", to_string(tx.status)}},
                                        telemetry_.tracer().child_of(ctx));
      }
      t += *delay;

      bool recovered = true;
      if (tx.status == TransactionStatus::kCorruptMapping ||
          tx.status == TransactionStatus::kNoMapping) {
        scrub_rmst(compute);
        if (tracing) {
          telemetry_.tracer().record_span(t, t, sim::TraceCategory::kFabric, "RMST scrub", {},
                                          telemetry_.tracer().child_of(ctx));
        }
      } else if (tx.status == TransactionStatus::kCircuitDown) {
        if (repair(compute, a->segment, t).has_value()) {
          accumulated.charge(kBdReprovision, circuits_.setup_time());
          if (tracing) {
            telemetry_.tracer().record_span(t, t + circuits_.setup_time(),
                                            sim::TraceCategory::kFabric, "circuit re-provision",
                                            {}, telemetry_.tracer().child_of(ctx));
          }
          t += circuits_.setup_time();
          reprovisions_metric_.add();
        } else if (failover_to_packet(compute, a->segment, t).has_value()) {
          if (tracing) {
            telemetry_.tracer().record_span(t, t, sim::TraceCategory::kFabric, "packet failover",
                                            {}, telemetry_.tracer().child_of(ctx));
          }
        } else {
          recovered = false;  // no optical spare, no packet path: give up
        }
      }
      if (!recovered) break;

      ++retries;
      retries_metric_.add();
      Transaction attempt = execute_path(kind, compute, address, bytes, t, ctx);
      accumulated.merge(attempt.breakdown);
      tx = attempt;
      t = tx.completed_at;
    }
    tx.issued_at = when;
    tx.completed_at = std::max(tx.completed_at, t);
    tx.breakdown = accumulated;
    tx.retries = retries;
  }

  transactions_metric_.add();
  if (tx.ok()) {
    (kind == TransactionKind::kRead ? read_latency_metric_ : write_latency_metric_)
        .observe(tx.round_trip().as_ns());
  } else {
    failed_tx_metric_.add();
  }
  if (tracing) {
    sim::Span span{telemetry_.tracer(), sim::TraceCategory::kFabric,
                   kind == TransactionKind::kRead ? "remote read" : "remote write", tx.issued_at};
    span.context(ctx);
    span.arg("bytes", std::to_string(tx.bytes)).arg("status", to_string(tx.status));  // dredbox-lint: ignore[hot-path-alloc] tracing-gated
    // dredbox-lint: ignore[hot-path-alloc] tracing-gated
    if (tx.retries > 0) span.arg("retries", std::to_string(tx.retries));
    // Per-op critical-path breakdown, keyed on the span itself so a
    // report reader sees where this transaction's round trip went.
    for (const auto& [component, amount] : tx.breakdown.components()) {
      span.arg(std::string{"bd."}.append(component), sim::strformat("%.3f", amount.as_ns()));  // dredbox-lint: ignore[hot-path-alloc] tracing-gated
    }
    span.end(tx.completed_at);
  }
  tx.ctx = ctx;
  return tx;
}

Transaction RemoteMemoryFabric::execute_path(TransactionKind kind, hw::BrickId compute,
                                             std::uint64_t address, std::uint32_t bytes,
                                             sim::Time when, const sim::TraceContext& ctx) {
  // One attempt resolves each brick once and appends each pipeline stage
  // to the breakdown once (legs summed), so nothing here scans.
  Transaction tx;
  tx.kind = kind;
  tx.source = compute;
  tx.address = address;
  tx.bytes = bytes;
  tx.issued_at = when;

  // The APU forwards the transaction to the TGL via its master ports; the
  // TGL identifies the remote segment (fully associative RMST match).
  tx.breakdown.append(kBdTglLookup, latencies_.tgl_lookup);
  const sim::Time t = when + latencies_.tgl_lookup;

  Route route;
  const auto matched = rack_.compute_brick(compute).tgl().route(address);
  (matched ? tgl_hits_metric_ : tgl_misses_metric_).add();
  tx.status = resolve(compute, matched, route);
  tx.destination = route.destination;
  tx.remote_address = route.remote_address;
  if (!tx.ok()) {
    tx.completed_at = t;
    return tx;
  }

  // Packet-substrate attachments delegate the whole round trip to the
  // packet network model (NI, on-brick switches, MAC/PHY).
  if (route.link->medium == LinkMedium::kPacket) {
    const auto tech = route.membrick->config().technology;
    net::Packet pkt =
        kind == TransactionKind::kRead
            ? packet_net_->remote_read(compute, tx.destination, tx.remote_address, bytes, t,
                                       tech, ctx)
            : packet_net_->remote_write(compute, tx.destination, tx.remote_address, bytes, t,
                                        tech, ctx);
    tx.breakdown.merge(pkt.breakdown);
    tx.completed_at = pkt.delivered_at;
    return tx;
  }

  const StageTerms terms = stage_terms(kind, route, bytes);
  const Priced priced = price(route, terms, t);
  tx.breakdown.append(kBdCircuitWait, priced.circuit_wait);
  tx.breakdown.append(kBdSerialization, terms.out_ser + terms.back_ser);
  tx.breakdown.append(kBdSerdesTx, terms.serdes);
  tx.breakdown.append(terms.electrical ? kBdElectricalProp : kBdOpticalProp,
                      terms.propagation * 2);
  tx.breakdown.append(kBdSerdesRx, terms.serdes);
  tx.breakdown.append(kBdGlueLogic, latencies_.glue_logic);
  tx.breakdown.append(kBdMcWait, priced.mc_wait);
  tx.breakdown.append(kBdMemAccess, terms.mem_access);
  tx.breakdown.append(kBdSerdesReturn, terms.serdes * 2);
  tx.completed_at = priced.completed_at;
  return tx;
}

TransactionStatus RemoteMemoryFabric::resolve(hw::BrickId compute,
                                              const std::optional<hw::TglRoute>& match,
                                              Route& route) {
  if (!match) return TransactionStatus::kNoMapping;
  const hw::RmstEntry& entry = *match->entry;
  route.destination = entry.dest_brick;
  route.remote_address = match->remote_addr;
  route.window_base = entry.base;
  route.window_size = entry.size;
  route.dest_base = entry.dest_base;
  const hw::MemoryBrick& mb = rack_.memory_brick(entry.dest_brick);
  route.membrick = &mb;

  // A crashed dMEMBRICK never answers: the transaction dies at the TGL
  // (the modelled equivalent of an AXI timeout back to the APU).
  if (mb.failed()) return TransactionStatus::kBrickFailed;

  // Cross-check the RMST entry against the dMEMBRICK's segment table: a
  // corrupted entry (SEU in the PL comparators) would scatter the access
  // over the wrong backing bytes, so it is refused instead.
  const hw::MemorySegment* backing = mb.find_segment(entry.segment);
  if (backing == nullptr || backing->owner != compute || backing->base != entry.dest_base) {
    return TransactionStatus::kCorruptMapping;
  }

  // One link lookup per resolve: medium, lanes and cable occupancy all
  // live on the pair's link. Optical liveness and propagation come from
  // the circuit manager, which may have torn the circuit behind our back.
  route.link = find_link(entry.circuit);
  if (route.link == nullptr) return TransactionStatus::kCircuitDown;
  if (route.link->medium == LinkMedium::kOptical) {
    route.circuit = circuits_.find(route.link->id);
    if (route.circuit == nullptr) return TransactionStatus::kCircuitDown;
  }
  return TransactionStatus::kOk;
}

RemoteMemoryFabric::StageTerms RemoteMemoryFabric::stage_terms(TransactionKind kind,
                                                               const Route& route,
                                                               std::uint32_t bytes) {
  StageTerms terms;
  const LinkMedium medium = route.link->medium;
  terms.electrical = medium == LinkMedium::kElectrical;
  terms.serdes = terms.electrical ? latencies_.electrical_serdes : latencies_.serdes;
  // A circuit's fibre run is fixed for its life, so its propagation is a
  // stage term; a packet link has no circuit (route.circuit is null).
  terms.propagation = terms.electrical                  ? latencies_.electrical_propagation
                      : medium == LinkMedium::kOptical ? route.circuit->propagation_delay()
                                                       : sim::Time{};

  // Array occupancy: first-word latency plus streaming time for the
  // payload at the controller's bandwidth.
  const hw::MemoryBrick& mb = *route.membrick;
  const bool hmc = mb.config().technology == hw::MemoryTechnology::kHmc;
  const double array_gbps = hmc ? latencies_.hmc_bandwidth_gbps : latencies_.ddr_bandwidth_gbps;
  terms.mem_access = (hmc ? latencies_.hmc_access : latencies_.ddr_access) +
                     sim::Time::ns(static_cast<double>(bytes) * 8.0 / array_gbps);
  terms.mc_base = controller_slots(mb);
  terms.mc_count = static_cast<std::uint32_t>(mb.config().memory_controllers);
  terms.mc_pow2 = std::has_single_bit(terms.mc_count);

  // Outbound: request (write carries payload; read is header-only). Return:
  // read carries payload back; write returns a short ack.
  const std::size_t lanes = route.link->lane_count();
  terms.out_ser = serialization_time(kind == TransactionKind::kWrite ? bytes : 0, medium, lanes);
  terms.back_ser = serialization_time(kind == TransactionKind::kRead ? bytes : 0, medium, lanes);
  return terms;
}

RemoteMemoryFabric::Priced RemoteMemoryFabric::price(const Route& route, const StageTerms& terms,
                                                     sim::Time t) {
  Priced priced;
  sim::Time& busy = route.link->busy_until;
  const sim::Time start = std::max(t, busy);
  priced.circuit_wait = start - t;
  busy = start + terms.out_ser;
  t = busy + terms.serdes + terms.propagation + terms.serdes + latencies_.glue_logic;

  // dMEMBRICK: glue logic steers the transaction to one of the brick's
  // memory controllers (interleaved by 4 KiB page); a busy controller
  // delays the access, so bricks dimensioned with more controllers sustain
  // more concurrent transactions (Section II).
  const std::uint64_t page = route.remote_address >> 12;
  const std::uint64_t mc = terms.mc_pow2 ? page & (terms.mc_count - 1) : page % terms.mc_count;
  sim::Time& mc_busy = controller_busy_until_[terms.mc_base + mc];
  const sim::Time mc_start = std::max(t, mc_busy);
  priced.mc_wait = mc_start - t;
  mc_busy = mc_start + terms.mem_access;
  priced.completed_at = mc_busy + terms.back_ser + terms.serdes * 2 + terms.propagation;
  return priced;
}

bool RemoteMemoryFabric::stream(HeldRoute::Slot& slot, TransactionKind kind, hw::BrickId compute,
                                std::uint64_t address, std::uint32_t bytes, sim::Time when,
                                sim::Time& done) {
  Route& route = slot.route;
  const bool held = slot.epoch == route_epoch_ && slot.compute == compute &&
                    slot.bytes == bytes && address >= route.window_base &&
                    address - route.window_base < route.window_size;
  if (held) {
    // No mutator ran since the route was resolved; only a brick crash and
    // a circuit torn behind the fabric's back can have broken it, and the
    // latter only if the circuit manager tore something since the slot
    // last found its circuit.
    if (slot.medium == LinkMedium::kPacket || route.membrick->failed()) return false;
    if (slot.teardowns != circuits_.teardowns()) [[unlikely]] {
      if (slot.medium == LinkMedium::kOptical) {
        route.circuit = circuits_.find(route.link->id);
        if (route.circuit == nullptr) return false;
      }
      slot.teardowns = circuits_.teardowns();
    }
    route.remote_address = route.dest_base + (address - route.window_base);
    DREDBOX_AUDIT_INVARIANT(check_held_route(slot, kind, address));
  } else {
    slot.epoch = 0;
    hw::TransactionGlueLogic& tgl = rack_.compute_brick(compute).tgl();
    route = Route{};
    if (resolve(compute, tgl.match(address), route) != TransactionStatus::kOk) return false;
    slot.epoch = route_epoch_;
    slot.teardowns = circuits_.teardowns();
    slot.compute = compute;
    slot.bytes = bytes;
    slot.medium = route.link->medium;
    slot.tgl = &tgl;
    if (slot.medium == LinkMedium::kPacket) return false;
    slot.terms = stage_terms(kind, route, bytes);
  }

  slot.tgl->note_hit();
  tgl_hits_metric_.add();
  done = price(route, slot.terms, when + latencies_.tgl_lookup).completed_at;
  transactions_metric_.add();
  (kind == TransactionKind::kRead ? read_latency_metric_ : write_latency_metric_)
      .observe((done - when).as_ns());
  return true;
}

RemoteMemoryFabric::Outcome RemoteMemoryFabric::transact(HeldRoute& held, TransactionKind kind,
                                                         hw::BrickId compute,
                                                         std::uint64_t address,
                                                         std::uint32_t bytes, sim::Time when,
                                                         const sim::TraceContext& ctx) {
  // Traced transactions need their spans and breakdowns: full walk.
  const bool traced = ctx.valid() || telemetry_.tracing();
  if (!traced) {
    sim::Time done;
    if (stream(held.slots[static_cast<std::size_t>(kind)], kind, compute, address, bytes, when,
               done)) {
      ++held_transactions_;
      return Outcome{done, 0, TransactionStatus::kOk};
    }
  }
  const Transaction tx = execute(kind, compute, address, bytes, when, ctx);
  return Outcome{tx.completed_at, tx.retries, tx.status};
}

void RemoteMemoryFabric::check_held_route(const HeldRoute::Slot& slot, TransactionKind kind,
                                          std::uint64_t address) {
  const hw::TransactionGlueLogic& tgl = rack_.compute_brick(slot.compute).tgl();
  Route fresh;
  DREDBOX_INVARIANT(resolve(slot.compute, tgl.match(address), fresh) == TransactionStatus::kOk &&
                        fresh == slot.route,
                    "held route disagrees with a fresh fabric resolution");
  DREDBOX_INVARIANT(fresh.link->medium == slot.medium &&
                        stage_terms(kind, fresh, slot.bytes) == slot.terms,
                    "held stage terms disagree with fresh ones");
}

std::uint32_t RemoteMemoryFabric::controller_slots(const hw::MemoryBrick& membrick) {
  constexpr std::uint32_t kUnplaced = 0xffffffffu;
  const std::uint32_t id = membrick.id().value;
  if (id >= controller_base_.size()) controller_base_.resize(id + 1, kUnplaced);
  std::uint32_t& base = controller_base_[id];
  if (base == kUnplaced) {
    base = static_cast<std::uint32_t>(controller_busy_until_.size());
    controller_busy_until_.resize(base + membrick.config().memory_controllers);
  }
  return base;
}
// dredbox-lint: hot-path-end

void RemoteMemoryFabric::check_invariants() const {
  for (std::size_t i = 0; i < attachments_.size(); ++i) {
    const Attachment& a = attachments_[i];
    DREDBOX_INVARIANT(a.size > 0, "attachment maps zero bytes");
    for (std::size_t j = i + 1; j < attachments_.size(); ++j) {
      DREDBOX_INVARIANT(attachments_[j].compute != a.compute ||
                            attachments_[j].segment != a.segment,
                        "segment " + a.segment.to_string() + " attached twice to brick " +
                            a.compute.to_string());
    }

    // The consuming side: a live dCOMPUBRICK with the RMST entry installed.
    DREDBOX_INVARIANT(rack_.has_brick(a.compute) &&
                          rack_.brick(a.compute).kind() == hw::BrickKind::kCompute,
                      "attachment consumer " + a.compute.to_string() +
                          " is not a live dCOMPUBRICK");
    const auto entry = rack_.compute_brick(a.compute).tgl().rmst().find_segment(a.segment);
    DREDBOX_INVARIANT(entry.has_value(), "segment " + a.segment.to_string() +
                                             " has no RMST entry on brick " +
                                             a.compute.to_string());
    DREDBOX_INVARIANT(entry->base == a.compute_base && entry->size == a.size &&
                          entry->dest_brick == a.membrick,
                      "RMST entry for segment " + a.segment.to_string() +
                          " disagrees with the attachment record");

    // The serving side: every mapped segment is backed by a live dMEMBRICK
    // that still carves that segment for this consumer.
    DREDBOX_INVARIANT(rack_.has_brick(a.membrick) &&
                          rack_.brick(a.membrick).kind() == hw::BrickKind::kMemory,
                      "attachment server " + a.membrick.to_string() +
                          " is not a live dMEMBRICK");
    const hw::MemorySegment* segment = rack_.memory_brick(a.membrick).find_segment(a.segment);
    DREDBOX_INVARIANT(segment != nullptr, "segment " + a.segment.to_string() +
                                               " is not carved on dMEMBRICK " +
                                               a.membrick.to_string());
    DREDBOX_INVARIANT(segment->owner == a.compute && segment->size == a.size,
                      "dMEMBRICK segment " + a.segment.to_string() +
                          " disagrees with the attachment record");

    // Every attachment rides its pair's link record and copies its fields.
    const Link* link = find_link(a.circuit);
    DREDBOX_INVARIANT(link != nullptr,
                      "segment " + a.segment.to_string() + " rides no link record");
    DREDBOX_INVARIANT(link->compute == a.compute && link->membrick == a.membrick &&
                          link->medium == a.medium && link->lane_count() == a.lanes &&
                          link->switch_hops == a.switch_hops &&
                          link->fiber_length_m == a.fiber_length_m,
                      "segment " + a.segment.to_string() + " disagrees with link " +
                          link->id.to_string());
  }

  // Every link has a rider and is its pair's only link; backplane lanes
  // and live optical lanes still hold both transceiver ports. Optical
  // circuits may be absent (fail_circuit() models fibre cuts).
  for (auto it = link_table_.begin(); it != link_table_.end(); ++it) {
    const Link& link = it->second;
    DREDBOX_INVARIANT(it->first == link.id.value && has_rider(link.id),
                      "orphan or mis-keyed link record " + link.id.to_string());
    DREDBOX_INVARIANT(std::none_of(std::next(it), link_table_.end(),
                                   [&](const auto& other) {
                                     return other.second.compute == link.compute &&
                                            other.second.membrick == link.membrick;
                                   }),
                      "two links between bricks " + link.compute.to_string() + " and " +
                          link.membrick.to_string());
    DREDBOX_INVARIANT(link.lanes.empty() == (link.medium == LinkMedium::kPacket),
                      "link " + link.id.to_string() + " has lanes that disagree with its medium");
    for (const Lane& lane : link.lanes) {
      DREDBOX_INVARIANT(lane.circuit.valid() == (link.medium == LinkMedium::kOptical),
                        "link " + link.id.to_string() + " mixes backplane and optical lanes");
      if (lane.circuit.valid() && circuits_.find(lane.circuit) == nullptr) continue;
      DREDBOX_INVARIANT(rack_.brick(link.compute).port(lane.compute_port.value).connected &&
                            rack_.brick(link.membrick).port(lane.membrick_port.value).connected,
                        "link " + link.id.to_string() +
                            " lane rides a disconnected transceiver port");
    }
  }
}

Transaction RemoteMemoryFabric::read(hw::BrickId compute, std::uint64_t address,
                                     std::uint32_t bytes, sim::Time when,
                                     const sim::TraceContext& ctx) {
  return execute(TransactionKind::kRead, compute, address, bytes, when, ctx);
}

Transaction RemoteMemoryFabric::write(hw::BrickId compute, std::uint64_t address,
                                      std::uint32_t bytes, sim::Time when,
                                      const sim::TraceContext& ctx) {
  return execute(TransactionKind::kWrite, compute, address, bytes, when, ctx);
}

}  // namespace dredbox::memsys
