#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "hw/rack.hpp"
#include "memsys/circuit_path.hpp"
#include "memsys/transaction.hpp"
#include "net/packet_network.hpp"
#include "optics/circuit.hpp"
#include "sim/metrics.hpp"
#include "sim/retry.hpp"

namespace dredbox::memsys {

/// Physical medium carrying an attachment's traffic: intra-tray pairs ride
/// the tray's electrical circuit; cross-tray pairs ride an optical circuit
/// through the rack switch (Section II); and when the system runs low on
/// physical switch ports, traffic falls back to the packet-based network
/// with orchestrator-programmed lookup tables (Section III).
enum class LinkMedium : std::uint8_t { kElectrical, kOptical, kPacket };

std::string to_string(LinkMedium medium);

/// A live attachment of remote memory to a dCOMPUBRICK: the dMEMBRICK
/// segment, the RMST entry installed at the compute side, and the circuit
/// carrying the traffic.
struct Attachment {
  hw::BrickId compute;
  hw::BrickId membrick;
  hw::SegmentId segment;        // id on the dMEMBRICK
  std::uint64_t compute_base = 0;  // brick-physical window at the source
  std::uint64_t size = 0;
  hw::CircuitId circuit;
  LinkMedium medium = LinkMedium::kOptical;
  /// Parallel lanes bonded into this pair's link (Section II: multiple
  /// links "can be used to provide more aggregate bandwidth").
  std::size_t lanes = 1;
  /// Link parameters of the pair's link (copied from it, like medium and
  /// lanes), so repair() can rebuild the exact pre-failure path.
  std::size_t switch_hops = 1;
  double fiber_length_m = 10.0;
  sim::Time established_at;
};

struct AttachRequest {
  hw::BrickId compute;
  hw::BrickId membrick;
  std::uint64_t bytes = 1ull << 30;
  std::size_t switch_hops = 1;
  double fiber_length_m = 10.0;
  /// Lanes to bond for aggregate bandwidth; each lane consumes one
  /// transceiver port per brick (plus switch ports when optical). Ignored
  /// when an existing link between the pair is reused.
  std::size_t lanes = 1;
  /// When true (default) the fabric uses the tray's electrical circuit for
  /// intra-tray pairs instead of burning optical switch ports.
  bool prefer_electrical_intra_tray = true;
  /// When true and a circuit cannot be wired (switch or brick ports
  /// exhausted), the attachment falls back to the packet substrate
  /// (requires a PacketNetwork attached to the fabric).
  bool allow_packet_fallback = false;
};

/// Why an attach failed — surfaced to the orchestrator so it can pick a
/// different dMEMBRICK or fall back to the packet substrate.
enum class AttachError {
  kNoMemory,        // dMEMBRICK cannot carve a contiguous segment
  kNoComputePort,   // requesting brick has no free circuit-facing port
  kNoMemoryPort,    // serving brick has no free circuit-facing port
  kNoSwitchPorts,   // optical switch exhausted ("running low in terms of
                    //  physical ports", Section III)
  kRmstFull,        // compute brick's segment table is full
  kBrickFailed,     // serving dMEMBRICK has crashed
};

std::string to_string(AttachError err);

/// The remote-memory fabric: control plane (attach/detach — carve a
/// segment, wire a circuit, install the RMST entry) and data plane
/// (read/write transactions with per-stage latency attribution) over the
/// mainline circuit-switched interconnect.
class RemoteMemoryFabric {
  struct Link;
  /// White-box access for the held-route oracles: which transactions the
  /// held route carried.
  friend struct FabricTestAccess;

  /// What resolve() found for one address: the TGL match, the serving
  /// dMEMBRICK and the link (with its live circuit when optical). The
  /// brick and link pointers stay valid until the route epoch moves; the
  /// circuit pointer only until the CircuitManager tears the circuit.
  struct Route {
    hw::BrickId destination;
    std::uint64_t remote_address = 0;
    std::uint64_t window_base = 0;  // matched RMST window, compute side
    std::uint64_t window_size = 0;
    std::uint64_t dest_base = 0;
    const hw::MemoryBrick* membrick = nullptr;
    Link* link = nullptr;
    const optics::Circuit* circuit = nullptr;
    bool operator==(const Route&) const = default;
  };

  /// The occupancy-independent terms of one transaction over a circuit
  /// route: serialization each way, the serdes pair, the array access, the
  /// one-way propagation and where the dMEMBRICK's controllers sit. They
  /// depend only on kind, size, link, circuit and memory brick.
  struct StageTerms {
    sim::Time out_ser;
    sim::Time back_ser;
    sim::Time serdes;
    sim::Time mem_access;
    sim::Time propagation;  // one way
    /// The brick's first slot in controller_busy_until_: an index, since
    /// the vector grows when another brick first serves.
    std::uint32_t mc_base = 0;
    std::uint32_t mc_count = 1;
    bool mc_pow2 = true;  // mc_count is a power of two: page & (count - 1)
    bool electrical = false;
    bool operator==(const StageTerms&) const = default;
  };

  /// The occupancy-dependent outcome of price().
  struct Priced {
    sim::Time circuit_wait;
    sim::Time mc_wait;
    sim::Time completed_at;
  };

 public:
  /// A caller's held routes (DMA channel, VM window, rack gateway), owned by
  /// the caller and only read or written by transact(): one slot per
  /// transaction kind, each holding one size. Default state holds nothing.
  class HeldRoute {
   private:
    friend class RemoteMemoryFabric;
    struct Slot {
      std::uint64_t epoch = 0;  // route epoch it was resolved in; 0 = none
      /// CircuitManager::teardowns() when route.circuit was last found.
      std::uint64_t teardowns = 0;
      hw::BrickId compute;
      std::uint32_t bytes = 0;
      LinkMedium medium = LinkMedium::kOptical;  // the held link's
      hw::TransactionGlueLogic* tgl = nullptr;
      Route route;
      StageTerms terms;  // unset on a packet link
    };
    Slot slots[2];  // indexed by TransactionKind
  };

  /// What a synchronous transaction left the caller: how it ended, when,
  /// and the recovery attempts it took.
  struct Outcome {
    sim::Time completed_at;
    std::uint32_t retries = 0;
    TransactionStatus status = TransactionStatus::kOk;
    bool ok() const { return status == TransactionStatus::kOk; }
  };

  /// Binds the attach/detach counters, the per-access round-trip
  /// histograms ("memsys.read.latency_ns" — the Fig. 8 quantity), the
  /// rack-wide TGL lookup counters, RMST occupancy gauges and kFabric trace
  /// spans, so the data-plane hot path never does a name lookup.
  RemoteMemoryFabric(hw::Rack& rack, optics::CircuitManager& circuits,
                     sim::Telemetry& telemetry, const CircuitPathLatencies& latencies = {});

  /// Attaches the exploratory packet substrate so attach() can fall back
  /// to it when circuits are unavailable. Both bricks of a fallback pair
  /// must be registered in the network; the fabric programs the lookup
  /// tables (the Section III control-path role) on first use.
  void set_packet_network(net::PacketNetwork* network) {
    ++route_epoch_;
    packet_net_ = network;
  }
  std::size_t packet_links() const { return count_links(LinkMedium::kPacket); }

  /// The fabric's telemetry bundle. Components layered on top of the
  /// fabric (e.g. the DMA engine) record into it too.
  sim::Telemetry& telemetry() const { return telemetry_; }

  // --- control plane ---
  std::optional<Attachment> attach(const AttachRequest& request, sim::Time now);
  AttachError last_error() const { return last_error_; }

  /// Detaches one attachment (removes RMST entry, frees the segment,
  /// tears the circuit down when it was the last user). Returns false
  /// when the segment is unknown for that compute brick.
  bool detach(hw::BrickId compute, hw::SegmentId segment);

  /// Result of re-pointing an attachment during VM migration.
  struct MigratedAttachment {
    Attachment attachment;     // updated record (new compute brick/window)
    bool new_circuit = false;  // a fresh cross-connect had to be wired
  };

  /// Re-points an attachment from one dCOMPUBRICK to another *without
  /// touching the data*: the dMEMBRICK segment stays where it is; only
  /// the RMST entry moves and a one-lane link to the new brick (same hops
  /// and fibre) is wired, or the pair's link reused. This is the
  /// disaggregation dividend for VM migration — remote memory never gets
  /// copied. Returns nullopt (state unchanged) when the new brick lacks
  /// ports/RMST slots or the switch lacks ports.
  std::optional<MigratedAttachment> migrate_attachment(hw::SegmentId segment,
                                                       hw::BrickId from, hw::BrickId to,
                                                       sim::Time now);

  // --- failure injection / repair ---
  /// Simulates a fault on an optical circuit (fibre cut, switch failure):
  /// the cross-connects drop and the endpoint transceivers lose link.
  /// Subsequent transactions over attachments riding it complete with
  /// TransactionStatus::kCircuitDown. Any lane of a bond fails the whole
  /// link. Returns false for unknown ids or non-optical links.
  bool fail_circuit(hw::CircuitId circuit);

  /// Repairs a failed attachment by wiring a fresh circuit (reusing the
  /// surviving segment and RMST window). Every attachment that shared the
  /// dead circuit is healed at once. Returns the repaired attachment, or
  /// nullopt when no spare ports exist.
  std::optional<Attachment> repair(hw::BrickId compute, hw::SegmentId segment, sim::Time now);

  /// Reacts to circuits the CircuitManager tore down behind the fabric's
  /// back (insertion-loss drift, switch-port failure): releases the brick
  /// transceiver ports of every torn circuit, tears sibling lanes of any
  /// bond a torn circuit belonged to (a bonded link dies as a whole).
  /// Attachments stay installed on the dead link — their
  /// transactions report kCircuitDown until repaired.
  void on_circuits_torn(const std::vector<optics::Circuit>& torn);

  /// Moves one attachment's link — and so every attachment riding it — to
  /// the packet substrate (Section III fallback) without touching the data:
  /// RMST windows, segments and backing bytes are preserved; only the link
  /// record changes. Used when a circuit cannot be re-provisioned. Returns
  /// the updated attachment or nullopt (state unchanged) when no packet
  /// path exists.
  std::optional<Attachment> failover_to_packet(hw::BrickId compute, hw::SegmentId segment,
                                               sim::Time now);

  /// Evacuates one attachment off its dMEMBRICK onto `new_membrick`: a new
  /// segment is carved there, connectivity is wired (reusing any existing
  /// pair link, else electrical/optical/packet in order of preference) and
  /// the RMST entry is re-pointed while keeping the compute-side window
  /// byte-identical. The old segment is released and its circuit torn when
  /// last rider. The segment id changes (ids are brick-namespaced); the
  /// returned attachment carries the new one. Nullopt => state unchanged.
  std::optional<Attachment> relocate_segment(hw::BrickId compute, hw::SegmentId old_segment,
                                             hw::BrickId new_membrick, sim::Time now);

  // --- fault injection: RMST corruption & scrubbing ---
  /// Flips dest_base bits of the `ordinal`-th RMST entry installed for
  /// `compute` (a modelled SEU in the PL's segment table). Subsequent
  /// transactions through the entry report kCorruptMapping until the table
  /// is scrubbed. Returns false when the brick has no such entry.
  bool corrupt_rmst(hw::BrickId compute, std::size_t ordinal = 0);

  /// Rebuilds every RMST entry of `compute` from the fabric's attachment
  /// records and the dMEMBRICK segment tables (the ground truth the
  /// orchestrator holds). Returns the number of entries rewritten.
  std::size_t scrub_rmst(hw::BrickId compute);

  /// Retry policy for the data plane. Unset (default) => transactions fail
  /// fast exactly as before; set => execute() retries recoverable statuses
  /// with exponential backoff, scrubs corrupt RMST entries, re-provisions
  /// dead circuits and falls back to the packet substrate.
  void set_retry_policy(std::optional<sim::RetryPolicy> policy) { retry_policy_ = policy; }
  const std::optional<sim::RetryPolicy>& retry_policy() const { return retry_policy_; }

  std::vector<Attachment> attachments_of(hw::BrickId compute) const;
  const std::vector<Attachment>& all_attachments() const { return attachments_; }
  std::uint64_t attached_bytes(hw::BrickId compute) const;
  std::size_t attachment_count() const { return attachments_.size(); }

  // --- data plane ---
  /// `ctx`, when valid, parents the recorded fabric span (and every
  /// recovery event of the retry loop) under the caller's trace — the
  /// workload-op → transaction → retry/fallback → completion chain. The
  /// default (invalid) context makes each traced transaction its own
  /// trace root.
  Transaction read(hw::BrickId compute, std::uint64_t address, std::uint32_t bytes,
                   sim::Time when, const sim::TraceContext& ctx = {});
  Transaction write(hw::BrickId compute, std::uint64_t address, std::uint32_t bytes,
                    sim::Time when, const sim::TraceContext& ctx = {});

  /// One transaction issued by a caller that holds its routes (`held`
  /// carries them from transaction to transaction: a DMA chunk train, a VM
  /// window's reads and writes, a rack gateway's served requests). While
  /// the held route for `kind` is valid the transaction is priced from it
  /// and counts one TGL hit, one transaction and one latency sample,
  /// exactly as a successful read()/write() would; a stale route is
  /// re-resolved first. Otherwise — the address does not resolve to a
  /// healthy circuit path, the link is a packet link, tracing is on or
  /// `ctx` is valid — it takes the full walk of read()/write(), recovery
  /// loop and spans included.
  Outcome transact(HeldRoute& held, TransactionKind kind, hw::BrickId compute,
                   std::uint64_t address, std::uint32_t bytes, sim::Time when,
                   const sim::TraceContext& ctx = {});

  const CircuitPathLatencies& latencies() const { return latencies_; }

  /// Number of live electrical intra-tray links (for introspection).
  std::size_t electrical_links() const { return count_links(LinkMedium::kElectrical); }

  /// Deep consistency audit of the control-plane state: every attachment
  /// references live bricks of the right kinds, its segment is really
  /// carved on the dMEMBRICK for the attached dCOMPUBRICK, the matching
  /// RMST entry is installed at the compute side, no (compute, segment)
  /// pair is attached twice, every attachment copies its pair's link
  /// record, every link has a rider and is its pair's only one, and its
  /// live lanes hold connected transceiver ports.
  /// Optical circuits are allowed to be absent (fail_circuit() models
  /// fibre cuts; transactions then report kCircuitDown). Throws
  /// ContractViolation on the first broken invariant. Wired into every
  /// control-plane mutation when built with -DDREDBOX_AUDIT=ON; callable
  /// directly in any build.
  void check_invariants() const;

 private:
  /// One bonded lane of a link: a transceiver port on each brick plus, for
  /// optical links, the circuit through the rack switch (invalid for
  /// backplane lanes).
  struct Lane {
    hw::PortId compute_port;
    hw::PortId membrick_port;
    hw::CircuitId circuit;
  };

  /// The one link between a (dCOMPUBRICK, dMEMBRICK) pair, whatever carries
  /// it: bonded backplane lanes (electrical), bonded circuits through the
  /// rack switch (optical, id = primary circuit) or packet-substrate
  /// lookup-table entries (packet, no dedicated lanes). It is the only
  /// record of medium, lanes, hops, fibre and cable occupancy; attachments
  /// copy those fields from it. A failed optical link keeps its record
  /// (with dead lanes) for its riders until repair() or failover rewires it.
  struct Link {
    hw::CircuitId id;
    LinkMedium medium = LinkMedium::kOptical;
    hw::BrickId compute;
    hw::BrickId membrick;
    std::vector<Lane> lanes;
    std::size_t switch_hops = 1;
    double fiber_length_m = 10.0;
    sim::Time busy_until;
    std::size_t lane_count() const { return std::max<std::size_t>(1, lanes.size()); }
    /// The compute-side GTH port of the first lane (0 for packet links).
    hw::PortId out_port() const {
      return lanes.empty() ? hw::PortId{0} : lanes.front().compute_port;
    }
  };

  hw::Rack& rack_;
  optics::CircuitManager& circuits_;
  CircuitPathLatencies latencies_;
  net::PacketNetwork* packet_net_ = nullptr;
  std::vector<Attachment> attachments_;
  /// Every link, keyed by id (ordered, so iteration is deterministic).
  std::map<std::uint32_t, Link> link_table_;
  /// Per-(dMEMBRICK, controller) occupancy: a brick dimensioned with more
  /// memory controllers serves more concurrent transactions (Section II).
  /// Flat: a brick's controllers sit contiguously from
  /// controller_base_[brick id], laid out when the brick first serves.
  std::vector<sim::Time> controller_busy_until_;
  std::vector<std::uint32_t> controller_base_;
  AttachError last_error_ = AttachError::kNoMemory;
  std::optional<sim::RetryPolicy> retry_policy_;
  /// Electrical and packet link ids live in ranges the optical manager
  /// never uses.
  std::uint32_t next_electrical_id_ = 0x40000000u;
  std::uint32_t next_packet_id_ = 0x80000000u;
  /// Bumped by every control-plane mutator; a held route resolved in an
  /// older epoch is stale.
  std::uint64_t route_epoch_ = 1;
  /// Transactions transact() priced from a held route rather than walked.
  std::uint64_t held_transactions_ = 0;

  sim::Telemetry& telemetry_;
  sim::metrics::Counter& attaches_metric_;
  sim::metrics::Counter& attach_failures_metric_;
  sim::metrics::Counter& detaches_metric_;
  sim::metrics::Counter& transactions_metric_;
  sim::metrics::Counter& failed_tx_metric_;
  sim::metrics::Histogram& read_latency_metric_;
  sim::metrics::Histogram& write_latency_metric_;
  sim::metrics::Gauge& rmst_entries_metric_;
  sim::metrics::Gauge& rmst_mapped_metric_;
  sim::metrics::Counter& retries_metric_;
  sim::metrics::Counter& retry_exhausted_metric_;
  sim::metrics::Counter& reprovisions_metric_;
  sim::metrics::Counter& packet_failovers_metric_;
  sim::metrics::Counter& rmst_scrubs_metric_;
  sim::metrics::Counter& rmst_corruptions_metric_;
  sim::metrics::Counter& relocations_metric_;
  /// Every compute brick's TGL lookups, folded into one rack view (each
  /// TGL keeps its own hits()/misses()).
  sim::metrics::Counter& tgl_hits_metric_;
  sim::metrics::Counter& tgl_misses_metric_;

  std::optional<Attachment> attach_impl(const AttachRequest& request, sim::Time now);
  /// The pair's link, wired on demand: the existing link when there is
  /// one, else `lanes` backplane lanes (same tray and `prefer_electrical`),
  /// else `lanes` optical circuits (all or none), else — when
  /// `allow_packet` and the packet substrate reaches both bricks — a
  /// packet link. Records each shortfall in last_error_. Null => nothing
  /// was wired.
  Link* acquire_link(hw::BrickId compute, hw::BrickId membrick, std::size_t lanes,
                     std::size_t hops, double fiber_m, bool prefer_electrical, bool allow_packet);
  /// Wires up to `lanes` optical circuits between the pair, stopping at the
  /// first shortfall (recorded in last_error_). Returns the lanes wired.
  std::vector<Lane> wire_optical(hw::BrickId compute, hw::BrickId membrick, std::size_t lanes,
                                 std::size_t hops, double fiber_m);
  /// Programs packet lookup tables between `link`'s pair (Section III) and
  /// makes it a packet link with a fresh id.
  void program_packet(Link& link);
  /// Frees both brick ports of every live lane of `link` and tears its
  /// optical circuits. Returns whether any lane was live.
  bool tear_lanes(const Link& link);
  /// Tears every live lane of link `id` (brick ports, optical circuits) and
  /// drops the record, occupancy included, once no attachment rides it.
  /// Returns whether any lane was live.
  bool release_link(hw::CircuitId id);
  /// release_link() once the last attachment has left link `id`.
  void release_if_unused(hw::CircuitId id);
  /// Replaces link `old_id` by `fresh` (same pair): every rider and its RMST
  /// entry moves over with its window untouched, then the old link goes.
  void rewire(hw::CircuitId old_id, Link fresh, sim::Time now);
  /// Copies the link-owned fields into `a` (it now rides `link`).
  static void ride(Attachment& a, const Link& link);
  Transaction execute(TransactionKind kind, hw::BrickId compute, std::uint64_t address,
                      std::uint32_t bytes, sim::Time when, const sim::TraceContext& parent);
  Transaction execute_path(TransactionKind kind, hw::BrickId compute, std::uint64_t address,
                           std::uint32_t bytes, sim::Time when, const sim::TraceContext& ctx);
  // resolve(), stage_terms() and price() are shared by execute_path() and
  // stream(); they are inline (defined in remote_memory.cpp only) so that
  // neither caller pays a call for the split.

  /// transact()'s held path: prices the transaction from `slot` (re-resolved
  /// first when stale), sets `done` to its completion time and returns
  /// true, or returns false — with nothing charged or counted — when the
  /// address does not resolve to a healthy circuit path or the link is a
  /// packet link. Not inline: inlined into transact(), it made
  /// `BM_DmaSteadyStateAllocs/4096` ~8% slower (GCC 12, -O3, x86-64). A
  /// flag and an out-param, not std::optional<sim::Time>: GCC 12 built the
  /// optional with two narrow stores and read it back with one wide load,
  /// which stalled on store forwarding in every held transaction.
  bool stream(HeldRoute::Slot& slot, TransactionKind kind, hw::BrickId compute,
              std::uint64_t address, std::uint32_t bytes, sim::Time when, sim::Time& done);

  /// Resolves `match` (the TGL's RMST match for an address of `compute`)
  /// to the dMEMBRICK, backing segment, link and live circuit behind it.
  /// Returns the first failure, kOk when `route` is complete. Counts
  /// nothing; the caller charges the TGL.
  inline TransactionStatus resolve(hw::BrickId compute,
                                   const std::optional<hw::TglRoute>& match, Route& route);
  /// The stage terms of `route`, a circuit route (electrical or optical:
  /// a packet link has no circuit to read). Lays out the dMEMBRICK's
  /// controller slots on its first transaction.
  inline StageTerms stage_terms(TransactionKind kind, const Route& route, std::uint32_t bytes);
  /// Prices one circuit transaction entering the link at `t` (after the
  /// TGL lookup): applies and advances the link's and the controller's
  /// busy-until.
  inline Priced price(const Route& route, const StageTerms& terms, sim::Time t);
  /// Audit cross-check: a fresh resolve of `address` equals the held route,
  /// and fresh stage terms equal the held ones.
  void check_held_route(const HeldRoute::Slot& slot, TransactionKind kind,
                        std::uint64_t address);
  /// The first of `membrick`'s controller slots in controller_busy_until_,
  /// laid out on the brick's first call.
  std::uint32_t controller_slots(const hw::MemoryBrick& membrick);
  sim::Time serialization_time(std::uint32_t bytes, LinkMedium medium,
                               std::size_t lanes) const;
  const Attachment* find_attachment(hw::BrickId compute, std::uint64_t address) const;
  /// The attachment of `segment` to `compute`, or attachments_.end().
  std::vector<Attachment>::iterator find_attachment(hw::BrickId compute, hw::SegmentId segment);
  Link* find_link(hw::CircuitId id);
  const Link* find_link(hw::CircuitId id) const;
  /// The link that bonds `circuit` as one of its lanes, if any.
  Link* link_with_lane(hw::CircuitId circuit);
  bool has_rider(hw::CircuitId id) const;
  bool packet_reachable(hw::BrickId compute, hw::BrickId membrick) const;
  std::size_t count_links(LinkMedium medium) const;
  bool same_tray(hw::BrickId a, hw::BrickId b) const;
};

}  // namespace dredbox::memsys
