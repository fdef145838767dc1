#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "hw/ids.hpp"
#include "hw/memory_brick.hpp"
#include "net/latency_config.hpp"
#include "net/mac_phy.hpp"
#include "net/packet.hpp"
#include "net/packet_switch.hpp"
#include "optics/fec.hpp"
#include "sim/metrics.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace dredbox::net {

/// End-to-end packet-switched remote-memory path (the exploratory
/// interconnection mode of Sections II-III). Bricks get an NI plus a
/// brick-level packet switch; pairs of bricks are connected over the
/// optical substrate and the forwarding lookup-tables are programmed the
/// way the orchestrator would program them at runtime.
///
/// The data-path methods walk one memory transaction through every
/// hardware stage, charging each stage's latency into the packet's
/// Breakdown — this is exactly the instrumentation behind Fig. 8.
class PacketNetwork {
 public:
  /// Binds the packet counter, the end-to-end round-trip latency
  /// histogram and the on-brick switch queueing-delay histogram (the
  /// congestion signal of the exploratory packet mode).
  explicit PacketNetwork(sim::Telemetry& telemetry, const PacketPathLatencies& latencies = {},
                         optics::FecModel fec = optics::FecModel{});

  const PacketPathLatencies& latencies() const { return latencies_; }
  const optics::FecModel& fec() const { return fec_; }

  /// Registers a brick with `pbn_ports` packet-facing ports.
  void add_brick(hw::BrickId brick, std::size_t pbn_ports = 2);
  bool has_brick(hw::BrickId brick) const { return switches_.count(brick) != 0; }

  /// Connects two bricks with a fibre of the given length and programs
  /// both lookup tables (single path, one port each way).
  void connect(hw::BrickId a, hw::BrickId b, double fiber_length_m = 10.0);

  /// True when a path between the pair has been programmed.
  bool connected(hw::BrickId a, hw::BrickId b) const;

  /// Multi-link variant: `ports` parallel links used round-robin for
  /// aggregate bandwidth (the dMEMBRICK multi-link mode of Section II).
  void connect_multipath(hw::BrickId a, hw::BrickId b, std::size_t ports,
                         double fiber_length_m = 10.0);

  PacketSwitch& switch_of(hw::BrickId brick);

  /// One remote read round trip: request out, `payload_bytes` back.
  /// `when` is the instant the APU issues the transaction. `ctx`, when
  /// valid, nests the recorded packet span under the caller's trace (the
  /// fabric passes its transaction span when a packet-substrate
  /// attachment delegates here).
  Packet remote_read(hw::BrickId src, hw::BrickId dst, std::uint64_t address,
                     std::uint32_t payload_bytes, sim::Time when,
                     hw::MemoryTechnology tech = hw::MemoryTechnology::kDdr4,
                     const sim::TraceContext& ctx = {});

  /// One remote write round trip: payload out, short ack back.
  Packet remote_write(hw::BrickId src, hw::BrickId dst, std::uint64_t address,
                      std::uint32_t payload_bytes, sim::Time when,
                      hw::MemoryTechnology tech = hw::MemoryTechnology::kDdr4,
                      const sim::TraceContext& ctx = {});

  std::uint64_t packets_sent() const { return next_packet_ - 1; }

  // --- fault model ---
  /// Congestion burst: scales the on-brick switch cost (arbitration +
  /// queueing + serialization) of every traversal by `factor` (>= 1; 1.0
  /// restores nominal service). The extra time is charged as its own
  /// "congestion" breakdown stage so Fig. 8-style reports show the burst.
  void set_congestion_factor(double factor);
  double congestion_factor() const { return congestion_factor_; }

  /// Loss burst: models `per_packet` link-layer retransmissions per
  /// traversal (deterministic mean-rate model, so faulty runs stay
  /// digest-reproducible). Each retransmission re-pays serialization plus
  /// the wire propagation. 0 restores a loss-free link.
  void set_loss_retransmissions(double per_packet);
  double loss_retransmissions() const { return loss_retransmissions_; }

 private:
  PacketPathLatencies latencies_;
  MacPhy mac_phy_;
  optics::FecModel fec_;
  std::unordered_map<hw::BrickId, std::unique_ptr<PacketSwitch>> switches_;
  std::unordered_map<hw::BrickId, std::unordered_map<hw::BrickId, double>> fiber_m_;
  std::uint64_t next_packet_ = 1;
  double congestion_factor_ = 1.0;
  double loss_retransmissions_ = 0.0;

  sim::Telemetry& telemetry_;
  sim::metrics::Counter& packets_metric_;
  sim::metrics::Counter& retransmissions_metric_;
  sim::metrics::Histogram& latency_metric_;
  sim::metrics::Histogram& queueing_metric_;
  sim::metrics::Gauge& congestion_metric_;

  sim::Time propagation(hw::BrickId a, hw::BrickId b) const;

  /// Walks one direction (src -> dst): NI/TGL inject, src on-brick switch,
  /// MAC/PHY TX (+FEC), wire, MAC/PHY RX (+FEC). Returns the arrival time
  /// at the destination's glue logic and charges `breakdown`.
  sim::Time traverse(hw::BrickId src, hw::BrickId dst, std::uint32_t bytes, sim::Time start,
                     bool from_compute, sim::Breakdown& breakdown);

  sim::Time memory_access_time(hw::MemoryTechnology tech) const;

  /// One round trip: `bytes_out` to the dMEMBRICK, its glue logic and
  /// memory access, `bytes_back` to `src`. The packet leaves as `delivered`
  /// and is counted, observed and (when tracing) recorded as a span nested
  /// under `ctx`.
  Packet round_trip(PacketType delivered, hw::BrickId src, hw::BrickId dst,
                    std::uint64_t address, std::uint32_t payload_bytes, std::uint32_t bytes_out,
                    std::uint32_t bytes_back, sim::Time when, hw::MemoryTechnology tech,
                    const sim::TraceContext& ctx);
};

}  // namespace dredbox::net
