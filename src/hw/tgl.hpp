#pragma once

#include <cstdint>
#include <optional>

#include "hw/rmst.hpp"

namespace dredbox::hw {

/// Routing decision produced by the Transaction Glue Logic for one memory
/// transaction entering from the APU master ports. `entry` points into the
/// RMST (no copy on the hot path) and stays valid until the next RMST
/// mutation — consume the route before installing or removing segments.
struct TglRoute {
  const RmstEntry* entry = nullptr;  // matched remote segment
  std::uint64_t remote_addr = 0;     // address within the dMEMBRICK pool
};

/// Transaction Glue Logic (Section II): sits on the data path between the
/// APU master ports and the outgoing high-speed ports. For every remote
/// transaction it identifies the remote memory segment via the RMST and
/// forwards the transaction to the appropriate outgoing port, which leads
/// to a circuit already set up by orchestration.
class TransactionGlueLogic {
 public:
  explicit TransactionGlueLogic(std::size_t rmst_capacity = Rmst::kDefaultCapacity)
      : rmst_{rmst_capacity} {}

  Rmst& rmst() { return rmst_; }
  const Rmst& rmst() const { return rmst_; }

  /// Routes a brick-physical address. nullopt => address does not fall in
  /// any installed remote window (the access faults back to the APU).
  std::optional<TglRoute> route(std::uint64_t addr);

  /// The RMST match route() makes, without counting it.
  std::optional<TglRoute> match(std::uint64_t addr) const;

  /// Counts one lookup hit, as route() does for a matched address. For a
  /// caller that forwards onto an already-matched segment again (a DMA
  /// chunk train on its held route).
  void note_hit() { ++hits_; }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_counters() { hits_ = misses_ = 0; }

  /// Deep consistency audit of the glue logic and its RMST. Throws
  /// ContractViolation on the first broken invariant; audited per route()
  /// when built with -DDREDBOX_AUDIT=ON.
  void check_invariants() const;

 private:
  Rmst rmst_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace dredbox::hw
