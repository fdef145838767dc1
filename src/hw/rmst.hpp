#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "hw/ids.hpp"

namespace dredbox::hw {

/// One entry of the Remote Memory Segment Table: a large contiguous window
/// of the compute brick's physical address space that maps onto memory
/// hosted by a remote dMEMBRICK, reachable through a specific outgoing
/// high-speed port (and hence a pre-established circuit).
struct RmstEntry {
  SegmentId segment;
  std::uint64_t base = 0;   // brick-local physical base address
  std::uint64_t size = 0;   // bytes; entries identify *large* segments
  BrickId dest_brick;       // hosting dMEMBRICK
  std::uint64_t dest_base = 0;  // offset within the dMEMBRICK's pool
  PortId out_port{};        // outgoing GTH port on the compute brick
  CircuitId circuit{};      // circuit set up by orchestration

  bool contains(std::uint64_t addr) const { return addr >= base && addr - base < size; }
};

/// True when a window of `size` bytes starting at `base` fits the 64-bit
/// address space end-exclusively: base + size <= 2^64. A window ending
/// exactly at the top of the address space (base + size == 2^64) is valid
/// even though the naive sum wraps to 0; only windows whose *last byte*
/// would wrap are malformed. Requires size >= 1.
constexpr bool window_fits(std::uint64_t base, std::uint64_t size) {
  return size - 1 <= UINT64_MAX - base;
}

/// Overflow-safe disjointness of two half-open windows. Never computes
/// base + size, so windows ending exactly at the top of the address space
/// compare correctly. Requires both sizes >= 1.
constexpr bool windows_disjoint(std::uint64_t a_base, std::uint64_t a_size,
                                std::uint64_t b_base, std::uint64_t b_size) {
  return a_base < b_base ? b_base - a_base >= a_size : a_base - b_base >= b_size;
}

/// The RMST is a fully associative structure (Section II): every lookup
/// semantically compares the address against all valid entries. Capacity
/// models the limited number of comparators that fit in the PL; the
/// prototype keeps entries few and large.
///
/// The software model keeps those paper semantics but resolves lookups
/// through a base-sorted interval index (windows are disjoint, so the
/// greatest base <= addr is the only candidate — O(log n)) fronted by a
/// one-entry MRU "last hit" cache that models the TGL fast path: remote
/// traffic is heavily run-length clustered per segment, so the common
/// case costs one compare. Mutations (insert/remove/clear) rebuild the
/// index and drop the cached hit.
class Rmst {
 public:
  explicit Rmst(std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 32;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return entries_.size(); }
  bool full() const { return entries_.size() >= capacity_; }

  /// Installs an entry. Malformed entries (zero size, invalid segment id,
  /// window wrapping past the top of the address space) throw
  /// std::invalid_argument — before any state is inspected, so an invalid
  /// insert into a full table still reports the real defect. Conflicts
  /// with installed state (table full, duplicate segment id, overlapping
  /// window — hardware would mis-route) throw std::logic_error.
  void insert(const RmstEntry& entry);

  /// Removes the entry for `segment`; returns false if absent.
  bool remove(SegmentId segment);

  /// Fast-path associative match: MRU cache, then the base-sorted index.
  /// Returns a pointer into the table (no copy) that stays valid until
  /// the next mutation, or nullptr when no window covers `addr`.
  const RmstEntry* find(std::uint64_t addr) const;

  std::optional<RmstEntry> find_segment(SegmentId segment) const;

  const std::vector<RmstEntry>& entries() const { return entries_; }

  /// Total remote bytes currently mapped.
  std::uint64_t mapped_bytes() const;

  void clear();

  /// Deep consistency audit: the associativity bound holds, every window
  /// is well-formed (non-zero, non-wrapping, valid ids), no two windows
  /// overlap (overlap would mis-route in hardware), and the interval
  /// index is a base-sorted permutation of the entries. Throws
  /// ContractViolation on the first broken invariant. Wired into every
  /// mutation when built with -DDREDBOX_AUDIT=ON; callable directly in
  /// any build.
  void check_invariants() const;

 private:
  static constexpr std::uint32_t kNoEntry = UINT32_MAX;

  std::size_t capacity_;
  std::vector<RmstEntry> entries_;  // insertion order (the paper's valid-entry set)
  /// (base, position in entries_) sorted by base; lookup's O(log n) path.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> index_;
  /// Position of the last hit; kNoEntry when empty or after a mutation.
  mutable std::uint32_t mru_ = kNoEntry;

  void rebuild_index();
};

}  // namespace dredbox::hw
