#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/brick.hpp"
#include "hw/ids.hpp"

namespace dredbox::hw {

/// Memory module technology behind a dMEMBRICK controller. The glue logic
/// interfaces both through the same AXI interconnect (Section II), so both
/// are first-class here; they differ in access latency and bandwidth
/// (modelled in memsys).
enum class MemoryTechnology : std::uint8_t { kDdr4, kHmc };

std::string to_string(MemoryTechnology tech);

/// Configuration of a dMEMBRICK (Fig. 4). A brick is dimensioned by memory
/// size and by the number of memory controllers it supports, and is not
/// limited to one memory technology.
struct MemoryBrickConfig {
  std::uint64_t capacity_bytes = 32ull << 30;
  std::size_t memory_controllers = 2;
  MemoryTechnology technology = MemoryTechnology::kDdr4;
  std::size_t transceiver_ports = 8;  // links: aggregate BW or partitioned
  double port_rate_gbps = 10.0;
};

/// A carved-out slice of the brick's pool, granted to one dCOMPUBRICK.
struct MemorySegment {
  SegmentId id;
  std::uint64_t base = 0;  // offset within the brick pool
  std::uint64_t size = 0;
  BrickId owner;           // consuming dCOMPUBRICK (invalid => unassigned)

  std::uint64_t end() const { return base + size; }
};

/// The memory building block: a large, flexible pool that can be
/// partitioned and (re)distributed among all processing nodes. Segment
/// allocation is first-fit over a free list with coalescing on release,
/// so long-running rack simulations do not leak address space.
class MemoryBrick : public Brick {
 public:
  MemoryBrick(BrickId id, TrayId tray, const MemoryBrickConfig& config = {});

  const MemoryBrickConfig& config() const { return config_; }

  std::uint64_t capacity_bytes() const { return config_.capacity_bytes; }
  std::uint64_t allocated_bytes() const { return allocated_bytes_; }
  std::uint64_t free_bytes() const { return config_.capacity_bytes - allocated_bytes_; }

  /// Largest single segment currently allocatable (contiguity matters:
  /// RMST entries map contiguous remote ranges).
  std::uint64_t largest_free_extent() const;

  /// Carves `size` bytes for `owner`. Returns the segment descriptor or
  /// nullopt when no contiguous extent fits.
  std::optional<MemorySegment> allocate(std::uint64_t size, BrickId owner);

  /// Releases a segment; returns false when the id is unknown.
  bool release(SegmentId segment);

  /// Re-assigns a live segment to a different consuming dCOMPUBRICK
  /// (VM migration re-points segments without moving data). Returns
  /// false when the id is unknown.
  bool reassign(SegmentId segment, BrickId new_owner);

  /// The live segment with this id, or null (valid until the next
  /// allocate/release).
  const MemorySegment* find_segment(SegmentId segment) const;
  const std::vector<MemorySegment>& segments() const { return segments_; }

  /// Bytes held by one consuming compute brick.
  std::uint64_t bytes_owned_by(BrickId owner) const;

  std::string describe_resources() const;

 private:
  struct FreeExtent {
    std::uint64_t base;
    std::uint64_t size;
  };

  MemoryBrickConfig config_;
  std::vector<MemorySegment> segments_;
  std::vector<FreeExtent> free_list_;  // sorted by base, coalesced
  std::uint64_t allocated_bytes_ = 0;
  /// Segment ids are namespaced by brick (high bits carry the brick id) so
  /// that segments from different dMEMBRICKs never collide inside one
  /// consumer's RMST.
  std::uint32_t next_segment_;

  void coalesce();
};

}  // namespace dredbox::hw
