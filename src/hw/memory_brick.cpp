#include "hw/memory_brick.hpp"

#include <algorithm>
#include <stdexcept>

namespace dredbox::hw {

std::string to_string(MemoryTechnology tech) {
  switch (tech) {
    case MemoryTechnology::kDdr4:
      return "DDR4";
    case MemoryTechnology::kHmc:
      return "HMC";
  }
  return "<unknown memory technology>";
}

MemoryBrick::MemoryBrick(BrickId id, TrayId tray, const MemoryBrickConfig& config)
    : Brick{id, BrickKind::kMemory, tray, config.transceiver_ports, config.port_rate_gbps},
      config_{config},
      next_segment_{(id.value << 16) | 1u} {
  if (config.capacity_bytes == 0) {
    throw std::invalid_argument("MemoryBrick: capacity must be positive");
  }
  if (config.memory_controllers == 0) {
    throw std::invalid_argument("MemoryBrick: needs at least one memory controller");
  }
  free_list_.push_back(FreeExtent{0, config.capacity_bytes});
}

std::uint64_t MemoryBrick::largest_free_extent() const {
  std::uint64_t best = 0;
  for (const auto& e : free_list_) best = std::max(best, e.size);
  return best;
}

std::optional<MemorySegment> MemoryBrick::allocate(std::uint64_t size, BrickId owner) {
  if (size == 0) throw std::invalid_argument("MemoryBrick::allocate: zero size");
  if (failed()) return std::nullopt;  // a crashed brick carves nothing
  for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
    if (it->size < size) continue;
    MemorySegment seg;
    seg.id = SegmentId{next_segment_++};
    seg.base = it->base;
    seg.size = size;
    seg.owner = owner;
    it->base += size;
    it->size -= size;
    if (it->size == 0) free_list_.erase(it);
    segments_.push_back(seg);
    allocated_bytes_ += size;
    set_active(allocated_bytes_ > 0);
    return seg;
  }
  return std::nullopt;
}

bool MemoryBrick::release(SegmentId segment) {
  auto it = std::find_if(segments_.begin(), segments_.end(),
                         [&](const MemorySegment& s) { return s.id == segment; });
  if (it == segments_.end()) return false;
  free_list_.push_back(FreeExtent{it->base, it->size});
  allocated_bytes_ -= it->size;
  segments_.erase(it);
  coalesce();
  // Releasing a segment on a crashed (powered-off) brick is pure
  // bookkeeping — the evacuation path reclaims the lost bytes without
  // waking the brick — so only drive the power state while powered.
  if (is_powered()) set_active(allocated_bytes_ > 0);
  return true;
}

bool MemoryBrick::reassign(SegmentId segment, BrickId new_owner) {
  for (auto& s : segments_) {
    if (s.id == segment) {
      s.owner = new_owner;
      return true;
    }
  }
  return false;
}

void MemoryBrick::coalesce() {
  std::sort(free_list_.begin(), free_list_.end(),
            [](const FreeExtent& a, const FreeExtent& b) { return a.base < b.base; });
  std::vector<FreeExtent> merged;
  for (const auto& e : free_list_) {
    if (!merged.empty() && merged.back().base + merged.back().size == e.base) {
      merged.back().size += e.size;
    } else {
      merged.push_back(e);
    }
  }
  free_list_ = std::move(merged);
}

const MemorySegment* MemoryBrick::find_segment(SegmentId segment) const {
  for (const MemorySegment& s : segments_) {
    if (s.id == segment) return &s;
  }
  return nullptr;
}

std::uint64_t MemoryBrick::bytes_owned_by(BrickId owner) const {
  std::uint64_t total = 0;
  for (const auto& s : segments_) {
    if (s.owner == owner) total += s.size;
  }
  return total;
}

std::string MemoryBrick::describe_resources() const {
  return describe() + " " + to_string(config_.technology) +
         " used=" + std::to_string(allocated_bytes_ >> 20) + "MiB/" +
         std::to_string(config_.capacity_bytes >> 20) + "MiB segments=" +
         std::to_string(segments_.size());
}

}  // namespace dredbox::hw
