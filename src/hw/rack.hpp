#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hw/accel_brick.hpp"
#include "hw/brick.hpp"
#include "hw/compute_brick.hpp"
#include "hw/memory_brick.hpp"
#include "hw/power.hpp"
#include "hw/tray.hpp"

namespace dredbox::hw {

/// The rack: owner of all trays and bricks of one dReDBox deployment.
/// Construction follows the tray-level pooling of Fig. 1 — trays are added
/// first, then bricks are hot-plugged into them. The rack exposes typed
/// accessors, aggregate inventories, and first-order power accounting used
/// by the TCO study.
class Rack {
 public:
  Rack() = default;

  // --- construction ---
  TrayId add_tray(std::size_t slots = 16);

  ComputeBrick& add_compute_brick(TrayId tray, const ComputeBrickConfig& config = {});
  MemoryBrick& add_memory_brick(TrayId tray, const MemoryBrickConfig& config = {});
  AcceleratorBrick& add_accelerator_brick(TrayId tray, const AccelBrickConfig& config = {});

  /// Hot-unplugs and destroys a brick. Throws when the brick has connected
  /// ports or reserved resources (the orchestrator must drain it first).
  void remove_brick(BrickId id);

  // --- lookup ---
  bool has_brick(BrickId id) const { return find(id) != nullptr; }
  Brick& brick(BrickId id);
  const Brick& brick(BrickId id) const;

  /// Typed access; throws std::logic_error on kind mismatch.
  ComputeBrick& compute_brick(BrickId id);
  MemoryBrick& memory_brick(BrickId id);
  AcceleratorBrick& accelerator_brick(BrickId id);
  const ComputeBrick& compute_brick(BrickId id) const;
  const MemoryBrick& memory_brick(BrickId id) const;
  const AcceleratorBrick& accelerator_brick(BrickId id) const;

  Tray& tray(TrayId id);
  const Tray& tray(TrayId id) const;

  std::vector<BrickId> bricks_of_kind(BrickKind kind) const;
  std::vector<BrickId> all_bricks() const;
  std::size_t brick_count() const { return brick_count_; }
  std::size_t tray_count() const { return trays_.size(); }

  // --- aggregates (Fig. 11: resource-equivalent datacenters) ---
  std::size_t total_compute_cores() const;
  std::uint64_t total_pool_memory_bytes() const;

  // --- power (Section VI) ---
  /// Instantaneous draw of all bricks under `model`, given each brick's
  /// power state, plus the optical switch ports in use.
  double power_draw_watts(const PowerModel& model, std::size_t switch_ports_in_use = 0) const;

  std::string describe() const;

 private:
  // Indexed by id: ids come from next_brick_ (starting at 1) and are never
  // reused, so a lookup is one bounds check and one load, and every
  // rack-wide sweep (inventory, power, scheduling scans) enumerates bricks
  // in id order. Removed bricks (and the unused slot 0) are null.
  std::vector<std::unique_ptr<Brick>> bricks_;
  std::size_t brick_count_ = 0;
  std::vector<Tray> trays_;
  std::uint32_t next_brick_ = 1;
  std::uint32_t next_tray_ = 1;

  BrickId next_brick_id() { return BrickId{next_brick_++}; }
  /// The live brick with this id, or null.
  Brick* find(BrickId id) const {
    return id.value < bricks_.size() ? bricks_[id.value].get() : nullptr;
  }
  template <typename T>
  T& install(std::unique_ptr<T> brick);
  template <typename T>
  T& typed_brick(BrickId id, BrickKind expected);
};

}  // namespace dredbox::hw
