#include "hw/rack.hpp"

#include <stdexcept>

namespace dredbox::hw {

TrayId Rack::add_tray(std::size_t slots) {
  TrayId id{next_tray_++};
  trays_.emplace_back(id, slots);
  return id;
}

Tray& Rack::tray(TrayId id) {
  for (auto& t : trays_) {
    if (t.id() == id) return t;
  }
  throw std::out_of_range("Rack::tray: unknown tray " + id.to_string());
}

const Tray& Rack::tray(TrayId id) const { return const_cast<Rack*>(this)->tray(id); }

template <typename T>
T& Rack::install(std::unique_ptr<T> brick) {
  T& ref = *brick;
  tray(ref.tray()).plug(ref.id());
  if (bricks_.size() <= ref.id().value) bricks_.resize(ref.id().value + 1);
  bricks_[ref.id().value] = std::move(brick);
  ++brick_count_;
  return ref;
}

ComputeBrick& Rack::add_compute_brick(TrayId tray_id, const ComputeBrickConfig& config) {
  const BrickId id = next_brick_id();
  return install(std::make_unique<ComputeBrick>(id, tray_id, config));
}

MemoryBrick& Rack::add_memory_brick(TrayId tray_id, const MemoryBrickConfig& config) {
  const BrickId id = next_brick_id();
  return install(std::make_unique<MemoryBrick>(id, tray_id, config));
}

AcceleratorBrick& Rack::add_accelerator_brick(TrayId tray_id, const AccelBrickConfig& config) {
  const BrickId id = next_brick_id();
  return install(std::make_unique<AcceleratorBrick>(id, tray_id, config));
}

void Rack::remove_brick(BrickId id) {
  Brick* found = find(id);
  if (found == nullptr) {
    throw std::out_of_range("Rack::remove_brick: unknown brick " + id.to_string());
  }
  Brick& b = *found;
  for (const auto& p : b.ports()) {
    if (p.connected) {
      throw std::logic_error("Rack::remove_brick: brick " + id.to_string() +
                             " has connected ports");
    }
  }
  if (b.kind() == BrickKind::kCompute && compute_brick(id).cores_in_use() > 0) {
    throw std::logic_error("Rack::remove_brick: compute brick has reserved cores");
  }
  if (b.kind() == BrickKind::kMemory && memory_brick(id).allocated_bytes() > 0) {
    throw std::logic_error("Rack::remove_brick: memory brick has live segments");
  }
  tray(b.tray()).unplug(id);
  bricks_[id.value].reset();
  --brick_count_;
}

Brick& Rack::brick(BrickId id) {
  Brick* b = find(id);
  if (b == nullptr) throw std::out_of_range("Rack::brick: unknown brick " + id.to_string());
  return *b;
}

const Brick& Rack::brick(BrickId id) const { return const_cast<Rack*>(this)->brick(id); }

template <typename T>
T& Rack::typed_brick(BrickId id, BrickKind expected) {
  Brick& b = brick(id);
  if (b.kind() != expected) {
    throw std::logic_error("Rack: brick " + id.to_string() + " is a " + to_string(b.kind()) +
                           ", expected " + to_string(expected));
  }
  return static_cast<T&>(b);
}

ComputeBrick& Rack::compute_brick(BrickId id) {
  return typed_brick<ComputeBrick>(id, BrickKind::kCompute);
}
MemoryBrick& Rack::memory_brick(BrickId id) {
  return typed_brick<MemoryBrick>(id, BrickKind::kMemory);
}
AcceleratorBrick& Rack::accelerator_brick(BrickId id) {
  return typed_brick<AcceleratorBrick>(id, BrickKind::kAccelerator);
}
const ComputeBrick& Rack::compute_brick(BrickId id) const {
  return const_cast<Rack*>(this)->compute_brick(id);
}
const MemoryBrick& Rack::memory_brick(BrickId id) const {
  return const_cast<Rack*>(this)->memory_brick(id);
}
const AcceleratorBrick& Rack::accelerator_brick(BrickId id) const {
  return const_cast<Rack*>(this)->accelerator_brick(id);
}

std::vector<BrickId> Rack::bricks_of_kind(BrickKind kind) const {
  std::vector<BrickId> out;
  for (const auto& b : bricks_) {
    if (b != nullptr && b->kind() == kind) out.push_back(b->id());
  }
  return out;
}

std::vector<BrickId> Rack::all_bricks() const {
  std::vector<BrickId> out;
  out.reserve(brick_count_);
  for (const auto& b : bricks_) {
    if (b != nullptr) out.push_back(b->id());
  }
  return out;
}

std::size_t Rack::total_compute_cores() const {
  std::size_t total = 0;
  for (const auto& b : bricks_) {
    if (b != nullptr && b->kind() == BrickKind::kCompute) {
      total += static_cast<const ComputeBrick&>(*b).apu_cores();
    }
  }
  return total;
}

std::uint64_t Rack::total_pool_memory_bytes() const {
  std::uint64_t total = 0;
  for (const auto& b : bricks_) {
    if (b != nullptr && b->kind() == BrickKind::kMemory) {
      total += static_cast<const MemoryBrick&>(*b).capacity_bytes();
    }
  }
  return total;
}

double Rack::power_draw_watts(const PowerModel& model, std::size_t switch_ports_in_use) const {
  double watts = static_cast<double>(switch_ports_in_use) * model.optical_switch_port_w;
  for (const auto& b : bricks_) {
    if (b == nullptr) continue;
    const PowerState ps = b->power_state();
    if (ps == PowerState::kOff) {
      watts += model.powered_off_w;
      continue;
    }
    const bool active = ps == PowerState::kActive;
    switch (b->kind()) {
      case BrickKind::kCompute:
        watts += active ? model.compute_brick_active_w : model.compute_brick_idle_w;
        break;
      case BrickKind::kMemory:
        watts += active ? model.memory_brick_active_w : model.memory_brick_idle_w;
        break;
      case BrickKind::kAccelerator:
        watts += active ? model.accel_brick_active_w : model.accel_brick_idle_w;
        break;
    }
  }
  return watts;
}

std::string Rack::describe() const {
  std::size_t nc = bricks_of_kind(BrickKind::kCompute).size();
  std::size_t nm = bricks_of_kind(BrickKind::kMemory).size();
  std::size_t na = bricks_of_kind(BrickKind::kAccelerator).size();
  return "rack: " + std::to_string(trays_.size()) + " trays, " + std::to_string(nc) +
         " dCOMPUBRICKs, " + std::to_string(nm) + " dMEMBRICKs, " + std::to_string(na) +
         " dACCELBRICKs, " + std::to_string(total_compute_cores()) + " cores, " +
         std::to_string(total_pool_memory_bytes() >> 30) + " GiB pooled";
}

}  // namespace dredbox::hw
