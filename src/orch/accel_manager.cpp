#include "orch/accel_manager.hpp"

#include <stdexcept>

namespace dredbox::orch {

AcceleratorManager::AcceleratorManager(hw::Rack& rack, const Config& config)
    : rack_{rack}, config_{config} {
  if (config.transfer_gbps <= 0 || config.near_data_gbps <= 0) {
    throw std::invalid_argument("AcceleratorManager: rates must be positive");
  }
}

std::size_t AcceleratorManager::free_count() const {
  std::size_t n = 0;
  for (hw::BrickId id : rack_.bricks_of_kind(hw::BrickKind::kAccelerator)) {
    if (!is_reserved(id)) ++n;
  }
  return n;
}

std::optional<AccelDeployment> AcceleratorManager::deploy(hw::BrickId owner,
                                                          const hw::Bitstream& bitstream,
                                                          sim::Time now) {
  for (hw::BrickId id : rack_.bricks_of_kind(hw::BrickKind::kAccelerator)) {
    if (is_reserved(id)) continue;
    auto& accel = rack_.accelerator_brick(id);
    if (!accel.is_powered()) accel.power_on();

    AccelDeployment deployment;
    deployment.accel = id;
    deployment.bitstream = bitstream.name;
    deployment.owner = owner;

    // Middleware step (i): the remote dCOMPUBRICK pushes the bitstream.
    const sim::Time push = transfer_time(bitstream.size_bytes);
    deployment.breakdown.charge(sim::component("bitstream transfer"), push);
    accel.store_bitstream(bitstream);

    // Middleware step (ii): PL reconfiguration through the PCAP port.
    const sim::Time pcap = sim::Time::sec(accel.reconfigure(bitstream.name));
    deployment.breakdown.charge(sim::component("PCAP reconfiguration"), pcap);

    deployment.ready_at = now + push + pcap;
    reservations_[id] = owner;
    return deployment;
  }
  return std::nullopt;
}

bool AcceleratorManager::release(hw::BrickId accel) {
  if (reservations_.erase(accel) == 0) return false;
  rack_.accelerator_brick(accel).set_active(false);
  return true;
}

OffloadResult AcceleratorManager::offload(hw::BrickId accel, std::uint64_t items,
                                          std::uint64_t data_bytes, sim::Time now) {
  OffloadResult result;
  if (!is_reserved(accel)) {
    result.error = "accelerator brick " + accel.to_string() + " is not reserved";
    return result;
  }
  auto& brick = rack_.accelerator_brick(accel);
  if (brick.active_bitstream() == nullptr) {
    result.error = "no accelerator loaded in the dynamic slot";
    return result;
  }

  sim::Time t = now;
  // Descriptor out.
  const sim::Time desc = transfer_time(config_.descriptor_bytes);
  result.breakdown.charge(sim::component("descriptor transfer"), desc);
  t += desc;

  // Kernel streams the data through its near memory; whichever is slower
  // of data streaming and kernel compute bounds the phase.
  const sim::Time stream =
      sim::Time::ns(static_cast<double>(data_bytes) * 8.0 / config_.near_data_gbps);
  const sim::Time kernel = sim::Time::sec(brick.offload(items));
  const sim::Time phase = std::max(stream, kernel);
  result.breakdown.charge(sim::component("near-data processing"), phase);
  t += phase;

  // Result back.
  const sim::Time res = transfer_time(config_.result_bytes);
  result.breakdown.charge(sim::component("result transfer"), res);
  t += res;

  result.ok = true;
  result.completed_at = t;
  result.network_bytes = config_.descriptor_bytes + config_.result_bytes;
  return result;
}

bool AcceleratorManager::link_memory(hw::BrickId accel, hw::BrickId membrick,
                                     std::size_t lanes, optics::CircuitManager& circuits) {
  if (!is_reserved(accel) || lanes == 0) return false;
  if (has_memory_link(accel)) return false;
  auto& ab = rack_.accelerator_brick(accel);
  auto& mb = rack_.memory_brick(membrick);
  if (ab.free_port_count(true) < lanes || mb.free_port_count(true) < lanes) return false;

  MemoryLink link;
  link.membrick = membrick;
  for (std::size_t l = 0; l < lanes; ++l) {
    auto* ap = ab.find_free_port(true);
    auto* mp = mb.find_free_port(true);
    optics::CircuitRequest creq;
    creq.a = optics::CircuitEndpoint{accel, ap->id, -3.7, 1.2};
    creq.b = optics::CircuitEndpoint{membrick, mp->id, -3.7, 1.2};
    auto circuit = circuits.establish(creq);
    if (!circuit) {
      // Roll back the lanes wired so far.
      for (hw::CircuitId id : link.circuits) circuits.teardown(id);
      for (std::size_t i = 0; i < link.accel_ports.size(); ++i) {
        ab.port(link.accel_ports[i].value).connected = false;
        mb.port(link.mem_ports[i].value).connected = false;
      }
      return false;
    }
    ap->connected = true;
    mp->connected = true;
    link.circuits.push_back(circuit->id);
    link.accel_ports.push_back(ap->id);
    link.mem_ports.push_back(mp->id);
  }
  links_.emplace(accel, std::move(link));
  return true;
}

OffloadResult AcceleratorManager::offload_from_membrick(hw::BrickId accel,
                                                        std::uint64_t items,
                                                        std::uint64_t data_bytes,
                                                        sim::Time now) {
  OffloadResult result;
  auto it = links_.find(accel);
  if (it == links_.end()) {
    result.error = "accelerator has no direct dMEMBRICK link";
    return result;
  }
  if (!is_reserved(accel)) {
    result.error = "accelerator brick " + accel.to_string() + " is not reserved";
    return result;
  }
  auto& brick = rack_.accelerator_brick(accel);
  if (brick.active_bitstream() == nullptr) {
    result.error = "no accelerator loaded in the dynamic slot";
    return result;
  }

  sim::Time t = now;
  const sim::Time desc = transfer_time(config_.descriptor_bytes);
  result.breakdown.charge(sim::component("descriptor transfer"), desc);
  t += desc;

  // Data streams over the bonded direct circuits at line rate x lanes;
  // the kernel bounds the phase when it is the slower side.
  const double lane_gbps = config_.transfer_gbps * static_cast<double>(it->second.lanes());
  const sim::Time stream = sim::Time::ns(static_cast<double>(data_bytes) * 8.0 / lane_gbps);
  const sim::Time kernel = sim::Time::sec(brick.offload(items));
  const sim::Time phase = std::max(stream, kernel);
  result.breakdown.charge(sim::component("stream from dMEMBRICK"), phase);
  t += phase;

  const sim::Time res = transfer_time(config_.result_bytes);
  result.breakdown.charge(sim::component("result transfer"), res);
  t += res;

  result.ok = true;
  result.completed_at = t;
  // Data moved accel<->membrick over dedicated circuits; the *shared*
  // rack network only carried the descriptor and the result.
  result.network_bytes = config_.descriptor_bytes + config_.result_bytes;
  return result;
}

bool AcceleratorManager::unlink_memory(hw::BrickId accel, optics::CircuitManager& circuits) {
  auto it = links_.find(accel);
  if (it == links_.end()) return false;
  auto& ab = rack_.accelerator_brick(accel);
  auto& mb = rack_.memory_brick(it->second.membrick);
  for (hw::CircuitId id : it->second.circuits) circuits.teardown(id);
  for (std::size_t i = 0; i < it->second.accel_ports.size(); ++i) {
    ab.port(it->second.accel_ports[i].value).connected = false;
    mb.port(it->second.mem_ports[i].value).connected = false;
  }
  links_.erase(it);
  return true;
}

OffloadResult AcceleratorManager::process_on_compute(std::uint64_t data_bytes, double cpu_gbps,
                                                     sim::Time now) const {
  OffloadResult result;
  sim::Time t = now;
  const sim::Time haul = transfer_time(data_bytes);
  result.breakdown.charge(sim::component("data transfer to dCOMPUBRICK"), haul);
  t += haul;
  const sim::Time compute = sim::Time::ns(static_cast<double>(data_bytes) * 8.0 / cpu_gbps);
  result.breakdown.charge(sim::component("CPU processing"), compute);
  t += compute;
  result.ok = true;
  result.completed_at = t;
  result.network_bytes = data_bytes;
  return result;
}

}  // namespace dredbox::orch
