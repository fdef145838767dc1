#include "sim/trace.hpp"

#include <stdexcept>

namespace dredbox::sim {

std::string to_string(TraceCategory category) {
  switch (category) {
    case TraceCategory::kOrchestration:
      return "orchestration";
    case TraceCategory::kHotplug:
      return "hotplug";
    case TraceCategory::kHypervisor:
      return "hypervisor";
    case TraceCategory::kFabric:
      return "fabric";
    case TraceCategory::kPower:
      return "power";
    case TraceCategory::kMigration:
      return "migration";
    case TraceCategory::kApplication:
      return "application";
  }
  return "<unknown category>";
}

Tracer::Tracer(std::size_t capacity) : capacity_{capacity} {
  if (capacity == 0) throw std::invalid_argument("Tracer: capacity must be positive");
}

void Tracer::push(TraceEvent event) {
  if (size_ < capacity_) {
    const std::size_t slot = (head_ + size_) % capacity_;
    if (slot < ring_.size()) {
      ring_[slot] = std::move(event);
    } else {
      ring_.push_back(std::move(event));
    }
    ++size_;
    return;
  }
  // Full: overwrite the oldest slot and advance the head.
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  ++evicted_;
}

void Tracer::record(Time when, TraceCategory category, std::string message) {
  confined_.assert_confined("Tracer::record");
  if (!enabled_) {
    ++dropped_while_disabled_;
    return;
  }
  push(TraceEvent{when, category, std::move(message), Time::zero(), false, {}});
}

void Tracer::record_span(Time begin, Time end, TraceCategory category, std::string name,
                         std::vector<std::pair<std::string, std::string>> args,
                         TraceContext ctx) {
  confined_.assert_confined("Tracer::record_span");
  if (!enabled_) {
    ++dropped_while_disabled_;
    return;
  }
  // end < begin is meaningless timing: clamp to an instant marker.
  const bool is_span = end >= begin;
  const Time duration = is_span ? end - begin : Time::zero();
  push(TraceEvent{begin, category, std::move(name), duration, is_span, std::move(args), ctx});
}

namespace {

/// splitmix64 step: a full-period, well-mixed 64-bit stream. Cheap enough
/// to mint per-op, and entirely separate from the simulation Rng so
/// enabling tracing never shifts a workload's random draws.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z != 0 ? z : 1;  // 0 is reserved for "untraced"
}

}  // namespace

void Tracer::seed_trace_ids(std::uint64_t seed) {
  confined_.assert_confined("Tracer::seed_trace_ids");
  // Pre-mix so seed 0 and seed 1 produce unrelated streams.
  id_state_ = seed ^ 0x64726564626f78ull;
}

TraceContext Tracer::begin_trace() {
  confined_.assert_confined("Tracer::begin_trace");
  if (!enabled_) return {};
  TraceContext ctx;
  ctx.trace_id = splitmix64(id_state_);
  ctx.span_id = splitmix64(id_state_);
  return ctx;
}

TraceContext Tracer::child_of(const TraceContext& parent) {
  confined_.assert_confined("Tracer::child_of");
  if (!enabled_ || !parent.valid()) return {};
  TraceContext ctx;
  ctx.trace_id = parent.trace_id;
  ctx.span_id = splitmix64(id_state_);
  ctx.parent_span_id = parent.span_id;
  return ctx;
}

const TraceEvent& Tracer::event(std::size_t index) const {
  if (index >= size_) throw std::out_of_range("Tracer::event: index past the retained log");
  return ring_[(head_ + index) % capacity_];
}

std::vector<TraceEvent> Tracer::filter(TraceCategory category) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events()) {
    if (e.category == category) out.push_back(e);
  }
  return out;
}

std::string Tracer::to_string() const {
  std::string out;
  for (const TraceEvent& e : events()) {
    out += "[";
    out += e.when.to_string();
    out += "] ";
    out += dredbox::sim::to_string(e.category);
    out += ": ";
    out += e.message;
    if (e.span && e.duration > Time::zero()) {
      out += " (took ";
      out += e.duration.to_string();
      out += ")";
    }
    for (const auto& [key, value] : e.args) {
      out += " ";
      out += key;
      out += "=";
      out += value;
    }
    out += "\n";
  }
  return out;
}

void Tracer::clear() {
  confined_.assert_confined("Tracer::clear");
  ring_.clear();
  head_ = 0;
  size_ = 0;
  dropped_while_disabled_ = 0;
  evicted_ = 0;
}

}  // namespace dredbox::sim
