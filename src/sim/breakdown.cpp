#include "sim/breakdown.hpp"

#include <algorithm>

#include "sim/contract.hpp"
#include "sim/format.hpp"

namespace dredbox::sim {

// dredbox-lint: hot-path-begin — charge()/of()/has() run a handful of
// times per op over the fixed inline arrays; only 2-byte ids move, so
// there is nothing to heap-allocate.
std::size_t Breakdown::find(ComponentId component) const {
  for (std::size_t i = 0; i < count_; ++i) {
    if (ids_[i] == component) return i;
  }
  return count_;
}

void Breakdown::charge(ComponentId component, Time amount) {
  const std::size_t i = find(component);
  if (i < count_) {
    times_[i] += amount;
    return;
  }
  append(component, amount);
}

void Breakdown::append(ComponentId component, Time amount) {
  DREDBOX_REQUIRE(find(component) == count_,
                  "Breakdown::append: component already charged — use charge()");
  DREDBOX_INVARIANT(count_ < kMaxComponents,
                    "Breakdown overflow: one op charged more than kMaxComponents "
                    "distinct components — grow kMaxComponents only if the "
                    "pipeline genuinely grew");
  ids_[count_] = component;
  times_[count_] = amount;
  ++count_;
}

Time Breakdown::total() const {
  Time sum = Time::zero();
  for (std::size_t i = 0; i < count_; ++i) sum += times_[i];
  return sum;
}

Time Breakdown::of(ComponentId component) const {
  const std::size_t i = find(component);
  return i < count_ ? times_[i] : Time::zero();
}

bool Breakdown::has(ComponentId component) const { return find(component) < count_; }
// dredbox-lint: hot-path-end

// components() builds a vector for reporting/tracing consumers — cold by
// construction, so it sits outside the hot region.
std::vector<std::pair<std::string_view, Time>> Breakdown::components() const {
  std::vector<std::pair<std::string_view, Time>> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    out.emplace_back(component_label(ids_[i]), times_[i]);
  }
  return out;
}

void Breakdown::merge(const Breakdown& other) {
  for (std::size_t i = 0; i < other.count_; ++i) charge(other.ids_[i], other.times_[i]);
}

void Breakdown::scale_all(double factor) {
  for (std::size_t i = 0; i < count_; ++i) times_[i] = scale(times_[i], factor);
}

std::string Breakdown::to_string(std::size_t bar_width) const {
  std::string out;
  const double total_ns = total().as_ns();
  std::size_t widest = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    widest = std::max(widest, component_label(ids_[i]).size());
  }
  for (std::size_t i = 0; i < count_; ++i) {
    const std::string name{component_label(ids_[i])};
    const Time t = times_[i];
    const double pct = total_ns > 0 ? 100.0 * t.as_ns() / total_ns : 0.0;
    out += strformat("  %-*s %12s  %5.1f%%  |", static_cast<int>(widest), name.c_str(),
                     t.to_string().c_str(), pct);
    const auto bar = static_cast<std::size_t>(pct / 100.0 * static_cast<double>(bar_width) + 0.5);
    out.append(bar, '#');
    out += '\n';
  }
  out += strformat("  %-*s %12s  100.0%%\n", static_cast<int>(widest), "TOTAL",
                   total().to_string().c_str());
  return out;
}

}  // namespace dredbox::sim
