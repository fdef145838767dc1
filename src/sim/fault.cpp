#include "sim/fault.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "sim/contract.hpp"
#include "sim/format.hpp"

namespace dredbox::sim {

namespace {

constexpr std::array<FaultKind, 10> kAllFaultKinds{
    FaultKind::kLinkFlap,        FaultKind::kInsertionLossDrift,
    FaultKind::kSwitchPortFailure, FaultKind::kCongestionBurst,
    FaultKind::kLossBurst,       FaultKind::kBrickCrash,
    FaultKind::kBrickRestart,    FaultKind::kRmstCorruption,
    FaultKind::kControllerStall, FaultKind::kSpineLinkDown,
};

/// Renders a time as "<number><unit>" using the largest unit that divides
/// the tick count exactly, so FaultEvent::to_string round-trips through
/// parse() without any floating-point drift.
std::string render_time(Time t) {
  const std::int64_t ps = t.ticks();
  if (ps % 1'000'000'000'000 == 0) return std::to_string(ps / 1'000'000'000'000) + "s";
  if (ps % 1'000'000'000 == 0) return std::to_string(ps / 1'000'000'000) + "ms";
  if (ps % 1'000'000 == 0) return std::to_string(ps / 1'000'000) + "us";
  if (ps % 1'000 == 0) return std::to_string(ps / 1'000) + "ns";
  return std::to_string(ps) + "ps";
}

[[noreturn]] void bad_token(const std::string& what, const std::string& token) {
  throw std::invalid_argument("FaultPlan::parse: " + what + ": '" + token + "'");
}

Time parse_time(const std::string& token) {
  std::size_t suffix = token.size();
  while (suffix > 0 && std::isalpha(static_cast<unsigned char>(token[suffix - 1])) != 0) {
    --suffix;
  }
  if (suffix == 0 || suffix == token.size()) bad_token("time needs <number><unit>", token);
  const std::string number = token.substr(0, suffix);
  const std::string unit = token.substr(suffix);
  char* end = nullptr;
  const double value = std::strtod(number.c_str(), &end);
  if (end == nullptr || *end != '\0' || value < 0.0) bad_token("bad time value", token);
  if (unit == "ps") return Time::ps(static_cast<std::int64_t>(value + 0.5));
  if (unit == "ns") return Time::ns(value);
  if (unit == "us") return Time::us(value);
  if (unit == "ms") return Time::ms(value);
  if (unit == "s") return Time::sec(value);
  bad_token("unknown time unit (use ps/ns/us/ms/s)", token);
}

std::string trimmed(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\n");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t\n");
  return s.substr(b, e - b + 1);
}

FaultEvent parse_event(const std::string& token) {
  const std::size_t at_pos = token.find('@');
  if (at_pos == std::string::npos) bad_token("event needs <kind>@<time>", token);

  FaultEvent event;
  const auto kind = fault_kind_from_string(token.substr(0, at_pos));
  if (!kind) bad_token("unknown fault kind", token.substr(0, at_pos));
  event.kind = *kind;

  std::string rest = token.substr(at_pos + 1);
  std::string keys;
  if (const std::size_t colon = rest.find(':'); colon != std::string::npos) {
    keys = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }
  if (const std::size_t plus = rest.find('+'); plus != std::string::npos) {
    event.duration = parse_time(rest.substr(plus + 1));
    rest = rest.substr(0, plus);
  }
  event.at = parse_time(rest);

  while (!keys.empty()) {
    std::string kv = keys;
    if (const std::size_t comma = keys.find(','); comma != std::string::npos) {
      kv = keys.substr(0, comma);
      keys = keys.substr(comma + 1);
    } else {
      keys.clear();
    }
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) bad_token("key needs key=value", kv);
    const std::string key = kv.substr(0, eq);
    const std::string value = kv.substr(eq + 1);
    char* end = nullptr;
    if (key == "target") {
      event.target = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "aux") {
      event.aux = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "magnitude") {
      event.magnitude = std::strtod(value.c_str(), &end);
    } else {
      bad_token("unknown key (use target/aux/magnitude)", kv);
    }
    if (end == nullptr || *end != '\0' || value.empty()) bad_token("bad value", kv);
  }
  return event;
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkFlap:
      return "link-flap";
    case FaultKind::kInsertionLossDrift:
      return "loss-drift";
    case FaultKind::kSwitchPortFailure:
      return "switch-port-failure";
    case FaultKind::kCongestionBurst:
      return "congestion";
    case FaultKind::kLossBurst:
      return "loss-burst";
    case FaultKind::kBrickCrash:
      return "brick-crash";
    case FaultKind::kBrickRestart:
      return "brick-restart";
    case FaultKind::kRmstCorruption:
      return "rmst-corruption";
    case FaultKind::kControllerStall:
      return "controller-stall";
    case FaultKind::kSpineLinkDown:
      return "spine-down";
  }
  return "<unknown fault kind>";
}

std::optional<FaultKind> fault_kind_from_string(std::string_view name) {
  for (FaultKind kind : kAllFaultKinds) {
    if (to_string(kind) == name) return kind;
  }
  return std::nullopt;
}

std::string FaultEvent::to_string() const {
  std::string out = dredbox::sim::to_string(kind) + "@" + render_time(at);
  if (duration > Time::zero()) {
    out += "+";
    out += render_time(duration);
  }
  std::string keys;
  auto append = [&keys](const std::string& kv) {
    if (!keys.empty()) keys += ",";
    keys += kv;
  };
  if (target != 0) append("target=" + std::to_string(target));
  if (aux != 0) append("aux=" + std::to_string(aux));
  if (magnitude != 0.0) append(strformat("magnitude=%.17g", magnitude));
  if (!keys.empty()) out += ":" + keys;
  return out;
}

FaultPlan& FaultPlan::add(const FaultEvent& event) {
  events_.push_back(event);
  return *this;
}

FaultPlan FaultPlan::shifted(Time offset) const {
  FaultPlan plan;
  for (FaultEvent event : events_) {
    event.at = event.at + offset;
    plan.add(event);
  }
  return plan;
}

Time FaultPlan::horizon() const {
  Time horizon;
  for (const FaultEvent& event : events_) {
    if (event.at + event.duration > horizon) horizon = event.at + event.duration;
  }
  return horizon;
}

std::string FaultPlan::to_string() const {
  std::string out;
  for (const FaultEvent& event : events_) {
    if (!out.empty()) out += ";";
    out += event.to_string();
  }
  return out;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    std::size_t end = spec.find(';', begin);
    if (end == std::string::npos) end = spec.size();
    const std::string token = trimmed(spec.substr(begin, end - begin));
    if (!token.empty()) plan.add(parse_event(token));
    begin = end + 1;
  }
  return plan;
}

FaultPlan FaultPlan::generate(Rng& rng, const GeneratorConfig& config) {
  const std::vector<double> weights(
      config.weights.begin(),
      config.weights.begin() + std::min(config.weights.size(), kAllFaultKinds.size()));

  FaultPlan plan;
  for (std::size_t i = 0; i < config.events; ++i) {
    FaultEvent event;
    event.at = Time::ps(rng.uniform_int(0, std::max<std::int64_t>(0, config.horizon.ticks() - 1)));
    event.kind = static_cast<FaultKind>(rng.weighted_index(weights));
    switch (event.kind) {
      case FaultKind::kLinkFlap:
      case FaultKind::kInsertionLossDrift:
      case FaultKind::kCongestionBurst:
      case FaultKind::kLossBurst:
      case FaultKind::kBrickCrash:
      case FaultKind::kControllerStall:
      case FaultKind::kSpineLinkDown:
        event.duration =
            Time::ps(rng.uniform_int(1, std::max<std::int64_t>(1, config.max_duration.ticks())));
        break;
      case FaultKind::kSwitchPortFailure:
      case FaultKind::kBrickRestart:
      case FaultKind::kRmstCorruption:
        break;
    }
    if (event.kind == FaultKind::kInsertionLossDrift) event.magnitude = rng.uniform(0.5, 3.0);
    if (event.kind == FaultKind::kCongestionBurst) event.magnitude = rng.uniform(2.0, 8.0);
    if (event.kind == FaultKind::kLossBurst) event.magnitude = rng.uniform(1.0, 4.0);
    plan.add(event);
  }
  // Canonical order: sorted by injection time, draw order breaking ties, so
  // to_string() reads chronologically and scheduling is insertion-ordered.
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

std::optional<FaultPlan> fault_plan_from_env() {
  // dredbox-lint: ignore[wall-clock] -- getenv reads configuration, not time.
  const char* spec = std::getenv(kFaultPlanEnv);
  if (spec == nullptr || *spec == '\0') return std::nullopt;
  return FaultPlan::parse(spec);
}

FaultInjector::FaultInjector(Simulator& sim, Telemetry& telemetry)
    : sim_{sim},
      injected_metric_{telemetry.metrics().counter("sim.faults.injected")},
      recovered_metric_{telemetry.metrics().counter("sim.faults.recovered")},
      skipped_metric_{telemetry.metrics().counter("sim.faults.skipped")},
      active_metric_{telemetry.metrics().gauge("sim.faults.active")} {}

void FaultInjector::on(FaultKind kind, Handler inject) { inject_[kind] = std::move(inject); }

void FaultInjector::on_recover(FaultKind kind, Handler recover) {
  recover_[kind] = std::move(recover);
}

std::size_t FaultInjector::schedule(const FaultPlan& plan) {
  std::size_t count = 0;
  for (const FaultEvent& event : plan.events()) {
    // Fault transitions take effect strictly *after* any operation issued
    // at the same nominal instant: skew by one tick so a fault at t never
    // ties with workload events at t. Without the skew the outcome of an
    // operation colliding with a fault's timestamp would be decided by the
    // queue's incidental FIFO tie-break — the schedule auditor
    // (sim/schedule_audit.hpp) flags exactly that. Recovery, scheduled via
    // after(duration) from the skewed injection, inherits the offset.
    const Time when = std::max(event.at, sim_.now()) + Time::ps(1);
    events_.push_back(event);
    const std::size_t index = events_.size() - 1;
    sim_.at(when, [this, index] { fire(index); }, "sim.fault.inject");
    ++scheduled_;
    ++count;
  }
  return count;
}

void FaultInjector::fire(std::size_t index) {
  // Copy out: a handler may reentrantly schedule() another plan and
  // reallocate events_ under a reference.
  const FaultEvent event = events_[index];
  auto it = inject_.find(event.kind);
  if (it == inject_.end() || !it->second) {
    ++skipped_;
    skipped_metric_.add();
    return;
  }
  ++injected_;
  injected_metric_.add();
  active_metric_.set(static_cast<double>(active()));
  it->second(event);
  if (event.duration > Time::zero() && recover_.count(event.kind) != 0) {
    sim_.after(event.duration, [this, index] { fire_recovery(index); }, "sim.fault.recover");
  }
}

void FaultInjector::fire_recovery(std::size_t index) {
  const FaultEvent event = events_[index];
  auto it = recover_.find(event.kind);
  if (it == recover_.end() || !it->second) return;
  ++recovered_;
  recovered_metric_.add();
  active_metric_.set(static_cast<double>(active()));
  it->second(event);
}

void FaultInjector::check_invariants() const {
  DREDBOX_INVARIANT(injected_ + skipped_ <= scheduled_,
                    "more faults fired (" + std::to_string(injected_ + skipped_) +
                        ") than were ever scheduled (" + std::to_string(scheduled_) + ")");
  DREDBOX_INVARIANT(recovered_ <= injected_,
                    "recoveries (" + std::to_string(recovered_) + ") exceed injections (" +
                        std::to_string(injected_) + ")");
  for (const auto& [kind, handler] : inject_) {
    DREDBOX_INVARIANT(static_cast<bool>(handler),
                      "empty inject handler registered for " + to_string(kind));
  }
  for (const auto& [kind, handler] : recover_) {
    DREDBOX_INVARIANT(static_cast<bool>(handler),
                      "empty recover handler registered for " + to_string(kind));
  }
}

}  // namespace dredbox::sim
