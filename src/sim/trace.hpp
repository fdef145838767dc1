#pragma once

#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "sim/annotations.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {

/// Category of a trace event; used for filtering and as the per-track
/// grouping in the Chrome trace export (see sim/trace_export.hpp).
enum class TraceCategory : std::uint8_t {
  kOrchestration,  // SDM-C decisions, reservations
  kHotplug,        // kernel hot-add/remove
  kHypervisor,     // VM lifecycle, DIMMs, balloon
  kFabric,         // attach/detach, circuits, memory transactions
  kPower,          // power on/off, sweeps
  kMigration,      // VM moves
  kApplication,    // workload-level markers
};

std::string to_string(TraceCategory category);

/// Causal identity of one traced operation. A root context (minted by
/// Tracer::begin_trace()) starts a trace; child contexts (child_of())
/// share the trace_id and point back at their parent span, so an exported
/// timeline can be reassembled into per-operation span trees: workload op
/// -> fabric transaction -> retry/repair/failover -> completion.
///
/// Ids are minted from a splitmix64 stream seeded from the simulation
/// seed — deterministic across runs, never derived from the wall clock.
/// An all-zero context is "untraced" (valid() == false); every recording
/// API accepts it and simply leaves the event unlinked.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;

  bool valid() const { return trace_id != 0; }
  bool root() const { return valid() && parent_span_id == 0; }
};

/// One recorded event: an instant marker (duration == 0 and span == false)
/// or a timed span with optional key/value attributes, optionally carrying
/// the causal context that links it into a span tree.
struct TraceEvent {
  Time when;
  TraceCategory category;
  std::string message;
  Time duration = Time::zero();
  bool span = false;
  std::vector<std::pair<std::string, std::string>> args;
  TraceContext ctx{};

  Time end() const { return when + duration; }
};

/// Bounded in-memory event log for observing a simulated rack. Recording
/// is cheap and off by default; experiments enable it to explain *why* an
/// outcome happened (which brick was chosen, when a sweep fired, ...).
///
/// Storage is a ring buffer: once `capacity` events are held, each new
/// record overwrites the oldest in O(1) (no buffer shifting on the hot
/// path). events() iterates in recording order regardless of where the
/// ring currently wraps.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 65536;

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  /// Records an instant event. While disabled the event is dropped (and
  /// counted in dropped_while_disabled()); once the ring is full the
  /// oldest event is evicted (counted in evicted()).
  void record(Time when, TraceCategory category, std::string message);

  /// Records a completed span [begin, end] with optional attributes and an
  /// optional causal context. The same drop/evict accounting as record()
  /// applies. `end < begin` is clamped to an instant at `begin`.
  void record_span(Time begin, Time end, TraceCategory category, std::string name,
                   std::vector<std::pair<std::string, std::string>> args = {},
                   TraceContext ctx = {});

  /// Seeds the deterministic trace-id stream (call once per simulation,
  /// with the simulation seed, before any trace is minted). Without a
  /// seed the stream starts from a fixed default, still deterministic.
  void seed_trace_ids(std::uint64_t seed);

  /// Mints a root context for a new trace. Returns an invalid (all-zero)
  /// context — without consuming ids — while the tracer is disabled, so
  /// toggling tracing never perturbs anything downstream of the id stream.
  TraceContext begin_trace();

  /// Mints a child context under `parent` (same trace, fresh span id).
  /// Invalid parents and a disabled tracer both yield an invalid context.
  TraceContext child_of(const TraceContext& parent);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

  /// Total events this tracer refused to keep: records that arrived while
  /// disabled plus old events evicted by the capacity ring.
  std::size_t dropped() const { return dropped_while_disabled_ + evicted_; }
  /// Events dropped because record() ran while the tracer was disabled.
  std::size_t dropped_while_disabled() const { return dropped_while_disabled_; }
  /// Old events overwritten after the ring reached capacity.
  std::size_t evicted() const { return evicted_; }

  /// `index` counts from the oldest retained event (0) to the newest
  /// (size()-1), i.e. recording order.
  const TraceEvent& event(std::size_t index) const;

  /// Lightweight view over the retained events in recording order (an
  /// iteration adapter over the ring; no copy).
  class EventView {
   public:
    class const_iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = TraceEvent;
      using difference_type = std::ptrdiff_t;
      using pointer = const TraceEvent*;
      using reference = const TraceEvent&;

      const_iterator(const Tracer* tracer, std::size_t index)
          : tracer_{tracer}, index_{index} {}
      reference operator*() const { return tracer_->event(index_); }
      pointer operator->() const { return &tracer_->event(index_); }
      const_iterator& operator++() {
        ++index_;
        return *this;
      }
      const_iterator operator++(int) {
        const_iterator old = *this;
        ++index_;
        return old;
      }
      bool operator==(const const_iterator&) const = default;

     private:
      const Tracer* tracer_;
      std::size_t index_;
    };

    explicit EventView(const Tracer& tracer) : tracer_{&tracer} {}
    std::size_t size() const { return tracer_->size(); }
    bool empty() const { return tracer_->size() == 0; }
    const TraceEvent& operator[](std::size_t index) const { return tracer_->event(index); }
    const TraceEvent& front() const { return tracer_->event(0); }
    const TraceEvent& back() const { return tracer_->event(tracer_->size() - 1); }
    const_iterator begin() const { return const_iterator{tracer_, 0}; }
    const_iterator end() const { return const_iterator{tracer_, tracer_->size()}; }

   private:
    const Tracer* tracer_;
  };

  EventView events() const { return EventView{*this}; }

  /// Events of one category, in recording order.
  std::vector<TraceEvent> filter(TraceCategory category) const;

  /// Multi-line rendering: "[   12.5 ms] fabric: attached 2 GiB ...".
  std::string to_string() const;

  void clear();

 private:
  std::size_t capacity_;
  bool enabled_ = false;
  std::uint64_t id_state_ = 0x64726564626f78ull;  // "dredbox" default stream
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // index of the oldest retained event
  std::size_t size_ = 0;
  std::size_t dropped_while_disabled_ = 0;
  std::size_t evicted_ = 0;
  // The ring is lock-free because a Tracer belongs to one Datacenter and
  // therefore to one thread (the sweep runner's no-sharing contract); every
  // mutation asserts that in audit builds. Copies start unconfined.
  ThreadConfined confined_;

  void push(TraceEvent event);
};

}  // namespace dredbox::sim
