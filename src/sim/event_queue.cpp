#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <map>
#include <stdexcept>

#include "sim/contract.hpp"
#include "sim/format.hpp"

namespace dredbox::sim {

namespace {

/// splitmix64 step — the same tiny deterministic stream the tracer uses
/// for ids. Perturbation shuffles must not touch the simulation's
/// sim::Rng (a shuffle that consumed simulation entropy would itself
/// perturb the run it is auditing).
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const char* mode_name(SchedulePerturbation::Mode mode) {
  switch (mode) {
    case SchedulePerturbation::Mode::kNone: return "none";
    case SchedulePerturbation::Mode::kIdentity: return "identity";
    case SchedulePerturbation::Mode::kReverse: return "reverse";
    case SchedulePerturbation::Mode::kRotate: return "rotate";
    case SchedulePerturbation::Mode::kShuffle: return "shuffle";
    case SchedulePerturbation::Mode::kSwapAdjacent: return "swap-adjacent";
  }
  return "?";
}

// Initial calendar geometry: 4096 buckets of 2^15 ps (~33 ns) cover the
// first ~134 us of sim time — wide enough that schedule-heavy micro
// workloads never re-span, narrow enough that one day holds only a
// handful of events.
constexpr std::size_t kInitialBuckets = 4096;
constexpr int kInitialShift = 15;
// Re-span bounds: days are sized for one bucket per live event, and the
// year holds kYearSpan times that many, both clamped so degenerate rungs
// (a single far-future timer / a million same-day events) stay sane.
constexpr std::size_t kMinBuckets = 64;
constexpr std::size_t kMaxBuckets = 32768;
// Days in the year per live event. Each doubling halves the re-spans;
// past 4 the saving fades and rack-dma, whose events sit close together,
// turns slower on the sparser calendar (DESIGN.md §4d has the pairs).
constexpr std::size_t kYearSpan = 4;
// Smallest rank whose mean spacing may set the day width: a tie group or
// two near now() must not shrink the days to a few ticks.
constexpr std::size_t kMinSpacingRank = 16;

}  // namespace

std::string SchedulePerturbation::to_string() const {
  std::string out = mode_name(mode);
  if (mode == Mode::kNone) return out;
  if (first_batch != 0 || last_batch != UINT64_MAX) {
    out += strformat("[%llu,", static_cast<unsigned long long>(first_batch));
    out += last_batch == UINT64_MAX
               ? "inf)"
               : strformat("%llu)", static_cast<unsigned long long>(last_batch));
  }
  if (mode == Mode::kShuffle) out += strformat(" seed=%llu", static_cast<unsigned long long>(seed));
  if (mode == Mode::kSwapAdjacent) out += strformat(" swap=%zu", swap_position);
  return out;
}

EventQueue::EventQueue()
    : buckets_(kInitialBuckets, nullptr), occupancy_(kInitialBuckets / 64, 0) {
  // Sized up front so a queue whose rung stays small never allocates at a
  // re-span; a larger rung grows it once to its working-set size.
  respan_distances_.reserve(kMinBuckets);
  bucket_shift_ = kInitialShift;
  win_last_ = (static_cast<std::int64_t>(kInitialBuckets) << kInitialShift) - 1;
}

// dredbox-lint: hot-path-begin — schedule/insert/dispatch are the event
// kernel's per-event path; nodes come from the arena and actions live in
// InplaceAction storage, so steady state never touches the heap.
EventId EventQueue::schedule(Time when, Action&& action, const char* label) {
  if (when < now_) {
    throw std::invalid_argument("EventQueue::schedule: time " + when.to_string() +
                                " precedes current time " + now_.to_string());
  }
  auto [node, slot] = arena_.create(when, next_seq_++, std::move(action), label);
  node->slot = slot;
  insert_node(node);
  ++pending_count_;
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return handle_of(slot);
}

EventId EventQueue::rearm(Time when, const char* label) {
  if (firing_ == nullptr || rearmed_) {
    throw std::logic_error(
        "EventQueue::rearm: only a running action may re-arm its own event, and only once");
  }
  if (when < now_) {
    throw std::invalid_argument("EventQueue::rearm: time " + when.to_string() +
                                " precedes current time " + now_.to_string());
  }
  // Everything schedule() would do for a fresh event at this point, on the
  // node that is already there: same sequence draw, same placement.
  Node* node = firing_;
  node->when = when;
  node->seq = next_seq_++;
  node->label = label;
  rearmed_ = true;
  requeued_ = true;
  insert_node(node);
  ++pending_count_;
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return handle_of(node->slot);
}

bool EventQueue::cancel(EventId id) {
  // O(1): unpack the handle into (slot, generation) and probe the arena.
  // Fired and previously cancelled events bumped (or will bump) their
  // slot's generation, so their handles miss; never-issued handles carry
  // a zero slot field or a generation the slot never had.
  const std::uint64_t slot_plus_1 = id.value >> 32;
  const std::uint32_t generation = static_cast<std::uint32_t>(id.value & 0xffffffffull);
  if (slot_plus_1 == 0 || generation == 0) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(slot_plus_1 - 1);
  Node* node = arena_.get(slot);
  if (node == nullptr || arena_.generation(slot) != generation || node->cancelled) return false;
  node->cancelled = true;  // the block is reclaimed lazily, at service time
  --pending_count_;
  ++cancelled_count_;
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  return true;
}

void EventQueue::insert_node(Node* node) const {
  const std::int64_t t = node->when.ticks();
  if (t > win_last_) {
    // Beyond the year: park on the overflow rung; the rung is re-spanned
    // into a fresh window in bulk once the current one exhausts.
    node->next = overflow_;
    overflow_ = node;
    ++overflow_count_;
    return;
  }
  const std::size_t index = bucket_index(t);
  if (drain_bucket_ >= 0 && index == static_cast<std::size_t>(drain_bucket_)) {
    // The open day: merge in sorted position, so an event lands at the
    // back of its tie group even while that group is being dispatched.
    drain_insert(node);
    return;
  }
  if (index < cursor_) {
    // The cursor already passed this day (the window re-spanned from
    // now(), or service ran ahead of now() through empty days). Rewind —
    // dispatched events can never be revisited because when >= now() is
    // already enforced; the open day (if any) returns to its bucket and
    // is re-sorted when the cursor comes back to it.
    if (drain_bucket_ >= 0) flush_drain();
    cursor_ = index;
  }
  bucket_prepend(index, node);
}

void EventQueue::drain_insert(Node* node) const {
  // Insertion step from the tail: the open day holds a handful of entries,
  // so shifting the smaller ones up one by one beats a binary search plus
  // a library memmove. (when, seq) is unique, so the slot is the one a
  // binary search would find.
  const DrainEntry entry{node->when, node->seq, node};
  drain_.push_back(entry);
  std::size_t i = drain_.size() - 1;
  for (; i > 0; --i) {
    const DrainEntry& below = drain_[i - 1];
    if (below.when > entry.when || (below.when == entry.when && below.seq > entry.seq)) break;
    drain_[i] = below;
  }
  drain_[i] = entry;
}

void EventQueue::flush_drain() const {
  const auto index = static_cast<std::size_t>(drain_bucket_);
  for (const DrainEntry& entry : drain_) bucket_prepend(index, entry.node);
  drain_.clear();
  drain_bucket_ = -1;
}

std::size_t EventQueue::next_occupied(std::size_t from) const {
  const std::size_t size = buckets_.size();
  if (from >= size) return size;
  std::size_t word = from >> 6;
  std::uint64_t bits = occupancy_[word] & (~std::uint64_t{0} << (from & 63));
  const std::size_t words = occupancy_.size();
  while (bits == 0) {
    if (++word == words) return size;
    bits = occupancy_[word];
  }
  return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
}

void EventQueue::ensure_drain() const {
  for (;;) {
    while (!drain_.empty() && drain_.back().node->cancelled) {
      Node* node = drain_.back().node;
      drain_.pop_back();
      reclaim_cancelled(node);
    }
    if (!drain_.empty()) return;
    drain_bucket_ = -1;
    cursor_ = next_occupied(cursor_);
    if (cursor_ == buckets_.size()) {
      if (overflow_ == nullptr) return;  // no nodes anywhere: truly empty
      rebuild_from_overflow();
      continue;
    }
    load_bucket(cursor_);
    ++cursor_;
  }
}

void EventQueue::load_bucket(std::size_t index) const {
  Node* node = buckets_[index];
  buckets_[index] = nullptr;
  occupancy_[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
  while (node != nullptr) {
    Node* next = node->next;
    if (node->cancelled) {
      reclaim_cancelled(node);
    } else {
      node->next = nullptr;
      drain_.push_back(DrainEntry{node->when, node->seq, node});
    }
    node = next;
  }
  std::sort(drain_.begin(), drain_.end(), [](const DrainEntry& a, const DrainEntry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  });
  drain_bucket_ = static_cast<std::ptrdiff_t>(index);
  ++bucket_loads_;
}

void EventQueue::rebuild_from_overflow() const {
  // Reclaim cancelled rung nodes and record each live node's distance from
  // now() (the new window start).
  Node* live = nullptr;
  std::size_t live_count = 0;
  respan_distances_.clear();
  Node* node = overflow_;
  while (node != nullptr) {
    Node* next = node->next;
    if (node->cancelled) {
      reclaim_cancelled(node);
    } else {
      node->next = live;
      live = node;
      ++live_count;
      respan_distances_.push_back(static_cast<std::uint64_t>(node->when.ticks() - now_.ticks()));
    }
    node = next;
  }
  overflow_ = nullptr;
  overflow_count_ = 0;
  if (live == nullptr) return;  // the rung was all cancellations

  // Re-span the year from now(). The window start can never sit past
  // now(), so no later schedule() — whose time is >= now() — can land
  // before bucket 0. now() itself cannot have passed any rung node: the
  // rung only becomes serviceable once every earlier (in-window) event
  // has dispatched, and run_until() stops advancing now() strictly below
  // the earliest remaining event.
  win_start_ = now_.ticks();

  // Day width from the density of the nearest events. The node of rank r
  // (0-based, by distance) sits at d_r, so d_r / (r + 1) is the mean
  // spacing of the r + 1 nearest nodes. Taking the finest such spacing
  // over the median rank and each halving rank below it (down to
  // kMinSpacingRank), rounded up to a power of two, keeps far timers — a
  // window end, a power sweep — from widening the days: they only raise
  // the spacing at ranks above the near cluster. Sizing the day to reach
  // the farthest event would let one far timer stretch the days until the
  // open day holds nearly every pending event. The days are sized for one
  // day per live node; if clamping that count cuts it short, the days widen
  // until the node that set the spacing fits in that many, so a re-span
  // always moves that node and every nearer one into the window.
  //
  // The year then holds kYearSpan times that many days, of the same
  // width. A year of one day per live node reaches about as far as the
  // nodes pending now (67 us on rack-read), and what is left of it shrinks
  // as the cursor advances, so most events an action schedules a closed
  // loop's think time ahead (exp(50 us) there) landed past it: they parked
  // on the rung and were re-filed at the next re-span. The longer year
  // files most of them straight into their day. The rest stay on the
  // rung.
  const std::size_t days = std::clamp(std::bit_ceil(live_count), kMinBuckets, kMaxBuckets);
  const std::size_t want =
      std::clamp(std::bit_ceil(live_count) * kYearSpan, kMinBuckets, kMaxBuckets);
  if (buckets_.size() != want) buckets_.assign(want, nullptr);
  occupancy_.assign(want / 64, 0);
  const auto first = respan_distances_.begin();
  std::uint64_t spacing = UINT64_MAX;
  std::uint64_t spacing_reach = 0;  // distance of the node that set `spacing`
  std::size_t above = live_count;
  for (std::size_t rank = (live_count - 1) / 2;; rank = (rank - 1) / 2) {
    std::nth_element(first, first + rank, first + above);
    const std::uint64_t reach = respan_distances_[rank];
    const std::uint64_t mean = (reach + rank) / (rank + 1);  // ceil(reach / (rank + 1))
    if (mean < spacing) {
      spacing = mean;
      spacing_reach = reach;
    }
    if (rank < 2 * kMinSpacingRank) break;
    above = rank;
  }
  int shift = spacing <= 1 ? 0 : std::bit_width(spacing - 1);
  while ((spacing_reach >> shift) >= days) ++shift;
  bucket_shift_ = shift;
  // Saturating win_last_ at the tick type's maximum is safe — when
  // want << shift overshoots INT64_MAX the buckets physically cover every
  // representable tick, so any index computed against the saturated window
  // stays in range. This is what lets a lone Time::infinity() timer
  // re-span exactly once instead of bouncing on the rung forever.
  const unsigned __int128 last = static_cast<unsigned __int128>(win_start_) +
                                 (static_cast<unsigned __int128>(want) << shift) - 1;
  win_last_ = last > static_cast<unsigned __int128>(INT64_MAX) ? INT64_MAX
                                                               : static_cast<std::int64_t>(last);
  cursor_ = 0;
  ++rebuilds_;
  while (live != nullptr) {
    Node* next = live->next;
    if (live->when.ticks() > win_last_) {
      live->next = overflow_;
      overflow_ = live;
      ++overflow_count_;
    } else {
      bucket_prepend(bucket_index(live->when.ticks()), live);
    }
    live = next;
  }
}

void EventQueue::free_node(Node* node) const { arena_.destroy(node->slot); }

void EventQueue::reclaim_cancelled(Node* node) const {
  --cancelled_count_;
  if (node == firing_) {
    // The running action re-armed its node, cancelled the re-arm, and is
    // still executing inside it: the node leaves the queue, and fire_node
    // frees it once the action returns.
    requeued_ = false;
    return;
  }
  free_node(node);
}

void EventQueue::fire_node(Node* node) {
  now_ = node->when;
  const char* label = node->label;
  // The fired handle goes stale here, as if the node were freed: a cancel
  // aimed at it misses, and a re-arm hands out a fresh one.
  arena_.bump_generation(node->slot);
  firing_ = node;
  rearmed_ = false;
  requeued_ = false;
  // Frees the node once its action is done, however it ends, unless the
  // action re-armed it and the re-arm is still queued.
  struct Release {
    EventQueue& queue;
    ~Release() {
      if (!queue.requeued_) queue.free_node(queue.firing_);
      queue.firing_ = nullptr;
    }
  } release{*this};
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  if (profiling_) {
    // Host-clock attribution for the self-profile only: the measurement
    // never reaches simulation state, digests, or scheduling decisions.
    // dredbox-lint: ignore[wall-clock]
    const auto host_begin = std::chrono::steady_clock::now();
    node->action();
    // dredbox-lint: ignore[wall-clock]
    const auto host_end = std::chrono::steady_clock::now();
    ProfileCell& cell = profile_[label];
    ++cell.dispatches;
    cell.host_ns += static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(host_end - host_begin).count());
    return;
  }
  node->action();
}

bool EventQueue::dispatch_one() {
  refuse_inside_action("dispatch_one");
  return dispatch_batch(Time::infinity(), 1) != 0;
}

Time EventQueue::next_time() const {
  ensure_drain();
  if (drain_.empty()) return Time::infinity();
  return drain_.back().when;
}

std::uint64_t EventQueue::open_perturbed_group() {
  // A group dispatch_one() or a throwing action left part-fired resumes as
  // it was permuted, uncounted.
  if (in_perturbed_group(drain_.back())) return group_end_seq_;
  group_when_ = drain_.back().when;
  group_end_seq_ = next_seq_;
  permute_group();
  return group_end_seq_;
}

void EventQueue::permute_group() {
  // The group's live entries in FIFO order: the drain is descending, so
  // FIFO runs from its tail toward its front. Cancelled entries keep their slots
  // and are skipped at fire time, as an earlier member's cancel would be.
  std::vector<std::size_t> slots;
  for (std::size_t i = drain_.size(); i > 0 && drain_[i - 1].when == group_when_; --i) {
    if (!drain_[i - 1].node->cancelled) slots.push_back(i - 1);
  }
  if (slots.size() < 2) return;  // a singleton cannot be reordered

  const std::uint64_t index = batches_collected_++;
  std::vector<std::size_t> order(slots.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (index >= perturb_.first_batch && index < perturb_.last_batch) {
    switch (perturb_.mode) {
      case SchedulePerturbation::Mode::kNone:
      case SchedulePerturbation::Mode::kIdentity:
        break;
      case SchedulePerturbation::Mode::kReverse:
        std::reverse(order.begin(), order.end());
        break;
      case SchedulePerturbation::Mode::kRotate:
        std::rotate(order.begin(), order.begin() + 1, order.end());
        break;
      case SchedulePerturbation::Mode::kShuffle: {
        // Keyed by (seed, batch index) so each batch's permutation is
        // independent of how many batches preceded it.
        std::uint64_t state = perturb_.seed ^ (index * 0x9e3779b97f4a7c15ull);
        for (std::size_t i = order.size(); i > 1; --i) {
          const std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
          std::swap(order[i - 1], order[j]);
        }
        break;
      }
      case SchedulePerturbation::Mode::kSwapAdjacent:
        if (perturb_.swap_position + 1 < order.size()) {
          std::swap(order[perturb_.swap_position], order[perturb_.swap_position + 1]);
        }
        break;
    }
  }
  std::vector<Node*> fifo(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) fifo[i] = drain_[slots[i]].node;
  if (perturb_.capture_batch && *perturb_.capture_batch == index) {
    ScheduleBatchRecord record;
    record.index = index;
    record.when = group_when_;
    record.fifo_labels.reserve(fifo.size());
    for (const Node* node : fifo) {
      record.fifo_labels.emplace_back(node->label != nullptr ? node->label : "(unlabeled)");
    }
    record.dispatch_order = order;
    captured_ = std::move(record);
  }
  // The k-th slot fires k-th: it takes FIFO entry order[k]'s node, and the
  // node takes the slot's sequence number, so the drain stays sorted and
  // every entry's key still matches its node.
  for (std::size_t k = 0; k < slots.size(); ++k) {
    DrainEntry& entry = drain_[slots[k]];
    entry.node = fifo[order[k]];
    entry.node->seq = entry.seq;
  }
}

void EventQueue::set_perturbation(const SchedulePerturbation& perturbation) {
  if (perturb_.enabled()) {
    ensure_drain();
    if (!drain_.empty() && in_perturbed_group(drain_.back())) {
      throw std::logic_error(
          "EventQueue::set_perturbation: a same-timestamp batch is mid-dispatch; "
          "arm or disarm perturbations only between runs");
    }
  }
  perturb_ = perturbation;
  batches_collected_ = 0;
  captured_.reset();
}

std::size_t EventQueue::dispatch_batch(Time until, std::size_t limit) {
  // The drain is sorted, so every event tied at the earliest timestamp
  // sits contiguously at its tail: serve the whole tie group in one pass,
  // without re-probing the calendar (ensure_drain) between events. The
  // group is what was pending at its timestamp when it opened; an event
  // scheduled mid-group (a sequence number from end_seq on) inserts
  // behind it, at its FIFO place, and opens the next group. Actions may
  // schedule and cancel freely; cancelled entries are skipped at the tail.
  ensure_drain();
  if (drain_.empty() || drain_.back().when > until) return 0;
  const Time when = drain_.back().when;
  std::uint64_t end_seq = next_seq_;
  if (perturb_.enabled()) [[unlikely]] end_seq = open_perturbed_group();
  std::size_t dispatched = 0;
  for (;;) {
    Node* node = drain_.back().node;
    drain_.pop_back();
    --pending_count_;
    fire_node(node);
    if (++dispatched == limit) return dispatched;
    while (!drain_.empty() && drain_.back().node->cancelled) {
      Node* dead = drain_.back().node;
      drain_.pop_back();
      reclaim_cancelled(dead);
    }
    if (drain_.empty() || drain_.back().when != when || drain_.back().seq >= end_seq) {
      return dispatched;
    }
  }
}

std::size_t EventQueue::run_until(Time until) {
  refuse_inside_action("run_until");
  std::size_t dispatched = 0;
  for (;;) {
    const std::size_t group = dispatch_batch(until, SIZE_MAX);
    if (group == 0) break;
    dispatched += group;
  }
  if (now_ < until && !until.is_infinite()) now_ = until;
  return dispatched;
}

std::size_t EventQueue::run() {
  refuse_inside_action("run");
  std::size_t dispatched = 0;
  for (;;) {
    const std::size_t group = dispatch_batch(Time::infinity(), SIZE_MAX);
    if (group == 0) break;
    dispatched += group;
  }
  return dispatched;
}
// dredbox-lint: hot-path-end

void EventQueue::throw_inside_action(const char* what) const {
  throw std::logic_error(std::string("EventQueue::") + what +
                         ": called from inside a running action");
}

void EventQueue::reset() {
  // The running action lives in its node: the sweep below would destroy
  // it mid-call.
  refuse_inside_action("reset");
  // Destroys every node — bucketed, drained and overflowed — in one arena
  // sweep (chunks are retained for the next run; geometry returns to the
  // initial window).
  arena_.clear();
  buckets_.assign(kInitialBuckets, nullptr);
  occupancy_.assign(kInitialBuckets / 64, 0);
  overflow_ = nullptr;
  overflow_count_ = 0;
  drain_.clear();
  drain_bucket_ = -1;
  cursor_ = 0;
  win_start_ = 0;
  bucket_shift_ = kInitialShift;
  win_last_ = (static_cast<std::int64_t>(kInitialBuckets) << kInitialShift) - 1;
  rebuilds_ = 0;
  bucket_loads_ = 0;
  pending_count_ = 0;
  cancelled_count_ = 0;
  now_ = Time::zero();
  profile_.clear();
  // The armed perturbation survives a reset (it is harness configuration,
  // not simulation state); its batch accounting does not.
  batches_collected_ = 0;
  captured_.reset();
  DREDBOX_AUDIT_INVARIANT(check_invariants());
}

CalendarStats EventQueue::calendar_stats() const {
  CalendarStats stats;
  stats.window_start_ps = win_start_;
  stats.window_last_ps = win_last_;
  // A day of 2^63 ticks (a lone Time::infinity() timer can set one) does
  // not fit the signed tick type: report it saturated, never negative.
  stats.bucket_width_ps =
      bucket_shift_ >= 63 ? INT64_MAX : static_cast<std::int64_t>(1) << bucket_shift_;
  stats.buckets = buckets_.size();
  stats.cursor = cursor_;
  stats.in_overflow = overflow_count_;
  stats.in_drain = drain_.size();
  stats.rebuilds = rebuilds_;
  stats.bucket_loads = bucket_loads_;
  return stats;
}

std::vector<KernelProfileEntry> EventQueue::kernel_profile() const {
  std::map<std::string, ProfileCell> by_text;
  // Host time only, merged into a text-keyed map: no order leaks out.
  // dredbox-lint: ignore[unordered-iteration] -- merged by text below.
  for (const auto& [label, cell] : profile_) {
    ProfileCell& row = by_text[label != nullptr ? label : "(unlabeled)"];
    row.dispatches += cell.dispatches;
    row.host_ns += cell.host_ns;
  }
  std::vector<KernelProfileEntry> out;
  out.reserve(by_text.size());
  for (const auto& [label, cell] : by_text) {
    out.push_back(KernelProfileEntry{label, cell.dispatches, cell.host_ns});
  }
  return out;
}

std::string EventQueue::profile_to_string() const {
  auto rows = kernel_profile();
  std::stable_sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.host_ns > b.host_ns;
  });
  std::string out = "event kernel profile (host time, excludes queue bookkeeping)\n";
  std::uint64_t total_dispatches = 0;
  double total_ns = 0.0;
  for (const auto& row : rows) {
    total_dispatches += row.dispatches;
    total_ns += row.host_ns;
    out += strformat("  %-32s %10llu dispatches  %10.0f ns total  %8.1f ns/event\n",
                     row.label.c_str(), (unsigned long long)row.dispatches, row.host_ns,
                     row.ns_per_dispatch());
  }
  out += strformat("  %-32s %10llu dispatches  %10.0f ns total  %8.1f ns/event", "TOTAL",
                   (unsigned long long)total_dispatches, total_ns,
                   total_dispatches > 0 ? total_ns / static_cast<double>(total_dispatches) : 0.0);
  return out;
}

void EventQueue::check_invariants() const {
  // --- geometry ---
  DREDBOX_INVARIANT(std::has_single_bit(buckets_.size()),
                    "bucket count " + std::to_string(buckets_.size()) + " is not a power of two");
  DREDBOX_INVARIANT(cursor_ <= buckets_.size(), "cursor beyond the bucket array");
  DREDBOX_INVARIANT(win_start_ <= now_.ticks(),
                    "window starts at " + std::to_string(win_start_) +
                        " after now() = " + now_.to_string());
  DREDBOX_INVARIANT(win_last_ >= win_start_, "window ends before it starts");
  DREDBOX_INVARIANT(
      drain_bucket_ == -1 || drain_bucket_ == static_cast<std::ptrdiff_t>(cursor_) - 1,
      "open day " + std::to_string(drain_bucket_) + " is not the day before cursor " +
          std::to_string(cursor_));
  DREDBOX_INVARIANT(drain_.empty() || drain_bucket_ >= 0, "drained nodes without an open day");
  DREDBOX_INVARIANT(occupancy_.size() * 64 == buckets_.size(),
                    "occupancy bitmap does not cover the bucket array");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const bool marked = (occupancy_[i >> 6] >> (i & 63)) & 1;
    DREDBOX_INVARIANT(marked == (buckets_[i] != nullptr),
                      "occupancy bit for day " + std::to_string(i) +
                          " disagrees with its chain");
  }

  // --- reachability sweep: every arena-live node is linked exactly once
  // from a day bucket, the drain or the overflow rung ---
  std::size_t live = 0;
  std::size_t cancelled = 0;
  const auto check_node = [&](const Node* node, const char* where) {
    DREDBOX_INVARIANT(node->seq < next_seq_,
                      std::string(where) + " node carries an unissued sequence");
    DREDBOX_INVARIANT(node->when >= now_, std::string(where) + " node at " +
                                              node->when.to_string() +
                                              " precedes now() = " + now_.to_string());
    if (node->cancelled) {
      ++cancelled;
    } else {
      ++live;
    }
  };
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (i < cursor_ && static_cast<std::ptrdiff_t>(i) != drain_bucket_) {
      DREDBOX_INVARIANT(buckets_[i] == nullptr,
                        "bucket " + std::to_string(i) + " behind cursor " +
                            std::to_string(cursor_) + " is not empty");
    }
    for (const Node* node = buckets_[i]; node != nullptr; node = node->next) {
      check_node(node, "bucket");
      DREDBOX_INVARIANT(node->when.ticks() <= win_last_, "bucketed node beyond the window");
      DREDBOX_INVARIANT(bucket_index(node->when.ticks()) == i,
                        "node at " + node->when.to_string() + " filed under the wrong day " +
                            std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < drain_.size(); ++i) {
    const Node* node = drain_[i].node;
    check_node(node, "drain");
    DREDBOX_INVARIANT(drain_[i].when == node->when && drain_[i].seq == node->seq,
                      "drain entry key disagrees with its node");
    DREDBOX_INVARIANT(
        bucket_index(node->when.ticks()) == static_cast<std::size_t>(drain_bucket_),
        "drained node at " + node->when.to_string() + " is outside the open day");
    if (i + 1 < drain_.size()) {
      const DrainEntry& later = drain_[i + 1];
      DREDBOX_INVARIANT(node->when > later.when ||
                            (node->when == later.when && node->seq > later.seq),
                        "drain is not sorted descending by (when, seq)");
    }
  }
  for (const Node* node = overflow_; node != nullptr; node = node->next) {
    check_node(node, "overflow");
    DREDBOX_INVARIANT(node->when.ticks() > win_last_, "overflow node inside the window");
  }
  // The firing node, unless its re-arm is queued, is live in the arena
  // and linked nowhere.
  const std::size_t firing = firing_ != nullptr && !requeued_ ? 1 : 0;

  // --- counts agree with each other and with the arena ---
  DREDBOX_INVARIANT(live == pending_count_,
                    "reachable live nodes " + std::to_string(live) + " != pending count " +
                        std::to_string(pending_count_));
  DREDBOX_INVARIANT(cancelled == cancelled_count_,
                    "reachable cancelled nodes " + std::to_string(cancelled) +
                        " != cancelled count " + std::to_string(cancelled_count_));
  DREDBOX_INVARIANT(arena_.live() == live + cancelled + firing,
                    "arena holds " + std::to_string(arena_.live()) + " nodes but " +
                        std::to_string(live + cancelled) + " are reachable and " +
                        std::to_string(firing) + " is firing");
  arena_.check_invariants();
}

}  // namespace dredbox::sim
