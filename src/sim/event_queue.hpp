#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/arena.hpp"
#include "sim/inplace_action.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {

/// Opaque handle identifying a scheduled event; usable for cancellation.
/// The value packs the event node's arena slot and generation, so stale
/// handles (fired, cancelled, or recycled events) are rejected in O(1)
/// without any hash lookup. Zero is never a valid handle.
struct EventId {
  std::uint64_t value = 0;
  constexpr auto operator<=>(const EventId&) const = default;
};

/// Specification of a same-timestamp dispatch-order perturbation — the
/// schedule auditor's probe (see sim/schedule_audit.hpp).
///
/// The queue's documented contract is FIFO-within-timestamp, but no code
/// in this repository may *rely* on that incidental order for its
/// simulation outcome: same-timestamp events must be independent (or
/// ordered through explicit timestamps). Every run dispatches through one
/// loop that serves the events tied at the earliest pending timestamp as a
/// group; an armed perturbation permutes each group of >= 2 live events
/// once, in place, as the group opens. A scenario whose canonical digest
/// survives every permutation provably does not depend on tie order.
/// kIdentity counts the groups without reordering them (it must be
/// digest-neutral) and is how the auditor counts batches for bisection.
struct SchedulePerturbation {
  enum class Mode : std::uint8_t {
    kNone,          // normal FIFO dispatch, no batch counting
    kIdentity,      // count batches, dispatch in FIFO order
    kReverse,       // dispatch each batch back-to-front
    kRotate,        // rotate each batch left by one
    kShuffle,       // seeded Fisher-Yates per batch
    kSwapAdjacent,  // swap FIFO positions (swap_position, swap_position+1)
  };

  Mode mode = Mode::kNone;
  /// Stream seed for kShuffle; each batch derives its own permutation
  /// from (seed, batch index), so shuffles are run-order independent.
  std::uint64_t seed = 1;
  /// Only batches with index in [first_batch, last_batch) are permuted
  /// (all are still counted). The auditor's bisection narrows this window
  /// to isolate the first order-sensitive batch.
  std::uint64_t first_batch = 0;
  std::uint64_t last_batch = UINT64_MAX;
  /// FIFO position swapped with its successor under kSwapAdjacent
  /// (out-of-range positions leave the batch untouched).
  std::size_t swap_position = 0;
  /// When set, the queue records this batch's composition (timestamp,
  /// FIFO labels, dispatch order) into captured_batch().
  std::optional<std::uint64_t> capture_batch;

  bool enabled() const { return mode != Mode::kNone; }
  /// Human-readable "reverse[3,4) seed=7" rendering for audit reports.
  std::string to_string() const;
};

/// Composition of one same-timestamp batch the queue opened while a
/// perturbation was armed; captured on request (capture_batch) so the
/// auditor can name the events of an order-sensitive batch.
struct ScheduleBatchRecord {
  std::uint64_t index = 0;
  Time when;
  /// Event labels in FIFO (scheduling) order; "(unlabeled)" when the
  /// schedule site passed no label.
  std::vector<std::string> fifo_labels;
  /// dispatch_order[k] is the FIFO position dispatched k-th.
  std::vector<std::size_t> dispatch_order;
};

/// Environment variable that, when set (to anything non-empty), asks the
/// top-level entry points (ScenarioBuilder, examples) to turn on the
/// event-kernel self-profiler. The queue itself never reads the
/// environment — tests flip profiling explicitly.
inline constexpr const char* kProfileEnv = "DREDBOX_PROFILE";

/// One row of the event-kernel self-profile: how many events of one label
/// dispatched and how much *host* time their actions consumed. Host time
/// is wall-clock measurement of this process and is therefore not part of
/// any determinism contract — it exists to locate the per-event kernel
/// overhead (ROADMAP item 1), not to feed digests.
struct KernelProfileEntry {
  std::string label;
  std::uint64_t dispatches = 0;
  double host_ns = 0.0;

  double ns_per_dispatch() const {
    return dispatches > 0 ? host_ns / static_cast<double>(dispatches) : 0.0;
  }
};

/// Snapshot of the calendar geometry and its lifetime counters, exposed
/// for the bucket-boundary regression tests and the kernel profile. All
/// values describe physical layout only — none of them may influence a
/// simulation outcome.
struct CalendarStats {
  std::int64_t window_start_ps = 0;   // first tick covered by bucket 0
  std::int64_t window_last_ps = 0;    // last tick covered by the window (inclusive)
  std::int64_t bucket_width_ps = 0;   // day length (power of two; INT64_MAX for 2^63)
  std::size_t buckets = 0;            // bucket count (power of two)
  std::size_t cursor = 0;             // next bucket index to be serviced
  std::size_t in_overflow = 0;        // nodes parked on the ladder rung
  std::size_t in_drain = 0;           // nodes in the loaded (sorted) bucket
  std::uint64_t rebuilds = 0;         // ladder refills (window re-spans)
  std::uint64_t bucket_loads = 0;     // buckets sorted into the drain
};

/// Deterministic discrete-event queue — a calendar queue with an overflow
/// ladder rung, backed by a fixed-block arena (sim/arena.hpp).
///
/// Events scheduled for the same timestamp fire in scheduling order
/// (FIFO tie-break on a monotonically increasing sequence number), which
/// makes every simulation in this repository bit-reproducible for a fixed
/// seed regardless of queue internals. The binary-heap implementation this
/// kernel replaced is retained, verbatim, as the differential test oracle
/// (tests/sim/reference_event_queue.hpp): a randomized operation-sequence
/// harness asserts dispatch-stream equality between the two across
/// adversarial tie/boundary/cancel interleavings.
///
/// Geometry: the "year" [window_start, window_last] is split into
/// power-of-two-width day buckets; an event lands in its day's unsorted
/// chain in O(1). Events past the year go to an unsorted overflow rung;
/// when the year is exhausted the window re-spans from the overflow. The
/// days are sized from the spacing of the nearest events (far timers stay
/// on the rung) for one day per live event, so a day holds O(1) events,
/// and the year holds four times that many days, so the events actions
/// schedule over the next stretch of think time land in a day rather than
/// on the rung. A day is sorted once when the cursor reaches it, into a
/// descending "drain" serviced back-to-front — so a whole same-timestamp
/// tie-batch is dispatched without re-touching the priority structure,
/// and events an action schedules into the open day merge by an insertion
/// step from the tail.
///
/// Cancellation is O(1): the handle's slot+generation resolve to the
/// node, which is flagged and reclaimed lazily when its bucket is
/// serviced (or its rung re-spanned).
///
/// Event lifetime: schedule() relocates the action once, into its node.
/// Dispatch runs the action in place — the node stays arena-live, in no
/// bucket, drain or rung, while it runs — and retires the node's
/// handle before the action starts. When the action returns (or throws)
/// the node is freed, unless the action called rearm(): a self-
/// rescheduling chain (a DMA chunk train, a VM's issue loop) is then one
/// node for its whole life instead of one build, move and free per step.
class EventQueue {
 public:
  /// Inline-storage callable (sim/inplace_action.hpp): scheduling an event
  /// never heap-allocates for the capture list, and a capture list too
  /// large for the 48-byte inline budget is a compile error at the
  /// schedule site rather than a silent allocation.
  using Action = InplaceAction;

  EventQueue();

  /// Schedules `action` at absolute time `when`. `when` must not precede
  /// the timestamp of the event currently being dispatched. `label`, when
  /// given, must be a string with static storage duration (a literal);
  /// it names the event type in the kernel self-profile.
  EventId schedule(Time when, Action&& action, const char* label = nullptr);

  /// Puts the event whose action is running back into the queue at
  /// `when`, under `label`, with the action it has. Legal only from inside
  /// that action and only once per dispatch (std::logic_error otherwise).
  /// The sequence number is drawn here and the event counts as pending at
  /// once, so the dispatch order is exactly that of schedule()-ing a fresh
  /// event at the same point. The returned handle is new: the handle the
  /// event was scheduled under went stale when it fired.
  EventId rearm(Time when, const char* label = nullptr);

  /// Cancels a pending event. Returns false if the event already fired,
  /// was cancelled before, or never existed.
  bool cancel(EventId id);

  /// True when no pending (non-cancelled) events remain.
  bool empty() const { return pending_count_ == 0; }

  std::size_t pending() const { return pending_count_; }

  /// Timestamp of the earliest pending event; Time::infinity() when empty.
  Time next_time() const;

  /// Pops and runs the earliest event. Returns false when the queue is
  /// empty. Like run() and run_until(), it refuses to run from inside an
  /// action (std::logic_error): the running node could fire again.
  bool dispatch_one();

  /// Current simulation time (timestamp of the last dispatched event).
  Time now() const { return now_; }

  /// Runs events until the queue drains or the next event is after `until`.
  /// Advances now() to `until` when it stops early. Returns the number of
  /// events dispatched.
  std::size_t run_until(Time until);

  /// Runs all events to quiescence. Returns the number dispatched.
  std::size_t run();

  /// Drops every pending event and resets time to zero. Not from inside
  /// an action (std::logic_error): the running action lives in its node,
  /// and the queue stays as it was.
  void reset();

  /// Deep consistency audit: every node is reachable exactly once from a
  /// bucket, the drain or the overflow rung, save the one node whose
  /// action is running and is not queued by a re-arm;
  /// counts agree with the arena; nothing precedes now(); buckets match
  /// their time ranges; the drain is sorted. Throws ContractViolation on
  /// the first broken invariant. Wired into every mutation when built
  /// with -DDREDBOX_AUDIT=ON; callable directly (e.g. from tests) in any
  /// build.
  void check_invariants() const;

  /// Physical-layout snapshot (window, bucket geometry, refill counters)
  /// for tests and diagnostics.
  CalendarStats calendar_stats() const;

  /// Turns the self-profiler on: every subsequent dispatch is counted per
  /// label and its action timed against the host clock. Off by default —
  /// the disabled hot path costs one branch.
  void enable_profiling() { profiling_ = true; }
  void disable_profiling() { profiling_ = false; }
  bool profiling_enabled() const { return profiling_; }

  /// Arms (or, with Mode::kNone, disarms) a schedule perturbation. Must
  /// not be called while an armed tie group is part-dispatched (throws
  /// std::logic_error) — arm before running the scenario. Resets the
  /// batch counter and any captured record. Off by default; armed or not,
  /// events dispatch through the same loop, and arming adds one step as
  /// each tie group opens. BM_EventQueuePerturbedDispatch measures that
  /// step against the disarmed loop on the same load.
  void set_perturbation(const SchedulePerturbation& perturbation);
  const SchedulePerturbation& perturbation() const { return perturb_; }

  /// Multi-event same-timestamp groups opened since the perturbation was
  /// armed (singleton groups cannot be reordered and don't count).
  std::uint64_t batches_collected() const { return batches_collected_; }

  /// The batch requested via SchedulePerturbation::capture_batch, once it
  /// has opened; nullopt before then (or when capture is unset).
  const std::optional<ScheduleBatchRecord>& captured_batch() const { return captured_; }

  /// The accumulated self-profile, one row per distinct label (unlabeled
  /// events fold into "(unlabeled)"), sorted by label for deterministic
  /// iteration. Empty when profiling never ran.
  std::vector<KernelProfileEntry> kernel_profile() const;

  /// Human-readable profile table sorted by total host time descending.
  std::string profile_to_string() const;

 private:
  /// One scheduled event. Pool-allocated; chained intrusively through a
  /// day bucket or the overflow rung until its day is serviced.
  struct Node {
    Node(Time w, std::uint64_t s, Action&& a, const char* l)
        : when{w}, seq{s}, action{std::move(a)}, label{l} {}

    Time when;
    std::uint64_t seq;
    Node* next = nullptr;
    Action action;
    const char* label;
    std::uint32_t slot = 0;    // arena slot backing this node
    bool cancelled = false;    // flagged by cancel(); reclaimed lazily
  };

  // --- placement (every structural member is mutable because next_time()
  // lazily sorts days, reclaims cancelled nodes and re-spans the ladder:
  // those change only the physical representation, never the observable
  // pending set or timestamps, so they are logically const) ---

  void insert_node(Node* node) const;
  /// Sort key + node for the open day: the drain is sorted and peeked
  /// through these 24-byte entries so ordering never chases node pointers.
  struct DrainEntry {
    Time when;
    std::uint64_t seq;
    Node* node;
  };

  /// Binary-inserts into the open day's descending drain.
  void drain_insert(Node* node) const;
  /// Returns the loaded day's nodes to their bucket (physical move only);
  /// used when a schedule rewinds the cursor to an earlier day.
  void flush_drain() const;
  /// Advances the cursor to the next non-empty day and sorts it into the
  /// drain; re-spans the window from the overflow rung when the year is
  /// exhausted. Postcondition: drain tail is a live node, or the queue
  /// holds no nodes at all.
  void ensure_drain() const;
  void load_bucket(std::size_t index) const;
  void rebuild_from_overflow() const;

  std::size_t bucket_index(std::int64_t ticks) const {
    return static_cast<std::size_t>((ticks - win_start_) >> bucket_shift_);
  }

  void bucket_prepend(std::size_t index, Node* node) const {
    Node*& head = buckets_[index];
    if (head == nullptr) occupancy_[index >> 6] |= std::uint64_t{1} << (index & 63);
    node->next = head;
    head = node;
  }

  /// First non-empty bucket at or after `from`; buckets_.size() when none.
  std::size_t next_occupied(std::size_t from) const;

  /// Destroys a node and returns its block to the pool.
  void free_node(Node* node) const;
  /// free_node for a node that was cancelled (keeps the count honest).
  /// The running action's own node, re-armed then cancelled, is only
  /// dropped from the queue; fire_node frees it when the action returns.
  void reclaim_cancelled(Node* node) const;

  /// Fires `node` (already unlinked and uncounted): retires its handle,
  /// runs its action in place with profiling attribution, then frees it
  /// unless the action re-armed it — also when the action throws. The
  /// action may schedule and cancel, but not reset or dispatch the queue
  /// (std::logic_error).
  void fire_node(Node* node);
  /// Throws std::logic_error when an action is running; `what` names the
  /// refused call.
  void refuse_inside_action(const char* what) const {
    if (firing_ != nullptr) [[unlikely]] throw_inside_action(what);
  }
  [[noreturn]] void throw_inside_action(const char* what) const;
  EventId handle_of(std::uint32_t slot) const {
    // slot+1 keeps every issued handle non-zero (slot 0 is a valid slot,
    // EventId{0} is the reserved null handle).
    return EventId{((static_cast<std::uint64_t>(slot) + 1) << 32) | arena_.generation(slot)};
  }

  /// The one dispatch loop, behind run(), run_until() and dispatch_one():
  /// fires the tie group at the earliest pending timestamp (when it is <=
  /// `until`), at most `limit` events of it, in one pass over the sorted
  /// drain tail. Returns the number dispatched; 0 means the queue is empty
  /// or the next event is after `until`.
  std::size_t dispatch_batch(Time until, std::size_t limit);
  /// Armed only: opens the tie group at the drain tail, or resumes the one
  /// dispatch_one() or a throwing action left part-fired, and returns the
  /// group's first later sequence number.
  std::uint64_t open_perturbed_group();
  /// True when `entry` is what is left of the last group opened while armed.
  bool in_perturbed_group(const DrainEntry& entry) const {
    return entry.when == group_when_ && entry.seq < group_end_seq_;
  }
  /// Applies the armed permutation to the just-opened group's live
  /// entries, in place, and does the batch accounting.
  void permute_group();

  mutable IndexedArena<Node> arena_;
  mutable std::vector<Node*> buckets_;   // unsorted intrusive day chains
  // One bit per bucket (bit set <=> chain non-empty), so the cursor skips
  // runs of empty days a word at a time instead of probing every chain.
  mutable std::vector<std::uint64_t> occupancy_;
  mutable Node* overflow_ = nullptr;     // unsorted ladder rung (beyond the year)
  mutable std::size_t overflow_count_ = 0;
  mutable std::vector<DrainEntry> drain_;  // open day, descending (when, seq)
  mutable std::ptrdiff_t drain_bucket_ = -1;  // day loaded into drain_; -1 none
  mutable std::size_t cursor_ = 0;       // next day to service
  mutable std::int64_t win_start_ = 0;   // tick of bucket 0 (<= now())
  mutable std::int64_t win_last_ = 0;    // last tick in the window, inclusive
  mutable int bucket_shift_ = 0;         // day width = 1 << bucket_shift_ ticks
  // Scratch for rebuild_from_overflow(): live rung nodes' distances from
  // now(). Capacity is kept, so steady-state re-spans never allocate.
  mutable std::vector<std::uint64_t> respan_distances_;
  mutable std::uint64_t rebuilds_ = 0;
  mutable std::uint64_t bucket_loads_ = 0;

  std::size_t pending_count_ = 0;        // scheduled, not fired/cancelled
  mutable std::size_t cancelled_count_ = 0;  // cancelled, not yet reclaimed
  std::uint64_t next_seq_ = 0;
  Time now_ = Time::zero();
  bool profiling_ = false;
  // The node whose action is running (null between dispatches), whether
  // that action called rearm(), and whether the re-armed node is still
  // queued (a cancelled re-arm reclaimed mid-action leaves it). Unless it
  // is queued, the node is arena-live yet in no bucket, drain or rung.
  Node* firing_ = nullptr;
  bool rearmed_ = false;
  mutable bool requeued_ = false;

  SchedulePerturbation perturb_;
  // The last tie group opened while armed: its timestamp and the first
  // sequence number issued after it opened. Entries at that timestamp with
  // a lower sequence are what is left of that group.
  Time group_when_ = Time::zero();
  std::uint64_t group_end_seq_ = 0;
  std::uint64_t batches_collected_ = 0;
  std::optional<ScheduleBatchRecord> captured_;

  struct ProfileCell {
    std::uint64_t dispatches = 0;
    double host_ns = 0.0;
  };
  /// Keyed by label pointer (labels are string literals), so a profiled
  /// dispatch neither builds nor compares a string; kernel_profile()
  /// merges pointers with equal text into one label-sorted row.
  std::unordered_map<const char*, ProfileCell> profile_;
};

}  // namespace dredbox::sim
