#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inplace_action.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {

/// What one PartitionedKernel::run call did.
struct PartitionRunStats {
  /// Conservative barrier rounds executed.
  std::size_t rounds = 0;
  /// Events dispatched across every shard.
  std::size_t dispatched = 0;
  /// Cross-partition messages delivered into shard queues.
  std::uint64_t messages = 0;
  /// Phase-B shard entries: one per (round, shard) pair whose shard had
  /// an event at or below its cap. Shards with nothing runnable in a
  /// round are not entered, so this over `rounds` is the mean fan-out.
  std::size_t shard_runs = 0;
};

/// Conservative-lookahead partitioned event kernel (the CMB scheme in its
/// barrier-round form) over the optical spine's shape: N shards, every
/// ordered pair linked at one lookahead L (physically: the inter-rack
/// propagation delay), all run to one horizon. Each shard is a full
/// Simulator — its own EventQueue, clock and RNG — and shards exchange
/// events only through send(), which lands no earlier than L past the
/// sender's clock.
///
/// run() alternates two phases. Phase A: take each destination shard's
/// inbox, merge its messages in (time, source shard, send order) — a
/// total order that is a pure function of send history — and schedule
/// them; then bound each shard by the queue heads h_i (within the
/// horizon, else infinity). Phase B: each shard i processes events up to
///
///     cap_i = min over j != i of (reach_j + L) - 1 tick,
///     reach_j = min(h_j, min over k != j of h_k + L),
///
/// clipped to the horizon. reach_j is the earliest time shard j could
/// execute anything: its own head, or an event a message from any other
/// shard induces. An empty shard is not silent, because mail can wake it
/// and make it send. With a the earliest seed (head h1) and h2 the
/// second-earliest head, that leaves two caps: h1 + L - 1 tick for every
/// shard but a, and min(h2, h1 + L) + L - 1 tick for a. A lone shard is
/// capped at the horizon.
///
/// Cost of a round: O(shards + messages + events dispatched). The
/// effective heads — the queue head if within the horizon, else infinity
/// — sit in one flat array with a slot per shard, and only shards whose
/// head can have moved are re-keyed, each with one store: one that ran
/// with the head its Phase B left, one that got mail with the earlier of
/// its slot and the first arrival. A round makes one pass over the array
/// for a, h1 and h2, then a second that collects, in shard order, every
/// seed within h1 + L - 1 tick (a among them): no seed past it can run,
/// and every seed within it can. A shard left out of Phase B
/// would have dispatched nothing and merely moved its clock, which
/// nothing reads before the final alignment to the horizon. Audit builds
/// check every round against the full O(n^2) scan above.
///
/// Both phases run on the calling thread. Waking a worker pool costs
/// about 7.5 us a round on a shared 4-vCPU host, while a row-16rack round
/// runs ~2.8 shards of ~0.4 us each, and pooled rounds lost to inline
/// ones even at 64 one-event shards (36 us against 13.7 us). Until rounds
/// carry enough work to repay a wake, a pool would only make more threads
/// lose to one.
///
/// Determinism: the rounds — and therefore the exact points where
/// messages enter each queue, the per-queue sequence numbers they draw,
/// and every tie-break — are a function of (shard states, horizon) only,
/// so two runs from equal states yield one schedule, which the digest
/// tests then verify end to end.
class PartitionedKernel {
 public:
  /// Throws std::invalid_argument unless `lookahead` is strictly positive.
  explicit PartitionedKernel(Time lookahead);
  ~PartitionedKernel();
  PartitionedKernel(const PartitionedKernel&) = delete;
  PartitionedKernel& operator=(const PartitionedKernel&) = delete;

  /// Registers a shard; returns its index. The Simulator must outlive the
  /// kernel. All shards must be added before the first run().
  std::size_t add_shard(Simulator& sim);

  /// Sender-side: deliver `action` into shard `to` at `when`. Must be
  /// called from shard `from`'s execution context (one of its events, or
  /// wiring code outside run()) with `when >= now(from) + lookahead()` —
  /// the contract the caps rest on, checked on every send. Throws
  /// std::invalid_argument on an out-of-range or self pair.
  void send(std::size_t from, std::size_t to, Time when, InplaceAction action,
            const char* label = nullptr);

  std::size_t shards() const { return shards_.size(); }
  Time lookahead() const { return lookahead_; }

  /// Advances every shard to `horizon` (all its events with t <= horizon
  /// dispatched, clock left at the horizon) in conservative rounds. May be
  /// called again with a later horizon.
  PartitionRunStats run(Time horizon);

 private:
  /// One timestamped event crossing a partition boundary: deliver
  /// `action` into the destination shard's queue at `when`. `seq` is the
  /// message's place in its inbox, so among one source's messages it is
  /// their send order: the tie-break that keeps FIFO-within-timestamp
  /// intact across the cut. `from` is the second key, so two sources
  /// landing on one tick merge in a fixed order.
  struct Message {
    Time when;
    std::uint32_t from = 0;
    std::uint32_t seq = 0;
    InplaceAction action;
    const char* label = nullptr;
  };

  /// Phase A delivery: merges and schedules every non-empty inbox and
  /// re-keys its shard's head. Returns messages delivered.
  std::uint64_t deliver_mail(Time horizon);
  /// Resets the per-run state and reads every shard's head afresh.
  void prepare_run(Time horizon);
  /// Audit: the round's caps and runnable set equal the full O(n^2) scan's.
  void check_round(Time horizon) const;
  /// The cap the current round gives shard i.
  Time cap(std::size_t shard) const { return shard == root_ ? root_cap_ : cap_; }

  const Time lookahead_;
  std::vector<Simulator*> shards_;

  /// One inbox per destination shard, in send order.
  std::vector<std::vector<Message>> inbox_;
  /// Destinations whose inbox went non-empty since the last delivery.
  std::vector<std::size_t> mailed_;

  // The per-round scratch is kept across calls, so a warmed kernel runs
  // its rounds without touching the heap.
  /// Each shard's effective head: its queue head if within the horizon,
  /// else infinity.
  std::vector<Time> heads_;
  /// The current round: the earliest seed, its cap, every other cap.
  std::size_t root_ = 0;
  Time root_cap_;
  Time cap_;
  std::vector<std::size_t> runnable_;
};

}  // namespace dredbox::sim
