#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/annotations.hpp"
#include "sim/inplace_action.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace dredbox::sim {

class WorkerPool;

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
  std::size_t threads = 1;
};

/// Conservative-lookahead parallel event kernel (the CMB scheme in its
/// barrier-round form). Each shard is a full Simulator — its own
/// EventQueue, clock and RNG — and shards exchange events only through
/// timestamped links whose delivery lag is bounded below by the link's
/// lookahead (physically: the inter-rack propagation delay).
///
/// run() alternates two phases. Phase A, on the coordinator thread:
/// take each destination shard's inbox, merge its messages in
/// (time, link, seq) order — a total order that is a pure function of
/// send history, never of thread interleaving — and schedule them; then
/// bound each shard by the next-event times h_i. Phase B, fanned across
/// the pool: each shard i processes events strictly below
///
///     safe_i = min over incoming links (j -> i) of
///                  reach_j + lookahead(j->i)
///
/// where reach_j = min over all shards k of (h_k + dist(k, j)) is the
/// earliest time shard j could possibly execute ANYTHING — its own queue
/// head, or an event induced by a message along any path (dist is the
/// min-plus shortest lookahead distance). The transitive form matters:
/// an empty-queue shard is not silent, because a message can wake it and
/// make it send; only the path distances bound how soon. Queue heads
/// past their shard's horizon are no seed (those events don't run this
/// call), and a shard whose reach exceeds its own horizon executes
/// nothing at all this call, so it bounds nothing.
///
/// Cost of a round: O(touched * log shards + runnable + messages +
/// events dispatched) on the spine's shape, where touched counts the
/// shards that ran or received mail. Every shard's effective queue head
/// (h_i if within its horizon, else infinity) sits in a binary min-heap,
/// and only touched shards are re-keyed: one that ran with the head its
/// worker read as Phase B ended, one that got mail with the earlier of
/// its indexed head and the first arrival. The root is the earliest seed
/// a (reach_a = h_a), and the second-earliest head is one of its
/// children. Every seed but a is capped below h_a + lookahead(a -> it),
/// so the round walks only the top of the heap within that bound; a
/// itself is always runnable. On a full mesh with one lookahead L and
/// one horizon, each walked cap comes straight from the two heads:
/// h_a + L - 1 for the others, and min(h2, h_a + L) + L - 1 for a.
/// Uneven lookaheads, partial meshes and per-shard horizons still fill
/// every reach in one O(shards) pass (each reach and cap starts from the
/// earliest source's term and scans every term only when the
/// second-earliest could beat it), and their walk's bound can reach the
/// largest horizon. A shard left out of Phase B would have dispatched
/// nothing and merely moved its clock, which nothing reads before the
/// final alignment to the horizon. Audit builds check every round
/// against the full scan.
///
/// Determinism: the rounds — and therefore the exact points where
/// messages enter each queue, the per-queue sequence numbers they draw,
/// and every tie-break — are a function of (shard states, horizons)
/// only. threads=1 executes the same rounds on one thread, so the
/// parallel schedule is byte-identical to the sequential reference by
/// construction, which the digest tests then verify end to end.
class PartitionedKernel {
 public:
  PartitionedKernel();
  ~PartitionedKernel();
  PartitionedKernel(const PartitionedKernel&) = delete;
  PartitionedKernel& operator=(const PartitionedKernel&) = delete;

  /// Registers a shard; returns its index. The Simulator must outlive the
  /// kernel. All shards must be added before the first run().
  std::size_t add_shard(Simulator& sim) DREDBOX_EXCLUDES(mail_mu_);

  /// Connects `from` -> `to` with a strictly positive lookahead (the
  /// link's minimum delivery lag). Returns the link id used by send().
  std::size_t connect(std::size_t from, std::size_t to, Time lookahead)
      DREDBOX_EXCLUDES(mail_mu_);

  /// Sender-side: deliver `action` into the link's destination shard at
  /// `when`. Must be called from the sending shard's execution context
  /// (one of its events, or wiring code outside run()) with
  /// `when >= sender.now() + lookahead` — the contract the conservative
  /// horizon computation rests on, checked on every send.
  void send(std::size_t link, Time when, InplaceAction action, const char* label = nullptr)
      DREDBOX_EXCLUDES(mail_mu_);

  /// Ran on the executing thread right before a shard's parallel phase
  /// in every round that enters it (the shard index is the argument; a
  /// shard with nothing runnable that round is not entered). Hook for
  /// thread-affinity bookkeeping — the cluster uses it to re-bind each
  /// rack's thread-confined telemetry to the worker that drives it.
  void set_shard_prologue(std::function<void(std::size_t)> prologue) {
    prologue_ = std::move(prologue);
  }

  std::size_t shards() const { return shards_.size(); }
  std::size_t links() const { return links_.size(); }
  Time lookahead(std::size_t link) const;

  /// Advances shard i to horizons[i] (all its events with t <= horizon
  /// dispatched, clock left at the horizon) in conservative rounds on
  /// `threads` workers. threads=1 is the sequential reference schedule.
  ///
  /// May be called again with non-decreasing horizons, but note the
  /// finished-shard rule: a shard whose horizon passed is treated as
  /// silent, so a later call must not extend one shard's horizon past
  /// traffic a neighbor already advanced beyond. The cluster runner
  /// always passes one uniform horizon, which is trivially safe.
  PartitionRunStats run(const std::vector<Time>& horizons, std::size_t threads = 1)
      DREDBOX_EXCLUDES(mail_mu_);

 private:
  struct Link {
    std::size_t from;
    std::size_t to;
    Time lookahead;
  };
  /// One timestamped event crossing a partition boundary: deliver
  /// `action` into the destination shard's queue at `when`. `seq` is the
  /// per-link send order, the tie-break that keeps FIFO-within-timestamp
  /// intact when two messages of one link land on the same tick; `link`
  /// is the second key, so two links landing on one tick merge in a
  /// fixed order.
  struct Message {
    Time when;
    std::uint32_t link = 0;
    std::uint64_t seq = 0;
    InplaceAction action;
    const char* label = nullptr;
  };

  /// Phase A delivery: merges and schedules every non-empty inbox and
  /// re-keys its shard's head. Returns messages delivered.
  std::uint64_t deliver_mail(const std::vector<Time>& horizons) DREDBOX_EXCLUDES(mail_mu_);
  /// Rebuilds the link tables (lookaheads, all-pairs distances and their
  /// bounds); run() calls it only after shards or links were added.
  void prepare_tables();
  /// Resets the per-run state and indexes every shard's head afresh.
  void prepare_run(const std::vector<Time>& horizons);
  /// Sets shard i's head and restores the heap order around it.
  void set_head(std::size_t shard, Time key);
  /// Audit: the round's caps and runnable set equal the full O(n^2) scan's.
  void check_round(const std::vector<Time>& horizons) const;

  std::vector<Simulator*> shards_;
  std::vector<Link> links_;
  std::function<void(std::size_t)> prologue_;

  /// The mail: senders run concurrently in Phase B and only the
  /// coordinator reads in Phase A, so one lock taken once per send and
  /// once per round covers it, provably under clang -Wthread-safety.
  Mutex mail_mu_;
  /// One inbox per destination shard, in send order.
  std::vector<std::vector<Message>> inbox_ DREDBOX_GUARDED_BY(mail_mu_);
  /// Destinations whose inbox went non-empty since the last delivery.
  std::vector<std::size_t> mailed_ DREDBOX_GUARDED_BY(mail_mu_);
  /// Messages sent per link so far: the next send's seq.
  std::vector<std::uint64_t> link_sent_ DREDBOX_GUARDED_BY(mail_mu_);

  // The pool, link tables and per-round scratch are kept across calls
  // (the pool is rebuilt only when the thread count changes, the tables
  // only when the wiring changed), so a warmed kernel runs its rounds
  // without touching the heap.
  std::unique_ptr<WorkerPool> pool_;
  bool tables_stale_ = true;
  /// n x n, row = source: the smallest link lookahead j -> i, and the
  /// min-plus path distance j -> i (zero on the diagonal).
  std::vector<Time> hop_;
  std::vector<Time> dist_;
  /// Per shard: its smallest in-link lookahead, and the smallest distance
  /// from any other shard — the lower bounds that settle a round's
  /// minimums without scanning every term — and its slowest out-link,
  /// which bounds the caps the earliest seed leaves its neighbors.
  std::vector<Time> in_min_;
  std::vector<Time> near_;
  std::vector<Time> far_out_;
  /// The one lookahead of a full mesh (every ordered pair linked at it);
  /// zero for any other wiring.
  Time mesh_lookahead_ = Time::zero();
  /// The head index: a binary min-heap of (effective head, shard) — the
  /// queue head if within the shard's horizon, else infinity — and each
  /// shard's slot in it. Keys live in the heap so a sift reads one array.
  struct HeapEntry {
    Time head;
    std::uint32_t shard;
  };
  std::vector<HeapEntry> heap_;
  std::vector<std::uint32_t> slot_;
  Time head(std::size_t shard) const { return heap_[slot_[shard]].head; }
  /// Per shard: what its last Phase B left, written by the worker that
  /// ran it — the queue head at the end, and the events dispatched.
  struct Ran {
    Time head = Time::infinity();
    std::size_t events = 0;
  };
  std::vector<Ran> ran_;
  std::vector<Time> reach_;
  std::vector<Time> caps_;
  std::vector<std::size_t> runnable_;
  /// Heap slots still to visit in a round's walk.
  std::vector<std::size_t> walk_;
};

}  // namespace dredbox::sim
