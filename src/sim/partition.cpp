#include "sim/partition.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/contract.hpp"
#include "sim/worker_pool.hpp"

namespace dredbox::sim {

namespace {

/// A shard's indexed head: its queue head if within the horizon, else
/// infinity (events past the horizon do not run this call).
Time seed_head(Time next, Time horizon) { return next <= horizon ? next : Time::infinity(); }

/// The cap of a shard whose earliest possible arrival is `safe`: one tick
/// short of it, and never past the horizon.
Time cap_below(Time safe, Time horizon) {
  if (!safe.is_infinite() && safe - Time::ps(1) < horizon) return safe - Time::ps(1);
  return horizon;
}

}  // namespace

PartitionedKernel::PartitionedKernel(Time lookahead) : lookahead_{lookahead} {
  if (lookahead <= Time::zero()) {
    throw std::invalid_argument(
        "PartitionedKernel: lookahead must be strictly positive (it is the conservative "
        "window; zero would serialize every round)");
  }
}

PartitionedKernel::~PartitionedKernel() = default;

std::size_t PartitionedKernel::add_shard(Simulator& sim) {
  shards_.push_back(&sim);
  MutexLock lock{mail_mu_};
  inbox_.emplace_back();
  return shards_.size() - 1;
}

void PartitionedKernel::send(std::size_t from, std::size_t to, Time when, InplaceAction action,
                             const char* label) {
  if (from >= shards_.size() || to >= shards_.size() || from == to) {
    throw std::invalid_argument("PartitionedKernel::send: needs two distinct existing shards");
  }
  // The conservative contract every cap rests on: nothing may land closer
  // than the lookahead ahead of the sender's clock. Checked on every send
  // — a violation here would not crash, it would silently decohere the
  // parallel and sequential schedules.
  DREDBOX_INVARIANT(when >= shards_[from]->now() + lookahead_,
                    "PartitionedKernel::send: delivery time is inside the lookahead window "
                    "(send later or declare a smaller lookahead)");
  MutexLock lock{mail_mu_};
  std::vector<Message>& inbox = inbox_[to];
  if (inbox.empty()) mailed_.push_back(to);
  inbox.push_back(Message{when, static_cast<std::uint32_t>(from),
                          static_cast<std::uint32_t>(inbox.size()), std::move(action), label});
}

std::uint64_t PartitionedKernel::deliver_mail(Time horizon) {
  MutexLock lock{mail_mu_};
  std::uint64_t delivered = 0;
  for (const std::size_t shard : mailed_) {
    std::vector<Message>& inbox = inbox_[shard];
    Simulator& sim = *shards_[shard];
    // Total order over incoming messages: (time, source, send order) is a
    // pure function of send history, never of worker interleaving, and the
    // send order keeps FIFO-within-timestamp across the partition cut.
    // Destinations are independent queues, so the order in which inboxes
    // are visited does not matter.
    std::sort(inbox.begin(), inbox.end(), [](const Message& a, const Message& b) {
      if (a.when != b.when) return a.when < b.when;
      if (a.from != b.from) return a.from < b.from;
      return a.seq < b.seq;
    });
    for (auto& message : inbox) {
      DREDBOX_INVARIANT(message.when >= sim.now(),
                        "PartitionedKernel: cross-partition message arrived in the "
                        "receiver's past — the lookahead contract was broken");
      sim.at(message.when, std::move(message.action), message.label);
    }
    // Only these arrivals changed the queue, so its head is the earlier
    // of the indexed head and the first arrival.
    const Time first = seed_head(inbox.front().when, horizon);
    if (first < head(shard)) set_head(shard, first);
    delivered += inbox.size();
    inbox.clear();
  }
  mailed_.clear();
  return delivered;
}

void PartitionedKernel::set_head(std::size_t shard, Time key) {
  std::size_t slot = slot_[shard];
  const Time old = heap_[slot].head;
  if (key == old) return;
  const std::size_t n = heap_.size();
  const auto place = [this](HeapEntry entry, std::size_t at) {
    heap_[at] = entry;
    slot_[entry.shard] = static_cast<std::uint32_t>(at);
  };
  if (key < old) {
    while (slot > 0 && key < heap_[(slot - 1) / 2].head) {
      place(heap_[(slot - 1) / 2], slot);
      slot = (slot - 1) / 2;
    }
  } else {
    for (std::size_t child = 2 * slot + 1; child < n; child = 2 * slot + 1) {
      if (child + 1 < n && heap_[child + 1].head < heap_[child].head) ++child;
      if (!(heap_[child].head < key)) break;
      place(heap_[child], slot);
      slot = child;
    }
  }
  place(HeapEntry{key, static_cast<std::uint32_t>(shard)}, slot);
}

void PartitionedKernel::prepare_run(Time horizon) {
  const std::size_t n = shards_.size();
  // Every queue head is read afresh: wiring code may have scheduled or
  // cancelled anything between two run() calls. Heads start infinite,
  // which any order of the heap satisfies, and are keyed in one by one.
  heap_.resize(n);
  slot_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    heap_[i] = HeapEntry{Time::infinity(), static_cast<std::uint32_t>(i)};
    slot_[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    set_head(i, seed_head(shards_[i]->queue().next_time(), horizon));
  }
  ran_.assign(n, Ran{});
  runnable_.clear();
}

void PartitionedKernel::check_round(Time horizon) const {
  const std::size_t n = shards_.size();
  // The index holds every shard's current effective head, in heap order.
  for (std::size_t i = 0; i < n; ++i) {
    const Time next = shards_[i]->queue().next_time();
    DREDBOX_INVARIANT(heap_[slot_[i]].shard == i, "PartitionedKernel: head index slots disagree");
    DREDBOX_INVARIANT(head(i) == seed_head(next, horizon),
                      "PartitionedKernel: a queue head moved without being re-keyed");
    DREDBOX_INVARIANT(slot_[i] == 0 || heap_[(slot_[i] - 1) / 2].head <= head(i),
                      "PartitionedKernel: head index out of heap order");
  }
  // The reference round over the mesh: every reach over every other
  // shard's head, every cap over every other shard's reach, and the
  // runnable set in shard order.
  const auto after = [this](Time t) { return t.is_infinite() ? t : t + lookahead_; };
  std::vector<Time> reach(n, Time::infinity());
  for (std::size_t j = 0; j < n; ++j) {
    reach[j] = head(j);
    for (std::size_t k = 0; k < n; ++k) {
      if (k != j) reach[j] = std::min(reach[j], after(head(k)));
    }
    if (reach[j] > horizon) reach[j] = Time::infinity();
  }
  std::vector<std::size_t> runnable;
  for (std::size_t i = 0; i < n; ++i) {
    if (head(i).is_infinite()) continue;
    Time safe = Time::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) safe = std::min(safe, after(reach[j]));
    }
    const Time reference = cap_below(safe, horizon);
    if (head(i) > reference) continue;
    runnable.push_back(i);
    DREDBOX_INVARIANT(cap(i) == reference,
                      "PartitionedKernel: a round's cap disagrees with the full scan");
  }
  DREDBOX_INVARIANT(runnable == runnable_,
                    "PartitionedKernel: a round's runnable set disagrees with the full scan");
}

PartitionRunStats PartitionedKernel::run(Time horizon, std::size_t threads) {
  const std::size_t workers = std::max<std::size_t>(1, std::min(threads, shards_.size()));
  if (!pool_ || pool_->threads() != workers) pool_ = std::make_unique<WorkerPool>(workers);
  PartitionRunStats stats;
  stats.threads = workers;
  prepare_run(horizon);
  const std::size_t n = shards_.size();

  // Built once per run: the body captures only `this`, so no round pays
  // for a std::function conversion. Each worker writes only its own
  // shard's slot of ran_; the coordinator reads them after the barrier.
  const std::function<void(std::size_t)> phase_b = [this](std::size_t k) {
    const std::size_t i = runnable_[k];
    if (prologue_) prologue_(i);
    Simulator& sim = *shards_[i];
    const std::size_t events = sim.run_until(cap(i));
    // The head is read here, while the queue is still in this thread's cache.
    ran_[i] = Ran{sim.queue().next_time(), events};
  };

  while (true) {
    // --- Phase A (coordinator): deliver cross traffic. ---
    // A queue head moves only where events ran or mail landed, so only
    // those shards are re-keyed: the ones that ran after Phase B, the
    // ones that got mail as it lands.
    stats.messages += deliver_mail(horizon);
    if (n == 0 || heap_[0].head.is_infinite()) break;

    // --- The round's two caps. ---
    // The heap's root is the earliest seed `a` (head h1); the
    // second-earliest head h2 is one of its children. Every shard's
    // earliest source is `a`, at reach h1; `a`'s own is the earlier of
    // h2 and the h1 + L that any message `a` sends could wake. A lone
    // shard has no source and runs to the horizon.
    root_ = heap_[0].shard;
    const Time h1 = heap_[0].head;
    Time h2 = Time::infinity();
    if (n > 1) h2 = heap_[1].head;
    if (n > 2) h2 = std::min(h2, heap_[2].head);
    cap_ = cap_below(h1 + lookahead_, horizon);
    root_cap_ = n > 1 ? cap_below(std::min(h2, h1 + lookahead_) + lookahead_, horizon) : horizon;

    // `a` always runs, and so does every seed within cap_: the top of the
    // heap. Walk it, pruning every subtree whose root is past the cap.
    runnable_.clear();
    walk_.clear();
    walk_.push_back(0);
    while (!walk_.empty()) {
      const std::size_t slot = walk_.back();
      walk_.pop_back();
      // Phase B enters shards in ascending order, as the full scan does.
      const std::size_t i = heap_[slot].shard;
      runnable_.push_back(i);
      for (std::size_t k = runnable_.size() - 1; k > 0 && runnable_[k - 1] > i; --k) {
        std::swap(runnable_[k - 1], runnable_[k]);
      }
      for (std::size_t child = 2 * slot + 1; child <= 2 * slot + 2 && child < n; ++child) {
        if (heap_[child].head <= cap_) walk_.push_back(child);
      }
    }
    DREDBOX_AUDIT_INVARIANT(check_round(horizon));

    // --- Phase B: every shard with work advances to its cap in parallel. ---
    ++stats.rounds;
    stats.shard_runs += runnable_.size();
    pool_->parallel_for(runnable_.size(), phase_b);
    for (const std::size_t i : runnable_) {
      stats.dispatched += ran_[i].events;
      set_head(i, seed_head(ran_[i].head, horizon));
    }
  }

  // Clock alignment: every queue is past the horizon, so this dispatches
  // nothing and just parks each shard's clock exactly at the horizon
  // (matching Datacenter::advance_to semantics for the coupled run).
  for (Simulator* shard : shards_) stats.dispatched += shard->run_until(horizon);
  return stats;
}

}  // namespace dredbox::sim
