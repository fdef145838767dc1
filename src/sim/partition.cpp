#include "sim/partition.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/contract.hpp"

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
  // — past a violation the caps no longer bound what a shard may run,
  // so its receiver could already have run beyond the delivery time.
  DREDBOX_INVARIANT(when >= shards_[from]->now() + lookahead_,
                    "PartitionedKernel::send: delivery time is inside the lookahead window "
                    "(send later or declare a smaller lookahead)");
  std::vector<Message>& inbox = inbox_[to];
  if (inbox.empty()) mailed_.push_back(to);
  inbox.push_back(Message{when, static_cast<std::uint32_t>(from),
                          static_cast<std::uint32_t>(inbox.size()), std::move(action), label});
}

std::uint64_t PartitionedKernel::deliver_mail(Time horizon) {
  std::uint64_t delivered = 0;
  for (const std::size_t shard : mailed_) {
    std::vector<Message>& inbox = inbox_[shard];
    Simulator& sim = *shards_[shard];
    // Total order over incoming messages: (time, source, send order) is a
    // pure function of send history, and the send order keeps
    // FIFO-within-timestamp across the partition cut.
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
    // of the kept head and the first arrival.
    heads_[shard] = std::min(heads_[shard], seed_head(inbox.front().when, horizon));
    delivered += inbox.size();
    inbox.clear();
  }
  mailed_.clear();
  return delivered;
}

void PartitionedKernel::prepare_run(Time horizon) {
  const std::size_t n = shards_.size();
  // Every queue head is read afresh: wiring code may have scheduled or
  // cancelled anything between two run() calls.
  heads_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    heads_[i] = seed_head(shards_[i]->queue().next_time(), horizon);
  }
  runnable_.clear();
}

void PartitionedKernel::check_round(Time horizon) const {
  const std::size_t n = shards_.size();
  // The kept heads are every shard's current effective head.
  for (std::size_t i = 0; i < n; ++i) {
    DREDBOX_INVARIANT(heads_[i] == seed_head(shards_[i]->queue().next_time(), horizon),
                      "PartitionedKernel: a queue head moved without being re-keyed");
  }
  // The reference round over the mesh: every reach over every other
  // shard's head, every cap over every other shard's reach, and the
  // runnable set in shard order.
  const auto after = [this](Time t) { return t.is_infinite() ? t : t + lookahead_; };
  std::vector<Time> reach(n, Time::infinity());
  for (std::size_t j = 0; j < n; ++j) {
    reach[j] = heads_[j];
    for (std::size_t k = 0; k < n; ++k) {
      if (k != j) reach[j] = std::min(reach[j], after(heads_[k]));
    }
    if (reach[j] > horizon) reach[j] = Time::infinity();
  }
  std::vector<std::size_t> runnable;
  for (std::size_t i = 0; i < n; ++i) {
    if (heads_[i].is_infinite()) continue;
    Time safe = Time::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) safe = std::min(safe, after(reach[j]));
    }
    const Time reference = cap_below(safe, horizon);
    if (heads_[i] > reference) continue;
    runnable.push_back(i);
    DREDBOX_INVARIANT(cap(i) == reference,
                      "PartitionedKernel: a round's cap disagrees with the full scan");
  }
  DREDBOX_INVARIANT(runnable == runnable_,
                    "PartitionedKernel: a round's runnable set disagrees with the full scan");
}

PartitionRunStats PartitionedKernel::run(Time horizon) {
  PartitionRunStats stats;
  prepare_run(horizon);
  const std::size_t n = shards_.size();

  while (true) {
    // --- Phase A: deliver cross traffic. ---
    // A queue head moves only where events ran or mail landed, so only
    // those shards are re-keyed: the ones that ran as Phase B leaves
    // them, the ones that got mail as it lands.
    stats.messages += deliver_mail(horizon);

    // --- The round's two caps. ---
    // One pass finds the earliest seed `a` (head h1) and the
    // second-earliest head h2. Every shard's earliest source is `a`, at
    // reach h1; `a`'s own is the earlier of h2 and the h1 + L that any
    // message `a` sends could wake. A lone shard has no source and runs
    // to the horizon. Both passes are branch-free: which shards lead
    // changes every round, so a branch on a head mispredicts.
    Time h1 = Time::infinity();
    Time h2 = Time::infinity();
    std::size_t root = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Time head = heads_[i];
      const bool earliest = head < h1;
      h2 = earliest ? h1 : std::min(h2, head);
      root = earliest ? i : root;
      h1 = earliest ? head : h1;
    }
    if (h1.is_infinite()) break;
    root_ = root;
    cap_ = cap_below(h1 + lookahead_, horizon);
    root_cap_ = n > 1 ? cap_below(std::min(h2, h1 + lookahead_) + lookahead_, horizon) : horizon;

    // Every seed within cap_ runs, `a` (h1 <= cap_) among them, in
    // ascending shard order as the full scan has it: each shard is
    // written to the next slot, which is kept only if its seed is within.
    runnable_.resize(n);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < n; ++i) {
      runnable_[kept] = i;
      kept += heads_[i] <= cap_ ? 1 : 0;
    }
    runnable_.resize(kept);
    DREDBOX_AUDIT_INVARIANT(check_round(horizon));

    // --- Phase B: every shard with work advances to its cap. ---
    // The caps are fixed for the round, so a shard re-keyed as it
    // finishes cannot change what the shards after it run.
    ++stats.rounds;
    stats.shard_runs += runnable_.size();
    for (const std::size_t i : runnable_) {
      Simulator& sim = *shards_[i];
      stats.dispatched += sim.run_until(cap(i));
      heads_[i] = seed_head(sim.queue().next_time(), horizon);
    }
  }

  // Clock alignment: every queue is past the horizon, so this dispatches
  // nothing and just parks each shard's clock exactly at the horizon
  // (matching Datacenter::advance_to semantics for the coupled run).
  for (Simulator* shard : shards_) stats.dispatched += shard->run_until(horizon);
  return stats;
}

}  // namespace dredbox::sim
