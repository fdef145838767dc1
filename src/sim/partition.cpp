#include "sim/partition.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/contract.hpp"
#include "sim/worker_pool.hpp"

namespace dredbox::sim {

namespace {

/// Time + delay with infinity absorbing on either side: a silent neighbor
/// bounds nothing, and an unreachable path (infinite distance) delays
/// nothing into range — adding INT64_MAX raw would wrap negative and turn
/// "no bound" into "bounded in the distant past".
Time saturating_after(Time t, Time delay) {
  if (t.is_infinite() || delay.is_infinite()) return Time::infinity();
  return t + delay;
}

/// The two smallest of a stream of (index, time) offers: the earliest
/// source and a lower bound on every other one.
struct Earliest {
  std::size_t index = 0;
  Time first = Time::infinity();
  Time second = Time::infinity();

  void offer(std::size_t i, Time t) {
    if (t < first) {
      second = first;
      first = t;
      index = i;
    } else if (t < second) {
      second = t;
    }
  }
};

/// A shard's indexed head: its queue head if within its horizon, else
/// infinity (events past the horizon do not run this call).
Time seed_head(Time next, Time horizon) { return next <= horizon ? next : Time::infinity(); }

/// The cap of a shard whose earliest possible arrival is `safe`: one tick
/// short of it, and never past the shard's horizon.
Time cap_below(Time safe, Time horizon) {
  if (!safe.is_infinite() && safe - Time::ps(1) < horizon) return safe - Time::ps(1);
  return horizon;
}

}  // namespace

PartitionedKernel::PartitionedKernel() = default;
PartitionedKernel::~PartitionedKernel() = default;

std::size_t PartitionedKernel::add_shard(Simulator& sim) {
  shards_.push_back(&sim);
  tables_stale_ = true;
  MutexLock lock{mail_mu_};
  inbox_.emplace_back();
  return shards_.size() - 1;
}

std::size_t PartitionedKernel::connect(std::size_t from, std::size_t to, Time lookahead) {
  if (from >= shards_.size() || to >= shards_.size()) {
    throw std::invalid_argument("PartitionedKernel::connect: shard index out of range");
  }
  if (from == to) {
    throw std::invalid_argument("PartitionedKernel::connect: a shard cannot link to itself");
  }
  if (lookahead <= Time::zero()) {
    throw std::invalid_argument(
        "PartitionedKernel::connect: lookahead must be strictly positive (it is the "
        "conservative window; zero would serialize every round)");
  }
  links_.push_back(Link{from, to, lookahead});
  tables_stale_ = true;
  MutexLock lock{mail_mu_};
  link_sent_.push_back(0);
  return links_.size() - 1;
}

Time PartitionedKernel::lookahead(std::size_t link) const {
  if (link >= links_.size()) {
    throw std::invalid_argument("PartitionedKernel::lookahead: link id out of range");
  }
  return links_[link].lookahead;
}

void PartitionedKernel::send(std::size_t link, Time when, InplaceAction action,
                             const char* label) {
  if (link >= links_.size()) {
    throw std::invalid_argument("PartitionedKernel::send: link id out of range");
  }
  const Link& l = links_[link];
  // The conservative contract every horizon computation rests on: nothing
  // may land closer than the link's lookahead ahead of the sender's clock.
  // Checked on every send — a violation here would not crash, it would
  // silently decohere the parallel and sequential schedules.
  DREDBOX_INVARIANT(when >= shards_[l.from]->now() + l.lookahead,
                    "PartitionedKernel::send: delivery time is inside the link's "
                    "lookahead window (send later or declare a smaller lookahead)");
  MutexLock lock{mail_mu_};
  std::vector<Message>& inbox = inbox_[l.to];
  if (inbox.empty()) mailed_.push_back(l.to);
  inbox.push_back(Message{when, static_cast<std::uint32_t>(link), link_sent_[link]++,
                          std::move(action), label});
}

std::uint64_t PartitionedKernel::deliver_mail(const std::vector<Time>& horizons) {
  MutexLock lock{mail_mu_};
  std::uint64_t delivered = 0;
  for (const std::size_t shard : mailed_) {
    std::vector<Message>& inbox = inbox_[shard];
    Simulator& sim = *shards_[shard];
    // Total order over incoming messages: (time, link, per-link seq) is a
    // pure function of send history, never of worker interleaving, and the
    // per-link seq keeps FIFO-within-timestamp across the partition cut.
    // Destinations are independent queues, so the order in which inboxes
    // are visited does not matter.
    std::sort(inbox.begin(), inbox.end(), [](const Message& a, const Message& b) {
      if (a.when != b.when) return a.when < b.when;
      if (a.link != b.link) return a.link < b.link;
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
    const Time first = seed_head(inbox.front().when, horizons[shard]);
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

void PartitionedKernel::prepare_tables() {
  const std::size_t n = shards_.size();

  // hop[j][i]: the smallest lookahead of any link j -> i (infinity when
  // there is none), and in_min[i] the smallest over all of i's in-links.
  hop_.assign(n * n, Time::infinity());
  in_min_.assign(n, Time::infinity());
  for (const Link& link : links_) {
    Time& h = hop_[link.from * n + link.to];
    if (link.lookahead < h) h = link.lookahead;
    if (link.lookahead < in_min_[link.to]) in_min_[link.to] = link.lookahead;
  }

  // Pairwise minimum lookahead distance (min-plus shortest paths over the
  // link graph): dist[j][i] bounds below how much later than shard j's
  // next execution anything can reach shard i, along any path. Needed
  // because lookahead is transitive: a shard with an empty queue is NOT
  // silent — a message can wake it and make it send, so its earliest
  // possible send time is bounded through its neighbors, not by its own
  // (empty) queue alone.
  dist_ = hop_;
  for (std::size_t i = 0; i < n; ++i) dist_[i * n + i] = Time::zero();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      const Time ik = dist_[i * n + k];
      if (ik.is_infinite()) continue;
      for (std::size_t j = 0; j < n; ++j) {
        const Time through = saturating_after(ik, dist_[k * n + j]);
        if (through < dist_[i * n + j]) dist_[i * n + j] = through;
      }
    }
  }
  // near[i]: the closest any *other* shard is to i. far_out[j]: the
  // slowest direct link out of j (infinity when j misses a neighbor).
  // mesh_lookahead: L when every ordered pair is linked at L, else zero.
  near_.assign(n, Time::infinity());
  far_out_.assign(n, Time::zero());
  mesh_lookahead_ = n > 1 ? hop_[1] : Time::zero();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (k == i) continue;
      if (dist_[k * n + i] < near_[i]) near_[i] = dist_[k * n + i];
      if (far_out_[k] < hop_[k * n + i]) far_out_[k] = hop_[k * n + i];
      if (hop_[k * n + i] != mesh_lookahead_) mesh_lookahead_ = Time::zero();
    }
  }
  if (mesh_lookahead_.is_infinite()) mesh_lookahead_ = Time::zero();
  tables_stale_ = false;
}

void PartitionedKernel::prepare_run(const std::vector<Time>& horizons) {
  if (tables_stale_) prepare_tables();
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
    set_head(i, seed_head(shards_[i]->queue().next_time(), horizons[i]));
  }
  ran_.assign(n, Ran{});
  reach_.assign(n, Time::infinity());
  caps_.assign(n, Time::zero());
  runnable_.clear();
}

void PartitionedKernel::check_round(const std::vector<Time>& horizons) const {
  const std::size_t n = shards_.size();
  // The index holds every shard's current effective head, in heap order.
  for (std::size_t i = 0; i < n; ++i) {
    const Time next = shards_[i]->queue().next_time();
    DREDBOX_INVARIANT(heap_[slot_[i]].shard == i, "PartitionedKernel: head index slots disagree");
    DREDBOX_INVARIANT(head(i) == seed_head(next, horizons[i]),
                      "PartitionedKernel: a queue head moved without being re-keyed");
    DREDBOX_INVARIANT(slot_[i] == 0 || heap_[(slot_[i] - 1) / 2].head <= head(i),
                      "PartitionedKernel: head index out of heap order");
  }
  // The reference round: every reach over every source, every cap over
  // every in-link, and the runnable set in shard order.
  std::vector<Time> reach(n, Time::infinity());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      reach[i] = std::min(reach[i], saturating_after(head(j), dist_[j * n + i]));
    }
    if (reach[i] > horizons[i]) reach[i] = Time::infinity();
  }
  std::vector<std::size_t> runnable;
  for (std::size_t i = 0; i < n; ++i) {
    if (head(i).is_infinite()) continue;
    Time safe = Time::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      safe = std::min(safe, saturating_after(reach[j], hop_[j * n + i]));
    }
    const Time cap = cap_below(safe, horizons[i]);
    if (head(i) > cap) continue;
    runnable.push_back(i);
    DREDBOX_INVARIANT(caps_[i] == cap, "PartitionedKernel: a round's cap disagrees with the "
                                       "full scan");
  }
  DREDBOX_INVARIANT(runnable == runnable_,
                    "PartitionedKernel: a round's runnable set disagrees with the full scan");
}

PartitionRunStats PartitionedKernel::run(const std::vector<Time>& horizons,
                                         std::size_t threads) {
  if (horizons.size() != shards_.size()) {
    throw std::invalid_argument(
        "PartitionedKernel::run: one horizon per shard required");
  }
  const std::size_t workers = std::max<std::size_t>(1, std::min(threads, shards_.size()));
  if (!pool_ || pool_->threads() != workers) pool_ = std::make_unique<WorkerPool>(workers);
  PartitionRunStats stats;
  stats.threads = workers;
  prepare_run(horizons);

  const std::size_t n = shards_.size();
  Time last_horizon = Time::zero();
  bool one_horizon = true;
  for (const Time horizon : horizons) {
    last_horizon = std::max(last_horizon, horizon);
    one_horizon = one_horizon && horizon == horizons.front();
  }
  // The spine's shape: a full mesh at one lookahead, run to one horizon.
  const Time mesh = one_horizon ? mesh_lookahead_ : Time::zero();

  // Built once per run: the body captures only `this`, so no round pays
  // for a std::function conversion. Each worker writes only its own
  // shard's slot of ran_; the coordinator reads them after the barrier.
  const std::function<void(std::size_t)> phase_b = [this](std::size_t k) {
    const std::size_t i = runnable_[k];
    if (prologue_) prologue_(i);
    Simulator& sim = *shards_[i];
    const std::size_t events = sim.run_until(caps_[i]);
    // The head is read here, while the queue is still in this thread's cache.
    ran_[i] = Ran{sim.queue().next_time(), events};
  };

  while (true) {
    // --- Phase A (coordinator): deliver cross traffic. ---
    // A queue head moves only where events ran or mail landed, so only
    // those shards are re-keyed: the ones that ran after Phase B, the
    // ones that got mail as it lands.
    stats.messages += deliver_mail(horizons);
    if (n == 0 || heap_[0].head.is_infinite()) break;

    // --- Safe advancement bounds for this round. ---
    // reach[i]: lower bound on when shard i can next execute ANY event —
    // its own queue head, or a message induced (transitively) by any
    // seed's queue head. A reach past i's own horizon means i executes
    // nothing at all this call, so it sends nothing: infinity. Ignoring
    // horizon clipping at intermediate hops only lowers reach —
    // conservative, never wrong. cap[i] = min(horizon, min over in-links
    // (j -> i) of reach_j + lookahead, minus one tick).
    //
    // The heap's root is the earliest seed `a`, whose reach is its own
    // head h1; every other source is no earlier than the second-earliest
    // head h2, which is one of the root's children.
    const std::size_t a = heap_[0].shard;
    const Time h1 = heap_[0].head;
    Time h2 = Time::infinity();
    if (n > 1) h2 = heap_[1].head;
    if (n > 2) h2 = std::min(h2, heap_[2].head);
    // Uneven lookaheads or horizons: each reach starts from the earliest
    // seed's term, every other seed lies at least the target's smallest
    // distance past h2, and only when that bound could beat the first
    // term are all terms scanned. Filled at most once a round, on first use.
    Earliest reaches;
    bool reaches_filled = false;
    const auto cap_of = [&](std::size_t i) {
      if (mesh > Time::zero()) {
        // Every distance is the lookahead L, so reach_a = h1 and every
        // other shard's reach is min(its head, h1 + L), clipped at the one
        // horizon, which no cap passes anyway. The earliest reach among
        // i's sources is h1, or for `a` itself min(h2, h1 + L).
        const Time source = i == a ? std::min(h2, saturating_after(h1, mesh)) : h1;
        return cap_below(saturating_after(source, mesh), horizons[i]);
      }
      if (!reaches_filled) {
        for (std::size_t t = 0; t < n; ++t) {
          Time r = std::min(head(t), saturating_after(h1, dist_[a * n + t]));
          if (saturating_after(h2, near_[t]) < r) {
            for (std::size_t j = 0; j < n; ++j) {
              r = std::min(r, saturating_after(head(j), dist_[j * n + t]));
            }
          }
          reach_[t] = r <= horizons[t] ? r : Time::infinity();
          reaches.offer(t, reach_[t]);
        }
        reaches_filled = true;
      }
      // The same two-term shortcut over the reaches and i's in-links.
      Time safe = saturating_after(reaches.first, hop_[reaches.index * n + i]);
      if (saturating_after(reaches.second, in_min_[i]) < safe) {
        for (std::size_t j = 0; j < n; ++j) {
          safe = std::min(safe, saturating_after(reach_[j], hop_[j * n + i]));
        }
      }
      return cap_below(safe, horizons[i]);
    };

    // Only seeds can run, and every seed but `a` is capped below
    // h1 + hop(a -> it), so no seed past `bound` can be runnable; `a`
    // always is (every source of it is at least one lookahead past h1).
    // The heads within the bound form the top of the heap: walk it,
    // pruning every subtree whose root is past the bound.
    const Time bound = cap_below(saturating_after(h1, far_out_[a]), last_horizon);
    runnable_.clear();
    walk_.clear();
    walk_.push_back(0);
    while (!walk_.empty()) {
      const std::size_t slot = walk_.back();
      walk_.pop_back();
      const std::size_t i = heap_[slot].shard;
      caps_[i] = cap_of(i);
      if (heap_[slot].head <= caps_[i]) {
        // Phase B enters shards in ascending order, as the full scan did.
        runnable_.push_back(i);
        for (std::size_t k = runnable_.size() - 1; k > 0 && runnable_[k - 1] > i; --k) {
          std::swap(runnable_[k - 1], runnable_[k]);
        }
      }
      for (std::size_t child = 2 * slot + 1; child <= 2 * slot + 2 && child < n; ++child) {
        const Time key = heap_[child].head;
        if (key <= bound && !key.is_infinite()) walk_.push_back(child);
      }
    }
    DREDBOX_AUDIT_INVARIANT(check_round(horizons));

    // --- Phase B: every shard with work advances to its cap in parallel. ---
    ++stats.rounds;
    stats.shard_runs += runnable_.size();
    pool_->parallel_for(runnable_.size(), phase_b);
    for (const std::size_t i : runnable_) {
      stats.dispatched += ran_[i].events;
      set_head(i, seed_head(ran_[i].head, horizons[i]));
    }
  }

  // Clock alignment: every queue is past its horizon, so this dispatches
  // nothing and just parks each shard's clock exactly at the horizon
  // (matching Datacenter::advance_to semantics for the coupled run).
  for (std::size_t i = 0; i < n; ++i) {
    stats.dispatched += shards_[i]->run_until(horizons[i]);
  }
  return stats;
}

}  // namespace dredbox::sim
