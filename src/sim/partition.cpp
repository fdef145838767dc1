#include "sim/partition.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

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

}  // namespace

PartitionedKernel::PartitionedKernel() = default;
PartitionedKernel::~PartitionedKernel() = default;

std::size_t PartitionedKernel::add_shard(Simulator& sim) {
  shards_.push_back(&sim);
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

std::uint64_t PartitionedKernel::deliver_mail() {
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
    delivered += inbox.size();
    inbox.clear();
    stale_[shard] = 1;
  }
  mailed_.clear();
  return delivered;
}

void PartitionedKernel::prepare_run() {
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
  // near[i]: the closest any *other* shard is to i.
  near_.assign(n, Time::infinity());
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      if (k != i && dist_[k * n + i] < near_[i]) near_[i] = dist_[k * n + i];
    }
  }

  // Every queue head is re-read on the first round: wiring code may have
  // scheduled or cancelled anything between two run() calls.
  stale_.assign(n, 1);
  next_.assign(n, Time::infinity());
  reach_.assign(n, Time::infinity());
  caps_.assign(n, Time::zero());
  seeds_.clear();
  runnable_.clear();
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
  prepare_run();

  const std::size_t n = shards_.size();
  std::atomic<std::size_t> dispatched{0};
  // Built once per run: the body captures only `this` and the counter, so
  // no round pays for a std::function conversion.
  const std::function<void(std::size_t)> phase_b = [this, &dispatched](std::size_t k) {
    const std::size_t i = runnable_[k];
    if (prologue_) prologue_(i);
    dispatched.fetch_add(shards_[i]->run_until(caps_[i]), std::memory_order_relaxed);
  };

  while (true) {
    // --- Phase A (coordinator): deliver cross traffic, read queue heads. ---
    // A queue head moves only where events ran or mail landed, so only
    // those shards' heads are re-read.
    stats.messages += deliver_mail();
    seeds_.clear();
    Earliest heads;
    for (std::size_t i = 0; i < n; ++i) {
      if (stale_[i] != 0) {
        next_[i] = shards_[i]->queue().next_time();
        stale_[i] = 0;
      }
      if (next_[i] <= horizons[i]) {
        seeds_.push_back(i);
        heads.offer(i, next_[i]);
      }
    }
    if (seeds_.empty()) break;

    // --- Safe advancement bounds for this round. ---
    // reach[i]: lower bound on when shard i can next execute ANY event —
    // its own queue head, or a message induced (transitively) by any
    // other shard's queue head. Only seeds (queue heads within their
    // shard's horizon) contribute: the others don't run this call. A
    // reach past i's own horizon means i executes nothing at all this
    // call, so it sends nothing: infinity. Ignoring horizon clipping at
    // intermediate hops only lowers reach — conservative, never wrong.
    //
    // Both minimums below start from the term of the earliest source.
    // Every other source starts no earlier than the second-earliest and
    // lies at least the target's smallest distance away, so when that
    // bound cannot beat the first term the minimum is already exact; only
    // otherwise (uneven lookaheads) are all terms scanned.
    Earliest reaches;
    for (std::size_t i = 0; i < n; ++i) {
      Time r = next_[i] <= horizons[i] ? next_[i] : Time::infinity();
      const Time first = saturating_after(heads.first, dist_[heads.index * n + i]);
      if (first < r) r = first;
      if (saturating_after(heads.second, near_[i]) < r) {
        for (const std::size_t j : seeds_) {
          const Time via = saturating_after(next_[j], dist_[j * n + i]);
          if (via < r) r = via;
        }
      }
      reach_[i] = r <= horizons[i] ? r : Time::infinity();
      reaches.offer(i, reach_[i]);
    }

    // cap[i] = min(horizon, min over in-links (j -> i) of reach_j +
    // lookahead, minus one tick). Caps matter only where an event could
    // run under them: a non-seed's queue head is past its horizon, which
    // bounds every cap.
    runnable_.clear();
    for (const std::size_t i : seeds_) {
      Time safe = saturating_after(reaches.first, hop_[reaches.index * n + i]);
      if (saturating_after(reaches.second, in_min_[i]) < safe) {
        for (std::size_t j = 0; j < n; ++j) {
          const Time bound = saturating_after(reach_[j], hop_[j * n + i]);
          if (bound < safe) safe = bound;
        }
      }
      Time cap = horizons[i];
      if (!safe.is_infinite() && safe - Time::ps(1) < cap) cap = safe - Time::ps(1);
      caps_[i] = cap;
      if (next_[i] <= cap) runnable_.push_back(i);
    }

    // --- Phase B: every shard with work advances to its cap in parallel. ---
    ++stats.rounds;
    stats.shard_runs += runnable_.size();
    pool_->parallel_for(runnable_.size(), phase_b);
    for (const std::size_t i : runnable_) stale_[i] = 1;
  }

  // Clock alignment: every queue is past its horizon, so this dispatches
  // nothing and just parks each shard's clock exactly at the horizon
  // (matching Datacenter::advance_to semantics for the coupled run).
  for (std::size_t i = 0; i < n; ++i) {
    dispatched.fetch_add(shards_[i]->run_until(horizons[i]), std::memory_order_relaxed);
  }
  stats.dispatched = dispatched.load();
  return stats;
}

}  // namespace dredbox::sim
