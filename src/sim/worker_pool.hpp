#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "sim/annotations.hpp"

namespace dredbox::sim {

/// The repository's one fork-join thread pool (the sweep runner's
/// per-cell fan-out uses it), so there is a single annotated,
/// TSan-exercised implementation of "run N independent bodies on K
/// threads" instead of ad-hoc thread spawns per call site.
///
/// Workers are spawned once at construction and parked on a condition
/// variable between jobs, so a caller that issues many parallel_for()
/// jobs pays a wake-up, not a thread spawn, per job. The calling thread
/// always participates as one worker, so WorkerPool{1} spawns nothing and
/// parallel_for degenerates to an inline loop — a sequential reference
/// run and a parallel one share this exact code path.
///
/// Indices are claimed from an atomic cursor (work stealing); the body
/// must therefore be index-independent of claim order, which every caller
/// guarantees by writing results to per-index slots (see ResultStore).
class WorkerPool {
 public:
  /// `threads` counts the calling thread: threads - 1 workers are spawned.
  explicit WorkerPool(std::size_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total workers, calling thread included.
  std::size_t threads() const { return workers_.size() + 1; }

  /// Runs body(0) ... body(n-1) across the pool and returns when every
  /// index completed. The calling thread participates. If any body
  /// throws, the first exception (in completion order) is rethrown here
  /// after all workers finished their drain — never mid-job.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body)
      DREDBOX_EXCLUDES(mu_);

 private:
  void worker_main();
  /// Claims indices off cursor_ until the job is exhausted; records the
  /// first exception instead of unwinding through the pool.
  void drain(const std::function<void(std::size_t)>& body, std::size_t limit)
      DREDBOX_EXCLUDES(mu_);

  std::vector<std::thread> workers_;

  Mutex mu_;
  /// Current job; non-null only while a parallel_for is in flight.
  const std::function<void(std::size_t)>* body_ DREDBOX_GUARDED_BY(mu_) = nullptr;
  std::size_t limit_ DREDBOX_GUARDED_BY(mu_) = 0;
  /// Bumped once per job so a worker that wakes late never re-runs a
  /// finished job and never misses a new one.
  std::uint64_t generation_ DREDBOX_GUARDED_BY(mu_) = 0;
  /// Workers still draining the current job.
  std::size_t active_ DREDBOX_GUARDED_BY(mu_) = 0;
  bool stop_ DREDBOX_GUARDED_BY(mu_) = false;
  std::exception_ptr first_error_ DREDBOX_GUARDED_BY(mu_);
  /// Next unclaimed index of the current job. Atomic rather than guarded:
  /// claims happen on the hot drain path and need no ordering beyond the
  /// fetch_add itself.
  std::atomic<std::size_t> cursor_{0};

  /// condition_variable_any works with sim::Mutex (BasicLockable), which
  /// keeps the guarded members statically provable everywhere outside the
  /// two wait loops.
  std::condition_variable_any work_cv_;
  std::condition_variable_any done_cv_;
};

/// The one piece of state parallel_for bodies share: per-index results
/// stored under a mutex. DREDBOX_GUARDED_BY lets clang's -Wthread-safety
/// prove every slot access holds the lock (disjoint-index writes into a
/// bare vector would be just as race-free but unprovable — and one
/// refactor away from not being race-free). The lock is taken once per
/// finished index; bodies are coarse units of work, so contention is nil.
template <typename T>
class ResultStore {
 public:
  explicit ResultStore(std::size_t size) : results_(size) {}

  void store(std::size_t index, T value) DREDBOX_EXCLUDES(mu_) {
    MutexLock lock{mu_};
    results_[index] = std::move(value);
  }

  /// Moves the results out; call only after the producing parallel_for
  /// returned.
  std::vector<T> take() DREDBOX_EXCLUDES(mu_) {
    MutexLock lock{mu_};
    return std::move(results_);
  }

 private:
  Mutex mu_;
  std::vector<T> results_ DREDBOX_GUARDED_BY(mu_);
};

}  // namespace dredbox::sim
