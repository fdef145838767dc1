#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "memsys/remote_memory.hpp"
#include "sim/arena.hpp"
#include "sim/inplace_action.hpp"
#include "sim/retry.hpp"
#include "sim/simulator.hpp"

namespace dredbox::memsys {

/// One bulk-copy request handed to a DMA engine.
struct DmaDescriptor {
  std::uint64_t address = 0;   // brick-physical address in the remote window
  std::uint64_t bytes = 0;
  TransactionKind direction = TransactionKind::kWrite;  // write = push to remote
  /// Caller's trace context; when valid, the transfer span and every
  /// chunk's fabric span nest under it.
  sim::TraceContext ctx;
};

/// Completion report delivered to the requester's callback.
struct DmaCompletion {
  bool ok = false;
  std::string error;
  std::uint64_t bytes = 0;
  std::size_t chunks = 0;
  /// Chunk retries the engine scheduled over the whole transfer (0 when
  /// every chunk landed first try or no retry policy is set).
  std::size_t retries = 0;
  sim::Time enqueued_at;
  sim::Time completed_at;

  double effective_gbps() const {
    const double secs = (completed_at - enqueued_at).as_sec();
    return secs > 0 ? static_cast<double>(bytes) * 8.0 / secs / 1e9 : 0.0;
  }
};

/// The dCOMPUBRICK's DMA engines (Fig. 3 shows two per brick, hanging off
/// the AXI interconnect next to the TGL). Software queues descriptors;
/// each engine streams its transfer through the remote-memory fabric in
/// MTU-sized chunks, fully event-driven on the shared simulator timeline.
/// Multiple engines drain the queue concurrently, so bulk traffic
/// overlaps the way the hardware's dual engines allow.
///
/// Jobs are pooled through sim::IndexedArena: a busy channel holds a
/// (slot, generation) handle to its job, so steady-state transfers
/// allocate nothing and an abandoned transfer (fault-exhausted retries)
/// reclaims its slot with a generation bump — a stale handle to the
/// slot's next tenant is an invariant violation, not a silent misfire.
///
/// A channel's chunk train is one event for the whole transfer. The
/// train's cursor (job handle, offset, chunks landed) lives in the
/// Channel; the chunk event captures only the engine and the channel
/// index, and each step re-arms it (sim::EventQueue::rearm) at the next
/// chunk's issue time — or the retry's — instead of scheduling a new one.
class DmaEngine {
 public:
  /// Completion callbacks ride the same inline-storage budget as event
  /// actions: a capture list over 48 bytes is a compile error at the
  /// enqueue site, never a heap fallback.
  using Callback = sim::InplaceFunction<void(const DmaCompletion&)>;

  DmaEngine(sim::Simulator& sim, RemoteMemoryFabric& fabric, hw::BrickId compute,
            std::size_t channels = 2, std::uint32_t chunk_bytes = 4096);

  /// Queues a transfer; the callback fires (on the simulator timeline)
  /// when the last chunk completes. Run the simulator to make progress.
  void enqueue(const DmaDescriptor& descriptor, Callback callback);

  std::size_t channels() const { return channels_.size(); }
  std::size_t queued() const { return queue_.size() - queue_head_; }
  std::size_t in_flight() const;
  std::uint64_t completed_transfers() const { return completed_; }

  /// Jobs currently pooled (queued + in flight). Test hook for the
  /// fault-abandonment suite: after a failed transfer's callback fires,
  /// its slot must be reclaimed, i.e. this drops back to zero.
  std::size_t jobs_live() const { return jobs_.live(); }
  /// Current generation of a job slot (test hook; see IndexedArena).
  std::uint32_t job_generation(std::uint32_t slot) const { return jobs_.generation(slot); }

 private:
  struct Job {
    DmaDescriptor descriptor;
    Callback callback;
    sim::Time enqueued_at;
    /// Backoff state for the chunk currently in flight; reset on every
    /// chunk that completes, so each chunk gets the policy's full budget.
    std::optional<sim::BackoffSchedule> backoff;
    std::size_t retries = 0;
  };
  /// Generation-checked handle to a pooled Job — what the queue and the
  /// scheduled chunk events carry instead of the Job itself.
  struct JobHandle {
    std::uint32_t slot = 0;
    std::uint32_t generation = 0;
  };
  struct Channel {
    bool busy = false;
    /// The train's cursor: the job in flight, the offset of its next
    /// chunk, and the chunks landed so far. Valid while busy.
    JobHandle job;
    std::uint64_t offset = 0;
    std::size_t chunks = 0;
    /// The route the channel's chunk train holds: one fabric resolution
    /// per transfer while the control plane stands still. It lives here
    /// rather than in the pooled Job, whose arena touches every slot of a
    /// 1024-slot chunk; a held route stays valid for the next job on the
    /// same window.
    RemoteMemoryFabric::StreamPath path;
  };

  sim::Simulator& sim_;
  RemoteMemoryFabric& fabric_;
  hw::BrickId compute_;
  std::uint32_t chunk_bytes_;
  std::vector<Channel> channels_;
  sim::IndexedArena<Job> jobs_;
  /// FIFO over a recycled vector: pop advances queue_head_, and the
  /// vector rewinds (clear, keep capacity) once drained. A std::deque
  /// here allocates a fresh node block every ~64 push/pop cycles as the
  /// cursor walks forward, which breaks the 0-allocs/op steady state.
  std::vector<JobHandle> queue_;
  std::size_t queue_head_ = 0;
  std::uint64_t completed_ = 0;

  /// Cached instrument handles, re-resolved only when the fabric's
  /// telemetry bundle changes — the per-transfer/per-retry path must not
  /// pay a name lookup in the registry map.
  sim::Telemetry* wired_telemetry_ = nullptr;
  sim::metrics::Counter* transfers_metric_ = nullptr;
  sim::metrics::Counter* bytes_metric_ = nullptr;
  sim::metrics::Counter* retries_metric_ = nullptr;
  sim::metrics::Counter* failed_metric_ = nullptr;

  void pump();
  /// Resolves a handle to its live Job; a dangling or stale-generation
  /// handle is an invariant violation (the engine never leaves one in
  /// flight past the job's destruction).
  Job& job_ref(JobHandle handle);
  /// Destroys the pooled job, frees its channel, and delivers `done` to
  /// the moved-out callback (after the slot is reclaimed, so a reentrant
  /// enqueue from the callback can reuse it immediately).
  void finish(std::size_t channel, JobHandle handle, const DmaCompletion& done);
  /// Issues the channel's next chunk (or completes its transfer) and
  /// schedules the train's continuation. `own_event` says the call is the
  /// train's chunk event firing, which then re-arms itself; pump() starts
  /// a train with a freshly scheduled event.
  void step(std::size_t channel, bool own_event);
  /// Continues channel `channel`'s train at `when` under `label`.
  void continue_train(std::size_t channel, bool own_event, sim::Time when, const char* label);
  /// Returns the fabric's current telemetry (null when uninstrumented),
  /// rebinding the cached counter handles when it changed.
  sim::Telemetry* bind_telemetry();
};

}  // namespace dredbox::memsys
