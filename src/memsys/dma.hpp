#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "memsys/remote_memory.hpp"
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
/// A channel owns its transfer: the in-flight Job sits in the Channel by
/// value, beside the train's cursor (next offset, chunks landed) and its
/// held routes, and waiting jobs sit by value in a FIFO over a recycled
/// vector, so steady-state transfers allocate nothing. A channel's chunk
/// train is one event for the whole transfer; it captures only the engine
/// and the channel index, and each step re-arms it (sim::EventQueue::rearm)
/// at the next chunk's issue time — or the retry's — instead of
/// scheduling a new one.
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
  struct Channel {
    bool busy = false;
    /// The train's cursor: the job in flight, the offset of its next
    /// chunk, and the chunks landed so far. Valid while busy.
    Job job;
    std::uint64_t offset = 0;
    std::size_t chunks = 0;
    /// The routes the channel's chunk trains hold: one fabric resolution
    /// per transfer while the control plane stands still, still valid for
    /// the next job on the same window.
    RemoteMemoryFabric::HeldRoute held;
  };

  sim::Simulator& sim_;
  RemoteMemoryFabric& fabric_;
  hw::BrickId compute_;
  std::uint32_t chunk_bytes_;
  std::vector<Channel> channels_;
  /// FIFO over a recycled vector: pop advances queue_head_, and the
  /// vector rewinds (clear, keep capacity) once drained. A std::deque
  /// here allocates a fresh node block every ~64 push/pop cycles as the
  /// cursor walks forward, which breaks the 0-allocs/op steady state.
  std::vector<Job> queue_;
  std::size_t queue_head_ = 0;
  std::uint64_t completed_ = 0;

  /// Instruments bound once from the fabric's telemetry, so the
  /// per-transfer/per-retry path never pays a name lookup.
  sim::metrics::Counter& transfers_metric_;
  sim::metrics::Counter& bytes_metric_;
  sim::metrics::Counter& retries_metric_;
  sim::metrics::Counter& failed_metric_;

  void pump();
  /// Frees the channel and delivers `done` to its job's moved-out
  /// callback, then refills the channels (the callback may reentrantly
  /// enqueue, as closed-loop workloads do).
  void finish(std::size_t channel, const DmaCompletion& done);
  /// Issues the channel's next chunk (or completes its transfer) and
  /// schedules the train's continuation. `own_event` says the call is the
  /// train's chunk event firing, which then re-arms itself; pump() starts
  /// a train with a freshly scheduled event.
  void step(std::size_t channel, bool own_event);
  /// Continues channel `channel`'s train at `when` under `label`.
  void continue_train(std::size_t channel, bool own_event, sim::Time when, const char* label);
};

}  // namespace dredbox::memsys
