#include "memsys/dma.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/format.hpp"
#include "sim/span.hpp"

namespace dredbox::memsys {

DmaEngine::DmaEngine(sim::Simulator& sim, RemoteMemoryFabric& fabric, hw::BrickId compute,
                     std::size_t channels, std::uint32_t chunk_bytes)
    : sim_{sim},
      fabric_{fabric},
      compute_{compute},
      chunk_bytes_{chunk_bytes},
      transfers_metric_{fabric.telemetry().metrics().counter("memsys.dma.transfers")},
      bytes_metric_{fabric.telemetry().metrics().counter("memsys.dma.bytes")},
      retries_metric_{fabric.telemetry().metrics().counter("memsys.dma.retries")},
      failed_metric_{fabric.telemetry().metrics().counter("memsys.dma.failed_transfers")} {
  if (channels == 0) throw std::invalid_argument("DmaEngine: needs at least one channel");
  if (chunk_bytes == 0) throw std::invalid_argument("DmaEngine: chunk size must be positive");
  channels_.resize(channels);
}

std::size_t DmaEngine::in_flight() const {
  return static_cast<std::size_t>(
      std::count_if(channels_.begin(), channels_.end(), [](const Channel& c) { return c.busy; }));
}

// dredbox-lint: hot-path-begin — enqueue/pump/step/finish run once (or
// more) per transfer chunk in steady state and must stay allocation-free;
// cold branches below carry per-line suppressions.
void DmaEngine::enqueue(const DmaDescriptor& descriptor, Callback callback) {
  if (descriptor.bytes == 0) {
    throw std::invalid_argument("DmaEngine::enqueue: zero-byte transfer");
  }
  queue_.push_back(Job{descriptor, std::move(callback), sim_.now(), std::nullopt, 0});
  pump();
}

void DmaEngine::pump() {
  for (std::size_t c = 0; c < channels_.size() && queue_head_ < queue_.size(); ++c) {
    if (channels_[c].busy) continue;
    Channel& channel = channels_[c];
    channel.busy = true;
    channel.job = std::move(queue_[queue_head_++]);
    channel.offset = 0;
    channel.chunks = 0;
    step(c, /*own_event=*/false);
  }
  if (queue_head_ == queue_.size() && queue_head_ != 0) {
    queue_.clear();  // rewind; capacity is kept, so steady state is alloc-free
    queue_head_ = 0;
  }
}

void DmaEngine::finish(std::size_t channel, const DmaCompletion& done) {
  // Free the channel before delivering the completion: the callback may
  // reentrantly enqueue (closed-loop workloads do), and the moved-out
  // callback survives the channel taking its next job.
  Callback callback = std::move(channels_[channel].job.callback);
  channels_[channel].busy = false;
  if (callback) callback(done);
  pump();
}

void DmaEngine::continue_train(std::size_t channel, bool own_event, sim::Time when,
                               const char* label) {
  if (own_event) {
    sim_.rearm(when, label);
  } else {
    sim_.at(when, [this, channel] { step(channel, /*own_event=*/true); }, label);
  }
}

void DmaEngine::step(std::size_t channel, bool own_event) {
  Channel& train = channels_[channel];
  const std::uint64_t offset = train.offset;
  const std::size_t chunks = train.chunks;
  Job& job = train.job;
  if (offset >= job.descriptor.bytes) {
    DmaCompletion done;
    done.ok = true;
    done.bytes = job.descriptor.bytes;
    done.chunks = chunks;
    done.retries = job.retries;
    done.enqueued_at = job.enqueued_at;
    done.completed_at = sim_.now();
    ++completed_;
    // Transfer-grained telemetry (the per-chunk transactions already land
    // in the memsys.* histograms). Reads the job, so it runs before
    // finish() frees the channel.
    transfers_metric_.add();
    bytes_metric_.add(done.bytes);
    if (sim::Telemetry& telemetry = fabric_.telemetry(); telemetry.tracing()) {
      // Cold: tracing is opt-in, off on measured runs.
      sim::Span span{telemetry.tracer(), sim::TraceCategory::kFabric, "dma transfer",
                     done.enqueued_at};
      span.context(telemetry.tracer().child_of(job.descriptor.ctx));
      span.arg("bytes", std::to_string(done.bytes))  // dredbox-lint: ignore[hot-path-alloc] tracing-gated
          .arg("chunks", std::to_string(done.chunks))  // dredbox-lint: ignore[hot-path-alloc] tracing-gated
          .arg("direction", to_string(job.descriptor.direction));
      // dredbox-lint: ignore[hot-path-alloc] tracing-gated
      if (done.retries > 0) span.arg("retries", std::to_string(done.retries));
      span.end(done.completed_at);
    }
    finish(channel, done);
    return;
  }

  const auto span = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(chunk_bytes_, job.descriptor.bytes - offset));
  const std::uint64_t addr = job.descriptor.address + offset;
  const TransactionKind kind = job.descriptor.direction;
  // The chunk rides the channel's held route; the fabric walks (with its
  // recovery loop) whatever the held route cannot carry.
  const RemoteMemoryFabric::Outcome tx =
      fabric_.transact(train.held, kind, compute_, addr, span, sim_.now(), job.descriptor.ctx);
  if (!tx.ok()) {
    // Event-scheduled chunk retry: unlike the fabric's synchronous loop,
    // waiting on the simulator timeline lets queued recovery (a fault
    // plan's flap expiring, an orchestrator repair) land between attempts.
    if (fabric_.retry_policy().has_value()) {
      if (!job.backoff.has_value()) {
        job.backoff.emplace(*fabric_.retry_policy(), sim_.now());
      }
      if (const auto delay = job.backoff->next(sim_.now())) {
        ++job.retries;
        retries_metric_.add();
        continue_train(channel, own_event, sim_.now() + *delay, "memsys.dma.retry");
        return;
      }
    }
    DmaCompletion failed;
    failed.ok = false;
    // dredbox-lint: ignore[hot-path-alloc] cold: retry-exhausted failure, not steady state
    failed.error = sim::strformat("chunk at 0x%llx failed: %s",
                                  static_cast<unsigned long long>(addr),
                                  to_string(tx.status).c_str());
    failed.bytes = offset;
    failed.chunks = chunks;
    failed.retries = job.retries;
    failed.enqueued_at = job.enqueued_at;
    failed.completed_at = sim_.now();
    failed_metric_.add();
    finish(channel, failed);
    return;
  }

  // Issue the next chunk the moment this one's round trip completes; the
  // chunk landed, so the next one starts with a fresh backoff budget.
  job.backoff.reset();
  train.offset = offset + span;
  train.chunks = chunks + 1;
  continue_train(channel, own_event, tx.completed_at, "memsys.dma.step");
}
// dredbox-lint: hot-path-end

}  // namespace dredbox::memsys
