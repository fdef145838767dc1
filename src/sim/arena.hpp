#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/contract.hpp"

namespace dredbox::sim {

/// Fixed-block arena/pool allocator with stable addresses, dense slot
/// indices and per-slot generation counters.
///
/// The event kernel allocates one node per scheduled event; a general-
/// purpose heap charges a malloc/free pair plus cache-cold metadata for
/// each, which BENCH_pr4-pr7 show dominating the ~250 ns/event queue
/// overhead. This pool replaces that with a freelist pop/push over
/// chunk-contiguous blocks. It is deliberately generic — transactions and
/// packets can pool through it the same way (ROADMAP item 1).
///
/// Guarantees:
///   * O(1) create/destroy. A freed slot is always reused before the
///     arena grows (LIFO freelist; tested by the arena property suite).
///   * Stable addresses: blocks live in fixed chunks that never move, so
///     raw pointers into the arena survive growth. The arena is
///     consequently movable but not copyable.
///   * Alignment: every block satisfies alignof(T), including the first
///     block of every chunk (tested with over-aligned types).
///   * Dense slot indices: create() returns (pointer, slot); get(slot)
///     is two indexed loads. Callers can pack the slot into external
///     handles (the event queue packs slot+generation into EventId).
///   * ABA protection: each slot carries a generation, bumped on every
///     destroy (wrapping past 0, which is never a valid generation), so
///     a stale handle to a reused slot can be rejected.
///   * No leaks: clear() and the destructor run the destructor of every
///     live object (the ASan job covers this via the arena tests).
template <typename T>
class IndexedArena {
 public:
  /// Blocks added per growth step. Power of two so slot->chunk mapping
  /// is a shift/mask rather than a division.
  static constexpr std::size_t kBlocksPerChunk = 1024;

  IndexedArena() = default;
  ~IndexedArena() { clear(); }

  IndexedArena(const IndexedArena&) = delete;
  IndexedArena& operator=(const IndexedArena&) = delete;
  IndexedArena(IndexedArena&&) noexcept = default;
  IndexedArena& operator=(IndexedArena&&) noexcept = default;

  /// Constructs a T in a pooled block. Returns the object plus its slot
  /// index. Reuses the most recently freed block; grows by one chunk only
  /// when every block is live.
  template <typename... Args>
  std::pair<T*, std::uint32_t> create(Args&&... args) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      if (bump_ == capacity()) grow();
      slot = bump_++;
    }
    Block& block = block_ref(slot);
    // Placement-new into the reserved block: the pool owns the storage
    // and clear()/~IndexedArena run the destructor of every live object,
    // so ownership never leaves the arena.
    // dredbox-lint: ignore[raw-new]
    T* object = ::new (static_cast<void*>(block.storage)) T(std::forward<Args>(args)...);
    block.live = true;
    ++live_;
    return {object, slot};
  }

  /// Destroys the object in `slot` and recycles the block. The slot's
  /// generation is bumped so handles minted before this destroy can be
  /// told apart from handles to the slot's next tenant.
  void destroy(std::uint32_t slot) {
    Block& block = block_ref(slot);
    DREDBOX_INVARIANT(block.live, "IndexedArena::destroy of a dead slot");
    object_of(block)->~T();
    block.live = false;
    bump(block);
    free_.push_back(slot);
    --live_;
  }

  /// Bumps the generation of a live `slot` without destroying its object,
  /// so every handle minted so far goes stale while the object stays put
  /// (the event queue retires a firing node's handle this way).
  void bump_generation(std::uint32_t slot) {
    Block& block = block_ref(slot);
    DREDBOX_REQUIRE(block.live, "IndexedArena::bump_generation of a dead slot");
    bump(block);
  }

  /// The live object in `slot`, or nullptr when the slot is out of range
  /// or currently free.
  T* get(std::uint32_t slot) {
    if (slot >= bump_) return nullptr;
    Block& block = block_ref(slot);
    return block.live ? object_of(block) : nullptr;
  }
  const T* get(std::uint32_t slot) const {
    return const_cast<IndexedArena*>(this)->get(slot);
  }

  /// Current generation of `slot`; 0 (never a valid generation) when the
  /// slot has not been allocated yet.
  std::uint32_t generation(std::uint32_t slot) const {
    return slot < bump_ ? block_ref(slot).generation : 0;
  }

  /// Destroys every live object and recycles all blocks. Chunks are kept
  /// for reuse; generations keep counting so pre-clear handles stay dead.
  void clear() {
    for (std::uint32_t slot = 0; slot < bump_; ++slot) {
      if (block_ref(slot).live) destroy(slot);
    }
  }

  std::size_t live() const { return live_; }
  std::size_t capacity() const { return chunks_.size() * kBlocksPerChunk; }
  std::size_t chunks() const { return chunks_.size(); }
  /// Blocks immediately reusable without growing (freelist + never-used).
  std::size_t free_blocks() const { return capacity() - live_; }

  /// Deep audit: freelist is duplicate-free, covers exactly the dead
  /// initialized slots, every block is correctly aligned and every
  /// generation is non-zero. O(capacity); wired into the arena tests and
  /// the event queue's DREDBOX_AUDIT=ON invariant sweep.
  void check_invariants() const {
    DREDBOX_INVARIANT(bump_ <= capacity(), "IndexedArena: bump cursor beyond capacity");
    DREDBOX_INVARIANT(free_.size() + live_ == bump_,
                      "IndexedArena: freelist size " + std::to_string(free_.size()) +
                          " + live " + std::to_string(live_) + " != initialized " +
                          std::to_string(bump_));
    std::vector<bool> freed(bump_, false);
    for (std::uint32_t slot : free_) {
      DREDBOX_INVARIANT(slot < bump_, "IndexedArena: freelist entry beyond bump cursor");
      DREDBOX_INVARIANT(!freed[slot], "IndexedArena: slot appears twice in the freelist");
      DREDBOX_INVARIANT(!block_ref(slot).live, "IndexedArena: live slot in the freelist");
      freed[slot] = true;
    }
    std::size_t live_seen = 0;
    for (std::uint32_t slot = 0; slot < bump_; ++slot) {
      const Block& block = block_ref(slot);
      DREDBOX_INVARIANT(block.generation != 0, "IndexedArena: generation 0 is reserved");
      DREDBOX_INVARIANT(
          reinterpret_cast<std::uintptr_t>(block.storage) % alignof(T) == 0,
          "IndexedArena: misaligned block");
      if (block.live) ++live_seen;
    }
    DREDBOX_INVARIANT(live_seen == live_, "IndexedArena: live count disagrees with blocks");
  }

 private:
  struct Block {
    alignas(alignof(T)) unsigned char storage[sizeof(T)];
    std::uint32_t generation = 1;
    bool live = false;
  };

  static void bump(Block& block) {
    block.generation = block.generation == UINT32_MAX ? 1 : block.generation + 1;
  }

  static T* object_of(Block& block) {
    return std::launder(reinterpret_cast<T*>(block.storage));
  }

  Block& block_ref(std::uint32_t slot) {
    return chunks_[slot / kBlocksPerChunk][slot % kBlocksPerChunk];
  }
  const Block& block_ref(std::uint32_t slot) const {
    return chunks_[slot / kBlocksPerChunk][slot % kBlocksPerChunk];
  }

  void grow() {
    // Default-initialization, not value-initialization: the Block ctor
    // (via its member initializers) still sets generation/live, but the
    // payload bytes stay uninitialized instead of being zeroed — growth
    // would otherwise memset kBlocksPerChunk * sizeof(T) per chunk.
    chunks_.push_back(std::make_unique_for_overwrite<Block[]>(kBlocksPerChunk));
  }

  /// Chunks of blocks; never shrunk, never relocated (the vector of
  /// unique_ptrs may grow, the chunks themselves stay put).
  std::vector<std::unique_ptr<Block[]>> chunks_;
  /// LIFO freelist of recycled slot indices.
  std::vector<std::uint32_t> free_;
  /// Slots [0, bump_) have been handed out at least once.
  std::uint32_t bump_ = 0;
  std::size_t live_ = 0;
};

}  // namespace dredbox::sim
