#include "hw/rmst.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/contract.hpp"

namespace dredbox::hw {

Rmst::Rmst(std::size_t capacity) : capacity_{capacity} {
  if (capacity == 0) throw std::invalid_argument("Rmst: capacity must be positive");
  entries_.reserve(capacity);
  index_.reserve(capacity);
}

void Rmst::insert(const RmstEntry& entry) {
  // Validate the entry itself before inspecting table state, so that an
  // invalid insert into a full table reports the real defect.
  if (entry.size == 0) throw std::invalid_argument("Rmst::insert: zero-sized segment");
  if (!entry.segment.valid()) throw std::invalid_argument("Rmst::insert: invalid segment id");
  if (!window_fits(entry.base, entry.size)) {
    throw std::invalid_argument("Rmst::insert: window wraps the address space");
  }
  if (full()) {
    throw std::logic_error("Rmst::insert: table full (" + std::to_string(capacity_) +
                           " entries)");
  }
  for (const auto& e : entries_) {
    if (e.segment == entry.segment) {
      throw std::logic_error("Rmst::insert: duplicate segment id " + entry.segment.to_string());
    }
    if (!windows_disjoint(entry.base, entry.size, e.base, e.size)) {
      throw std::logic_error("Rmst::insert: window overlaps existing segment " +
                             e.segment.to_string());
    }
  }
  // reserve(capacity) in the constructor + the full() check above mean
  // this push_back never reallocates, so find()'s returned pointers are
  // only invalidated by the mutations documented to do so.
  entries_.push_back(entry);
  const auto pos = static_cast<std::uint32_t>(entries_.size() - 1);
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), entry.base,
      [](const auto& p, std::uint64_t base) { return p.first < base; });
  index_.insert(it, {entry.base, pos});
  mru_ = kNoEntry;
  DREDBOX_AUDIT_INVARIANT(check_invariants());
}

bool Rmst::remove(SegmentId segment) {
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->segment == segment) {
      entries_.erase(it);
      rebuild_index();
      DREDBOX_AUDIT_INVARIANT(check_invariants());
      return true;
    }
  }
  return false;
}

void Rmst::clear() {
  entries_.clear();
  index_.clear();
  mru_ = kNoEntry;
}

void Rmst::rebuild_index() {
  // Erasing shifts the positions of every later entry, so rebuild from
  // scratch; n is bounded by the comparator budget (default 32).
  index_.clear();
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    index_.emplace_back(entries_[i].base, i);
  }
  std::sort(index_.begin(), index_.end());
  mru_ = kNoEntry;
}

const RmstEntry* Rmst::find(std::uint64_t addr) const {
  // TGL fast path: the segment that served the last access serves the
  // next one in the common (run-length clustered) case.
  if (mru_ != kNoEntry) {
    const RmstEntry& hit = entries_[mru_];
    if (hit.contains(addr)) return &hit;
  }
  // Windows are pairwise disjoint, so the entry with the greatest
  // base <= addr is the only possible match.
  const auto it = std::upper_bound(
      index_.begin(), index_.end(), addr,
      [](std::uint64_t a, const auto& p) { return a < p.first; });
  if (it == index_.begin()) return nullptr;
  const std::uint32_t pos = std::prev(it)->second;
  const RmstEntry& e = entries_[pos];
  if (!e.contains(addr)) return nullptr;
  mru_ = pos;
  return &e;
}

std::optional<RmstEntry> Rmst::find_segment(SegmentId segment) const {
  for (const auto& e : entries_) {
    if (e.segment == segment) return e;
  }
  return std::nullopt;
}

std::uint64_t Rmst::mapped_bytes() const {
  std::uint64_t total = 0;
  for (const auto& e : entries_) total += e.size;
  return total;
}

void Rmst::check_invariants() const {
  DREDBOX_INVARIANT(entries_.size() <= capacity_,
                    "RMST holds " + std::to_string(entries_.size()) +
                        " entries, exceeding its associativity bound of " +
                        std::to_string(capacity_));
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const RmstEntry& e = entries_[i];
    DREDBOX_INVARIANT(e.segment.valid(), "entry " + std::to_string(i) + " has an invalid segment id");
    DREDBOX_INVARIANT(e.size > 0, "segment " + e.segment.to_string() + " maps a zero-sized window");
    DREDBOX_INVARIANT(window_fits(e.base, e.size),
                      "segment " + e.segment.to_string() + " wraps the address space");
    // Pairwise: unique segment ids and disjoint windows. n is bounded by the
    // comparator budget (default 32), so O(n^2) is fine for an audit.
    for (std::size_t j = i + 1; j < entries_.size(); ++j) {
      const RmstEntry& f = entries_[j];
      DREDBOX_INVARIANT(e.segment != f.segment,
                        "duplicate segment id " + e.segment.to_string());
      DREDBOX_INVARIANT(windows_disjoint(e.base, e.size, f.base, f.size),
                        "windows of segments " + e.segment.to_string() + " and " +
                            f.segment.to_string() + " overlap");
    }
  }

  // The interval index must be a base-sorted permutation of the entries,
  // and the MRU cache must reference a live slot (or nothing).
  DREDBOX_INVARIANT(index_.size() == entries_.size(),
                    "RMST index covers " + std::to_string(index_.size()) + " of " +
                        std::to_string(entries_.size()) + " entries");
  std::vector<bool> seen(entries_.size(), false);
  for (std::size_t k = 0; k < index_.size(); ++k) {
    const auto& [base, pos] = index_[k];
    DREDBOX_INVARIANT(pos < entries_.size(), "RMST index references a dead slot");
    DREDBOX_INVARIANT(!seen[pos], "RMST index references a slot twice");
    seen[pos] = true;
    DREDBOX_INVARIANT(entries_[pos].base == base,
                      "RMST index key diverges from the entry base of segment " +
                          entries_[pos].segment.to_string());
    DREDBOX_INVARIANT(k == 0 || index_[k - 1].first < base,
                      "RMST index is not strictly base-sorted");
  }
  DREDBOX_INVARIANT(mru_ == kNoEntry || mru_ < entries_.size(),
                    "RMST MRU cache references a dead slot");
}

}  // namespace dredbox::hw
