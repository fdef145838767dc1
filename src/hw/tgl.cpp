#include "hw/tgl.hpp"

#include "sim/contract.hpp"

namespace dredbox::hw {

std::optional<TglRoute> TransactionGlueLogic::route(std::uint64_t addr) {
  DREDBOX_AUDIT_INVARIANT(check_invariants());
  auto out = match(addr);
  if (!out) {
    ++misses_;
    return std::nullopt;
  }
  note_hit();
  return out;
}

std::optional<TglRoute> TransactionGlueLogic::match(std::uint64_t addr) const {
  const RmstEntry* entry = rmst_.find(addr);
  if (entry == nullptr) return std::nullopt;
  TglRoute out{entry, entry->dest_base + (addr - entry->base)};
  DREDBOX_ENSURE(out.remote_addr >= entry->dest_base &&
                     out.remote_addr - entry->dest_base < entry->size,
                 "routed address escapes the matched segment window");
  return out;
}

void TransactionGlueLogic::check_invariants() const {
  rmst_.check_invariants();
  // Every installed mapping must point somewhere routable: a valid
  // destination brick and an outgoing port the TGL can forward to.
  for (const RmstEntry& e : rmst_.entries()) {
    DREDBOX_INVARIANT(e.dest_brick.valid(),
                      "segment " + e.segment.to_string() + " maps to an invalid dMEMBRICK");
    DREDBOX_INVARIANT(window_fits(e.dest_base, e.size),
                      "segment " + e.segment.to_string() + " wraps the remote pool");
  }
}

}  // namespace dredbox::hw
