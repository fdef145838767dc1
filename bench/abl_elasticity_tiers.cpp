// Ablation: the four elasticity tiers available to a dReDBox VM, fastest
// to slowest. The paper's Fig. 10 compares tier 3 (attach disaggregated
// memory) against tier 4 (conventional scale-out); the revisited
// ballooning subsystem (project objectives) adds tiers 1-2 below it.
//
//   1. balloon rebalance   — reclaim from a co-located guest, no fabric
//   2. intra-tray attach   — electrical circuit, no switch programming
//   3. cross-tray attach   — optical circuit through the rack switch
//   4. scale-out           — spawn another VM [13]

#include "orch/scale_out.hpp"
#include "repro.hpp"
#include "sim/format.hpp"

namespace dredbox::repro {

void abl_elasticity_tiers(Report& report) {
  std::printf("=== Ablation: elasticity tiers (1 GiB grant each) ===\n\n");

  ManagedRack fab;
  hw::Rack& rack = fab.rack;
  orch::SdmController& sdm = fab.sdm;
  hw::ComputeBrickConfig cc;
  cc.apu_cores = 4;
  cc.local_memory_bytes = 8 * kGiB;
  fab.add_compute(fab.tray_a, cc);

  hw::MemoryBrickConfig mc;
  mc.capacity_bytes = 32 * kGiB;
  const hw::BrickId local_mb = rack.add_memory_brick(fab.tray_a, mc).id();
  const hw::BrickId remote_mb = rack.add_memory_brick(fab.tray_b, mc).id();

  orch::AllocationRequest req;
  req.vcpus = 1;
  req.memory_bytes = 4 * kGiB;
  const auto donor = sdm.allocate_vm(req, sim::Time::zero());
  req.memory_bytes = 2 * kGiB;
  const auto taker = sdm.allocate_vm(req, sim::Time::zero());
  if (!donor.ok || !taker.ok) throw std::runtime_error("boot failed");

  sim::TextTable table{{"tier", "mechanism", "delay", "fabric state touched"}};

  // Tier 1: balloon rebalance.
  const auto t1 = sdm.rebalance(donor.vm, taker.vm, donor.compute, kGiB, sim::Time::sec(10));
  table.add_row({"1", "balloon rebalance (co-located donor)", t1.delay().to_string(),
                 "none"});

  // Tier 2: intra-tray attach (electrical). Force the local membrick by
  // exhausting nothing — the SDM-C already prefers it.
  orch::ScaleUpRequest s2;
  s2.vm = taker.vm;
  s2.compute = taker.compute;
  s2.bytes = kGiB;
  s2.posted_at = sim::Time::sec(20);
  const auto t2 = sdm.scale_up(s2);
  if (!t2.ok || t2.membrick != local_mb) {
    throw std::runtime_error("tier-2 setup unexpected (mb=" + t2.membrick.to_string() + ")");
  }
  table.add_row({"2", "attach, intra-tray electrical", t2.delay().to_string(),
                 "RMST + backplane lane"});

  // Tier 3: cross-tray attach (optical). Fill the local membrick first so
  // selection must go cross-tray.
  auto filler = rack.memory_brick(local_mb).allocate(
      rack.memory_brick(local_mb).largest_free_extent(), hw::BrickId{});
  orch::ScaleUpRequest s3 = s2;
  s3.posted_at = sim::Time::sec(30);
  const auto t3 = sdm.scale_up(s3);
  if (!t3.ok || t3.membrick != remote_mb) throw std::runtime_error("tier-3 setup unexpected");
  table.add_row({"3", "attach, cross-tray optical", t3.delay().to_string(),
                 "RMST + circuit + switch ports"});
  if (filler) rack.memory_brick(local_mb).release(filler->id);

  // Tier 4: conventional scale-out.
  orch::ScaleOutBaseline baseline;
  sim::Rng rng{7};
  const auto t4 = baseline.spawn(sim::Time::sec(40), rng);
  table.add_row({"4", "scale-out: spawn another VM [13]", t4.delay().to_string(),
                 "new instance + image copy"});

  std::printf("%s\n", table.to_string().c_str());

  const double delays_s[] = {t1.delay().as_sec(), t2.delay().as_sec(), t3.delay().as_sec(),
                             t4.delay().as_sec()};
  for (int tier = 1; tier < 4; ++tier) {
    report.check(sim::strformat("tier %d delay (s) vs tier %d", tier, tier + 1), "Fig. 10",
                 delays_s[tier - 1], below(delays_s[tier]));
  }
  std::printf("\nThe SDM-C exploits this ladder: ballooning redistributes what the\n");
  std::printf("brick already holds; the fabric only gets touched when genuinely new\n");
  std::printf("memory is needed, and the optical switch only for cross-tray grants.\n");
}

}  // namespace dredbox::repro
