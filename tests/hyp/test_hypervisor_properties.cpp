#include <gtest/gtest.h>

#include "hyp/hypervisor.hpp"
#include "sim/random.hpp"

namespace dredbox::hyp {
namespace {

constexpr std::uint64_t kGiB = 1ull << 30;

/// Property suite: under any random interleaving of VM lifecycle,
/// expansion, shrink and balloon operations, the hypervisor's accounting
/// identities hold:
///   committed == sum of installed guest bytes
///   available == host_ram + ballooned - committed
///   cores_in_use == sum of guest vcpus
class HypervisorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  HypervisorPropertyTest()
      : brick_{hw::BrickId{1}, hw::TrayId{1}, config()},
        os_{brick_},
        hv_{brick_, os_, telemetry_} {}

  static hw::ComputeBrickConfig config() {
    hw::ComputeBrickConfig cfg;
    cfg.apu_cores = 8;
    cfg.local_memory_bytes = 8 * kGiB;
    return cfg;
  }

  void check_identities() {
    std::uint64_t installed = 0;
    std::size_t vcpus = 0;
    std::uint64_t ballooned = 0;
    for (hw::VmId id : hv_.vms()) {
      installed += hv_.vm(id).installed_bytes();
      vcpus += hv_.vm(id).vcpus();
      ballooned += hv_.vm(id).balloon_bytes();
    }
    ASSERT_EQ(hv_.committed_bytes(), installed);
    ASSERT_EQ(hv_.ballooned_bytes(), ballooned);
    ASSERT_EQ(brick_.cores_in_use(), vcpus);
    const std::uint64_t host = os_.total_ram_bytes() + ballooned;
    ASSERT_EQ(hv_.available_bytes(), host - hv_.committed_bytes());
    ASSERT_LE(hv_.committed_bytes(), host);
  }

  sim::Telemetry telemetry_;
  hw::ComputeBrick brick_;
  os::BareMetalOs os_;
  Hypervisor hv_;
};

TEST_P(HypervisorPropertyTest, AccountingSurvivesRandomOperations) {
  sim::Rng rng{GetParam()};
  std::vector<hw::VmId> vms;
  std::uint64_t next_remote_block = 0;
  std::uint32_t next_segment = 1;
  // (vm, segment) pairs whose DIMMs can be shrunk.
  std::vector<std::pair<hw::VmId, hw::SegmentId>> dimms;

  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.uniform_int(0, 5));
    switch (op) {
      case 0: {  // create
        const auto vcpus = static_cast<std::size_t>(rng.uniform_int(1, 3));
        const std::uint64_t mem = kGiB
                                  << static_cast<std::uint64_t>(rng.uniform_int(0, 1));
        auto vm = hv_.create_vm(vcpus, mem);
        if (vm) vms.push_back(*vm);
        break;
      }
      case 1: {  // destroy
        if (vms.empty()) break;
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(vms.size()) - 1));
        EXPECT_TRUE(hv_.destroy_vm(vms[idx]));
        dimms.erase(std::remove_if(dimms.begin(), dimms.end(),
                                   [&](const auto& d) { return d.first == vms[idx]; }),
                    dimms.end());
        vms.erase(vms.begin() + static_cast<std::ptrdiff_t>(idx));
        break;
      }
      case 2: {  // hot-add + expand
        if (vms.empty()) break;
        const hw::VmId vm = vms[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(vms.size()) - 1))];
        const std::uint64_t size = kGiB;
        const std::uint64_t base =
            brick_.config().remote_window_base + next_remote_block * kGiB;
        os_.attach_remote_memory(base, size);
        ++next_remote_block;
        const hw::SegmentId seg{next_segment++};
        hv_.expand_vm_memory(vm, size, seg, sim::Time::ms(step));
        dimms.emplace_back(vm, seg);
        break;
      }
      case 3: {  // shrink a previously expanded DIMM (legal only when the
                 // balloon leaves room — the kernel cannot offline frames
                 // the balloon holds)
        if (dimms.empty()) break;
        const auto idx = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(dimms.size()) - 1));
        const auto& guest = hv_.vm(dimms[idx].first);
        if (guest.balloon_bytes() + kGiB > guest.installed_bytes()) break;
        hv_.shrink_vm_memory(dimms[idx].first, dimms[idx].second);
        dimms.erase(dimms.begin() + static_cast<std::ptrdiff_t>(idx));
        break;
      }
      case 4: {  // balloon reclaim
        if (vms.empty()) break;
        const hw::VmId vm = vms[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(vms.size()) - 1))];
        if (hv_.vm(vm).usable_bytes() >= kGiB) hv_.balloon_reclaim(vm, kGiB / 2);
        break;
      }
      case 5: {  // balloon return (when the pages are still free)
        if (vms.empty()) break;
        const hw::VmId vm = vms[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(vms.size()) - 1))];
        const std::uint64_t b = hv_.vm(vm).balloon_bytes();
        if (b > 0 && hv_.available_bytes() >= b) hv_.balloon_return(vm, b);
        break;
      }
    }
    check_identities();
  }

  // Teardown to zero.
  for (hw::VmId vm : vms) EXPECT_TRUE(hv_.destroy_vm(vm));
  EXPECT_EQ(hv_.committed_bytes(), 0u);
  EXPECT_EQ(brick_.cores_in_use(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HypervisorPropertyTest,
                         ::testing::Values(5u, 17u, 59u, 97u, 151u));

}  // namespace
}  // namespace dredbox::hyp
