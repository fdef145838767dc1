// Ablation: dMEMBRICK link usage (Section II). "dMEMBRICKs can support
// multiple links. These links can be used to provide more aggregate
// bandwidth, or can be partitioned by orchestrator software and assigned
// to different dCOMPUBRICKs, depending on the resource allocation policy."
// This bench measures both modes: burst completion time with 1/2/4
// aggregated links, and isolation when two dCOMPUBRICKs share vs own
// their links.

#include "repro.hpp"
#include "sim/stats.hpp"

namespace dredbox::repro {
namespace {

/// Time for `burst` back-to-back 4 KiB reads from one compute brick using
/// `links` parallel links on the dMEMBRICK side.
double burst_completion_us(std::size_t links, int burst) {
  sim::Telemetry telemetry;
  net::PacketNetwork network{telemetry};
  const hw::BrickId cpu{1}, mem{2};
  network.add_brick(cpu, links);
  network.add_brick(mem, links);
  network.connect_multipath(cpu, mem, links, 10.0);
  sim::Time done;
  for (int i = 0; i < burst; ++i) {
    done = network.remote_read(cpu, mem, 0x0, 4096, sim::Time::zero()).delivered_at;
  }
  return done.as_us();
}

}  // namespace

void abl_link_partitioning(Report& report) {
  std::printf("=== Ablation: dMEMBRICK link aggregation vs partitioning ===\n\n");

  constexpr int kBurst = 64;
  std::printf("Mode A: aggregate bandwidth (round-robin over parallel links)\n");
  sim::TextTable agg{{"links", "64x4KiB burst (us)", "speedup"}};
  const double base = burst_completion_us(1, kBurst);
  for (std::size_t links : {1u, 2u, 4u, 8u}) {
    const double t = burst_completion_us(links, kBurst);
    agg.add_row({std::to_string(links), sim::TextTable::num(t, 1),
                 sim::TextTable::num(base / t, 2) + "x"});
  }
  std::printf("%s\n", agg.to_string().c_str());

  std::printf("Mode B: partitioning (two dCOMPUBRICKs on one dMEMBRICK)\n");
  // Shared: both bricks' traffic multiplexes over the same single link.
  sim::Telemetry telemetry;
  net::PacketNetwork shared{telemetry};
  const hw::BrickId cpu1{1}, cpu2{2}, mem{3};
  shared.add_brick(cpu1, 1);
  shared.add_brick(cpu2, 1);
  shared.add_brick(mem, 1);
  shared.connect(cpu1, mem, 10.0);
  shared.connect(cpu2, mem, 10.0);
  sim::SampleSet shared_lat;
  for (int i = 0; i < kBurst; ++i) {
    // Interleaved bursts from both bricks arriving together contend on the
    // dMEMBRICK's single egress for the responses.
    shared_lat.add(shared.remote_read(cpu1, mem, 0x0, 4096, sim::Time::zero()).latency().as_us());
    shared_lat.add(shared.remote_read(cpu2, mem, 0x0, 4096, sim::Time::zero()).latency().as_us());
  }

  // Partitioned: the orchestrator assigns each brick its own link (its own
  // egress port on the dMEMBRICK switch).
  net::PacketNetwork split{telemetry};
  split.add_brick(cpu1, 1);
  split.add_brick(cpu2, 1);
  split.add_brick(mem, 2);
  split.connect(cpu1, mem, 10.0);
  split.connect(cpu2, mem, 10.0);
  split.switch_of(mem).program_route(cpu1, 0);
  split.switch_of(mem).program_route(cpu2, 1);
  sim::SampleSet split_lat;
  for (int i = 0; i < kBurst; ++i) {
    split_lat.add(split.remote_read(cpu1, mem, 0x0, 4096, sim::Time::zero()).latency().as_us());
    split_lat.add(split.remote_read(cpu2, mem, 0x0, 4096, sim::Time::zero()).latency().as_us());
  }

  sim::TextTable part{{"configuration", "mean RT (us)", "p95 RT (us)", "max RT (us)"}};
  part.add_row({"shared single link", sim::TextTable::num(shared_lat.mean(), 1),
                sim::TextTable::num(shared_lat.percentile(95), 1),
                sim::TextTable::num(shared_lat.max(), 1)});
  part.add_row({"partitioned (1 link each)", sim::TextTable::num(split_lat.mean(), 1),
                sim::TextTable::num(split_lat.percentile(95), 1),
                sim::TextTable::num(split_lat.max(), 1)});
  std::printf("%s\n", part.to_string().c_str());

  // Mode C: lane bonding on the mainline circuit path (the same
  // aggregate-bandwidth idea without packet framing).
  std::printf("Mode C: bonded lanes on the circuit-switched mainline (16 KiB read)\n");
  sim::TextTable bond_tbl{{"lanes", "round trip (us)", "switch ports"}};
  for (std::size_t lanes : {1u, 2u, 4u}) {
    CircuitRack fab;
    const hw::BrickId cpu = fab.rack.add_compute_brick(fab.tray_a).id();
    const hw::BrickId memb = fab.rack.add_memory_brick(fab.tray_b).id();
    const auto a = fab.attach(cpu, memb, kGiB, lanes);
    const auto tx = fab.fabric.read(cpu, a.compute_base, 16384, sim::Time::zero());
    bond_tbl.add_row({std::to_string(lanes),
                      sim::TextTable::num(tx.round_trip().as_us(), 2),
                      std::to_string(fab.sw.ports_in_use())});
  }
  std::printf("%s\n", bond_tbl.to_string().c_str());

  report.check("64x4 KiB burst time (us) over 4 aggregated links vs half of 1 link", "§II",
               burst_completion_us(4, kBurst), below(0.5 * base));
  report.check("mean RT (us) with partitioned links vs one shared link", "§II", split_lat.mean(),
               below(shared_lat.mean()));
}

}  // namespace dredbox::repro
