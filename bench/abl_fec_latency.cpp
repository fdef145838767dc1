// Ablation: the FEC-free interface requirement (Section III). "The
// dReDBox architecture requires a FEC-free optical interface between
// dBRICKs, as the presence of FEC can potentially introduce more than
// 100 ns of latency, which degrades the performance of a disaggregated
// system." This bench quantifies both sides of that trade-off: the
// latency penalty of adding RS-FEC to the remote-memory path, and the
// coding gain it would buy on marginal links.

#include "optics/fec.hpp"
#include "optics/receiver.hpp"
#include "repro.hpp"

namespace dredbox::repro {
namespace {

double round_trip_ns(optics::FecScheme scheme) {
  return PacketPair{hw::BrickId{1}, hw::BrickId{2}, scheme}
      .read(64, sim::Time::zero())
      .latency()
      .as_ns();
}

}  // namespace

void abl_fec_latency(Report& report) {
  std::printf("=== Ablation: FEC-free vs RS-FEC on the remote-memory path ===\n\n");

  const double base_ns = round_trip_ns(optics::FecScheme::kNone);
  sim::TextTable table{{"interface", "added latency/traversal", "round trip (ns)",
                        "penalty", "pre-FEC BER tolerated for 1e-12"}};
  const optics::ReceiverModel rx{-16.5, 10.0};
  for (auto scheme : {optics::FecScheme::kNone, optics::FecScheme::kRsLight,
                      optics::FecScheme::kRsStrong}) {
    const optics::FecModel fec{scheme};
    const double rt = round_trip_ns(scheme);
    const double tolerated =
        scheme == optics::FecScheme::kNone ? 1e-12 : fec.correction_threshold();
    table.add_row({to_string(scheme), fec.added_latency().to_string(),
                   sim::TextTable::num(rt, 0),
                   sim::TextTable::pct((rt - base_ns) / base_ns),
                   sim::TextTable::sci(tolerated)});
  }
  std::printf("%s\n", table.to_string().c_str());

  // What the coding gain is worth in dB on the link budget.
  const double p_raw = rx.required_power_dbm(1e-12);
  const double p_light = rx.required_power_dbm(optics::FecModel{optics::FecScheme::kRsLight}
                                                   .correction_threshold());
  const double p_strong = rx.required_power_dbm(optics::FecModel{optics::FecScheme::kRsStrong}
                                                    .correction_threshold());
  std::printf("Link-budget view (power needed at the receiver):\n");
  std::printf("  FEC-free (raw 1e-12):      %.2f dBm\n", p_raw);
  std::printf("  RS(528,514):               %.2f dBm  (%.1f dB coding gain => ~%.0f more 1 dB hops)\n",
              p_light, p_raw - p_light, p_raw - p_light);
  std::printf("  RS(544,514):               %.2f dBm  (%.1f dB coding gain)\n", p_strong,
              p_raw - p_strong);

  const double penalty_light = round_trip_ns(optics::FecScheme::kRsLight) - base_ns;
  std::printf("\n");
  report.check("RS(528,514) added latency per traversal (ns)", "§III", penalty_light / 2.0,
               above(100.0));
  std::printf("Verdict: in-rack budgets close at 6-8 hops without FEC (see fig7_ber),\n");
  std::printf("so dReDBox keeps the interface FEC-free and banks the latency.\n");
}

}  // namespace dredbox::repro
