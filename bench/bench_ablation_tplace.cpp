/// \file bench_ablation_tplace.cpp
/// Ablation: what happens to the edge-matching pipeline without the TPlace
/// re-placement? The paper's explanation of Fig. 7 is that wire length "is
/// best optimized during the combined placement ... and not after, with
/// TPlace, when the topology of the Tunable circuit is fixed". Here we
/// measure EdgeMatch with TPlace (paper pipeline) and without (keeping the
/// EdgeMatch placement, which ignored geometry altogether).

#include "bench_common.h"

using namespace mmflow;

int main() {
  set_log_level(LogLevel::Silent);
  const auto config = bench::BenchConfig::from_env();
  bench::print_header("Ablation: EdgeMatch with/without TPlace re-placement",
                      config);

  const auto benches = bench::build_suite("RegExp", config);
  std::printf("%-14s | %-26s | %-22s\n", "pipeline", "wires vs MDR avg[min,max]%",
              "speed-up avg [min,max]");
  std::printf("---------------+----------------------------+------------------\n");

  for (const bool tplace : {true, false}) {
    Summary wires, speedup;
    for (const auto& b : benches) {
      auto options = config.flow_options(core::CombinedCost::EdgeMatch);
      options.tplace_from_scratch_for_edgematch = tplace;
      const auto experiment = bench::run_one(b, options, config);
      const auto wl = core::wirelength_metrics(*experiment);
      for (std::size_t m = 0; m < wl.mdr.size(); ++m) {
        wires.add(100.0 * static_cast<double>(wl.dcs[m]) /
                  static_cast<double>(wl.mdr[m]));
      }
      speedup.add(
          core::reconfig_metrics(*experiment, bitstream::MuxEncoding::Binary)
              .dcs_speedup());
    }
    std::printf("%-14s | %-26s | %-22s\n",
                tplace ? "with TPlace" : "without",
                bench::summary_str(wires, 0).c_str(),
                bench::summary_str(speedup).c_str());
  }
  std::printf(
      "\nWithout TPlace the EdgeMatch placement (geometry-blind) produces\n"
      "dramatically longer per-mode wiring; TPlace repairs part of it but the\n"
      "frozen topology keeps it behind the wire-length engine (Fig. 7).\n");
  return 0;
}
