/// \file bench_ablation_encoding.cpp
/// Ablation: configuration-bit encoding of the routing muxes.
/// Binary (default, commercial style) puts routing:LUT bits at ~5:1 — the
/// regime matching the paper's numbers; one-hot (VPR pass-transistor style)
/// has a much larger routing share, so the same routing reduction yields a
/// larger *total* speed-up. The shape (DCS >> MDR) is encoding-independent.

#include "bench_common.h"

using namespace mmflow;

int main() {
  set_log_level(LogLevel::Silent);
  const auto config = bench::BenchConfig::from_env();
  bench::print_header("Ablation: mux-encoding of routing configuration bits",
                      config);

  const auto benches = bench::build_suite("RegExp", config);
  std::printf("%-28s | %-10s | %-10s\n", "metric", "binary", "one-hot");
  std::printf("-----------------------------+------------+-----------\n");

  Summary speedup_bin, speedup_onehot, ratio_bin, ratio_onehot;
  for (const auto& b : benches) {
    const auto experiment = bench::run_one(
        b, config.flow_options(core::CombinedCost::WireLength), config);
    const auto bin =
        core::reconfig_metrics(*experiment, bitstream::MuxEncoding::Binary);
    const auto onehot =
        core::reconfig_metrics(*experiment, bitstream::MuxEncoding::OneHot);
    speedup_bin.add(bin.dcs_speedup());
    speedup_onehot.add(onehot.dcs_speedup());
    ratio_bin.add(static_cast<double>(bin.region_routing_bits) /
                  static_cast<double>(bin.lut_bits));
    ratio_onehot.add(static_cast<double>(onehot.region_routing_bits) /
                     static_cast<double>(onehot.lut_bits));
  }
  std::printf("%-28s | %10.1f | %10.1f\n", "routing:LUT bit ratio",
              ratio_bin.mean(), ratio_onehot.mean());
  std::printf("%-28s | %10.2f | %10.2f\n", "DCS speed-up vs MDR",
              speedup_bin.mean(), speedup_onehot.mean());
  std::printf("\npaper regime: routing:LUT ~ 5:1, speed-up 4.6-5.1x.\n");
  return 0;
}
