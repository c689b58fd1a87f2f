/// \file bench_fig6_breakdown.cpp
/// Reproduces Fig. 6: relative contribution of LUT and routing bits to the
/// reconfiguration cost for the RegExp application, in three scenarios:
///   RegExp-MDR  — whole region rewritten;
///   RegExp-Diff — all LUTs + only the routing bits that differ between the
///                 two modes' MDR configurations;
///   RegExp-DCS  — all LUTs + the parameterized routing bits.
/// Paper: the LUT bits are identical in all cases; routing shrinks ~5x from
/// MDR to Diff and ~4x more from Diff to DCS (~20x total).

#include "bench_common.h"

using namespace mmflow;

int main() {
  set_log_level(LogLevel::Silent);
  const auto config = bench::BenchConfig::from_env();
  bench::print_header(
      "Fig. 6: LUT vs routing contribution to reconfiguration time (RegExp)",
      config);

  const auto benches = bench::build_suite("RegExp", config);
  Summary mdr_lut_pct, diff_lut_pct, dcs_lut_pct;
  Summary reduction_diff, reduction_dcs, diff_to_dcs;
  for (const auto& b : benches) {
    const auto record = bench::make_record(
        b.name,
        *bench::run_one(
            b, config.flow_options(core::CombinedCost::WireLength), config));
    const auto& m = record.reconfig;
    mdr_lut_pct.add(100.0 * static_cast<double>(m.lut_bits) /
                    static_cast<double>(m.mdr_bits));
    diff_lut_pct.add(100.0 * static_cast<double>(m.lut_bits) /
                     static_cast<double>(m.diff_bits));
    dcs_lut_pct.add(100.0 * static_cast<double>(m.lut_bits) /
                    static_cast<double>(m.dcs_bits));
    reduction_diff.add(m.routing_reduction_diff());
    reduction_dcs.add(m.routing_reduction_dcs());
    diff_to_dcs.add(static_cast<double>(m.diff_routing_bits) /
                    static_cast<double>(m.dcs_param_routing_bits));
  }

  std::printf("%-12s | %-10s | %-10s\n", "scenario", "LUT share",
              "routing share");
  std::printf("-------------+------------+------------\n");
  auto row = [](const char* name, const Summary& lut) {
    std::printf("%-12s | %8.1f%%  | %8.1f%%\n", name, lut.mean(),
                100.0 - lut.mean());
  };
  row("RegExp-MDR", mdr_lut_pct);
  row("RegExp-Diff", diff_lut_pct);
  row("RegExp-DCS", dcs_lut_pct);

  std::printf("\nrouting-bit reduction factors (avg [min,max]):\n");
  std::printf("  MDR -> Diff : %s   (paper: ~5x, the region-based waste)\n",
              bench::summary_str(reduction_diff, 1).c_str());
  std::printf("  Diff -> DCS : %s   (paper: ~4x, the combined implementation)\n",
              bench::summary_str(diff_to_dcs, 1).c_str());
  std::printf("  MDR -> DCS  : %s   (paper: ~20x total)\n",
              bench::summary_str(reduction_dcs, 1).c_str());
  return 0;
}
