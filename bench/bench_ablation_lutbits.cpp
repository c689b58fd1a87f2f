/// \file bench_ablation_lutbits.cpp
/// The paper's remark (§IV-C1): "our results would even improve if we would
/// count only the LUT bits that have a different value for the different
/// modes, since this would increase the routing to LUT ratio." This bench
/// performs exactly that refinement: DCS rewrites only the parameterized
/// LUT bits (from the merged TLUT truth tables) instead of all LUT bits.

#include "bench_common.h"

using namespace mmflow;

int main() {
  set_log_level(LogLevel::Silent);
  const auto config = bench::BenchConfig::from_env();
  bench::print_header(
      "Extension: counting only differing LUT bits (paper §IV-C1)", config);

  std::printf("%-8s | %-22s | %-22s\n", "suite", "speed-up (all LUT bits)",
              "speed-up (diff LUT bits)");
  std::printf("---------+------------------------+------------------------\n");
  for (const std::string suite : {"RegExp", "FIR"}) {
    const auto benches = bench::build_suite(suite, config);
    Summary all_bits, diff_bits;
    for (const auto& b : benches) {
      const auto experiment = bench::run_one(
          b, config.flow_options(core::CombinedCost::WireLength), config);
      const auto metrics =
          core::reconfig_metrics(*experiment, bitstream::MuxEncoding::Binary);
      all_bits.add(metrics.dcs_speedup());

      // Refined DCS cost: parameterized LUT bits + parameterized routing.
      const arch::RoutingGraph rrg(experiment->region);
      const bitstream::ConfigModel model(rrg, bitstream::MuxEncoding::Binary);
      const auto lut_configs = core::dcs_lut_configs(*experiment);
      const auto param_lut = model.parameterized_lut_bits(lut_configs);
      const double refined =
          static_cast<double>(metrics.mdr_bits) /
          static_cast<double>(param_lut + metrics.dcs_param_routing_bits);
      diff_bits.add(refined);
    }
    std::printf("%-8s | %-22s | %-22s\n", suite.c_str(),
                bench::summary_str(all_bits).c_str(),
                bench::summary_str(diff_bits).c_str());
  }
  std::printf("\nAs predicted, counting only differing LUT bits improves the\n"
              "speed-up further (the LUT term stops dominating DCS's cost).\n");
  return 0;
}
