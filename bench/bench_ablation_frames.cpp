/// \file bench_ablation_frames.cpp
/// The paper's future-work extension (§IV-C1): real FPGAs reconfigure at
/// *frame* granularity. If the parameterized bits are the only ones that
/// must be written, only the frames containing them need reconfiguration;
/// the paper expects the routing reconfiguration speed-up to land "roughly
/// between 4x and 20x" depending on how well the bits cluster. This bench
/// measures touched-frame counts for several frame sizes.

#include "bench_common.h"

using namespace mmflow;

int main() {
  set_log_level(LogLevel::Silent);
  const auto config = bench::BenchConfig::from_env();
  bench::print_header("Extension: frame-granular reconfiguration (§IV-C1)",
                      config);

  const auto benches = bench::build_suite("RegExp", config);
  // One experiment per circuit, analysed at every frame granularity.
  struct Analysis {
    arch::ArchSpec region;
    std::vector<bitstream::RoutingState> states;
  };
  std::vector<Analysis> runs;
  for (const auto& b : benches) {
    const auto experiment = bench::run_one(
        b, config.flow_options(core::CombinedCost::WireLength), config);
    const arch::RoutingGraph rrg(experiment->region);
    runs.push_back(Analysis{
        experiment->region,
        experiment->dcs_routing.per_mode_states(rrg, experiment->dcs_problem)});
  }

  std::printf("%-12s | %-26s\n", "frame bits", "frames touched / total (avg)");
  std::printf("-------------+---------------------------\n");
  for (const int frame_bits : {32, 64, 128, 256}) {
    Summary touched_pct, reduction;
    for (const auto& run : runs) {
      const arch::RoutingGraph rrg(run.region);
      const bitstream::ConfigModel model(rrg, bitstream::MuxEncoding::Binary);
      std::uint64_t total = 0;
      const auto touched =
          model.parameterized_routing_frames(run.states, frame_bits, &total);
      touched_pct.add(100.0 * static_cast<double>(touched) /
                      static_cast<double>(total));
      reduction.add(static_cast<double>(total) /
                    std::max<double>(1.0, static_cast<double>(touched)));
    }
    std::printf("%-12d | %5.1f%% touched -> %5.1fx fewer frames than MDR\n",
                frame_bits, touched_pct.mean(), reduction.mean());
  }
  std::printf("\npaper expectation: routing reconfiguration speed-up roughly\n"
              "between 4x and 20x at frame granularity.\n");
  return 0;
}
