/// \file bench_perf_place.cpp
/// Throughput benchmarks for the placement engines: the conventional
/// VPR-style annealer and the multi-mode combined placement. Emits JSON
/// with wall times, QoR guard rails (final cost, move counts) and the
/// placer's perf counters — see bench_json.h for the format.

#include <string>

#include "aig/bridge.h"
#include "apps/suites.h"
#include "bench_json.h"
#include "common/log.h"
#include "core/combined_place.h"
#include "core/flows.h"
#include "place/placer.h"
#include "techmap/mapper.h"

namespace {

using namespace mmflow;

techmap::LutCircuit random_mode(int gates, std::uint64_t seed) {
  Rng rng(seed);
  netlist::Netlist nl("m");
  std::vector<netlist::SignalId> pool;
  for (int i = 0; i < 8; ++i) pool.push_back(nl.add_input("i" + std::to_string(i)));
  for (int g = 0; g < gates; ++g) {
    const auto a = pool[rng.next_below(pool.size())];
    const auto b = pool[rng.next_below(pool.size())];
    pool.push_back(rng.next_bool(0.5) ? nl.add_xor(a, b) : nl.add_and(a, b));
  }
  for (int i = 0; i < 6; ++i) {
    nl.add_output("o" + std::to_string(i), pool[pool.size() - 1 - i]);
  }
  return techmap::map_to_luts(aig::aig_from_netlist(nl));
}

void combined_place_case(bench::PerfBench& harness, int num_modes, int reps) {
  std::vector<techmap::LutCircuit> modes;
  for (int m = 0; m < num_modes; ++m) {
    modes.push_back(random_mode(150, static_cast<std::uint64_t>(m + 1)));
  }
  int max_clbs = 0;
  int max_ios = 0;
  for (const auto& m : modes) {
    max_clbs = std::max<int>(max_clbs, static_cast<int>(m.num_blocks()));
    max_ios = std::max<int>(max_ios,
                            static_cast<int>(m.num_pis() + m.num_pos()));
  }
  const arch::DeviceGrid grid(arch::size_device(max_clbs, max_ios, 1.3));
  core::CombinedPlaceOptions options;
  options.anneal.inner_num = 3.0;
  options.seed = 1;
  harness.run_case(
      "combined_place/modes=" + std::to_string(num_modes) + "/gates=150", reps,
      [&] {
        core::CombinedPlaceStats stats;
        const auto result = core::combined_place(modes, grid, options, &stats);
        (void)result;
        return std::vector<bench::QorEntry>{
            {"initial_cost", stats.initial_cost},
            {"final_cost", stats.final_cost},
            {"moves_attempted", static_cast<double>(stats.moves_attempted)},
            {"moves_accepted", static_cast<double>(stats.moves_accepted)}};
      });
}

/// The EdgeMatch engine at the shape the end-to-end flow hands it: the
/// first FIR pair on the flow's region, at the inner_num of the benchmark's
/// `edgematch_suites` workload. `pair_probes` / `pair_updates` in the perf
/// block are its work per move.
void edgematch_fir_case(bench::PerfBench& harness, int reps) {
  apps::SuiteOptions suite_options;
  suite_options.limit_pairs = 1;
  const auto modes = apps::suite_by_name("fir", suite_options).front().modes;
  int max_clbs = 0;
  int max_ios = 0;
  for (const auto& m : modes) {
    max_clbs = std::max<int>(max_clbs, static_cast<int>(m.num_blocks()));
    max_ios = std::max<int>(max_ios,
                            static_cast<int>(m.num_pis() + m.num_pos()));
  }
  const arch::DeviceGrid grid(arch::size_device(
      max_clbs, max_ios, core::FlowOptions{}.area_slack, 2, modes[0].k()));
  core::CombinedPlaceOptions options;
  options.cost = core::CombinedCost::EdgeMatch;
  options.anneal.inner_num = 1.5;
  options.seed = 1;
  harness.run_case("combined_place_edgematch/fir_pair=1/inner=1.5", reps, [&] {
    core::CombinedPlaceStats stats;
    const auto result = core::combined_place(modes, grid, options, &stats);
    (void)result;
    return std::vector<bench::QorEntry>{
        {"initial_cost", stats.initial_cost},
        {"final_cost", stats.final_cost},
        {"moves_attempted", static_cast<double>(stats.moves_attempted)},
        {"moves_accepted", static_cast<double>(stats.moves_accepted)}};
  });
}

void place_case(bench::PerfBench& harness, int gates, int reps) {
  const auto mode = random_mode(gates, 1);
  const auto netlist = place::to_place_netlist(mode);
  const arch::DeviceGrid grid(arch::size_device(
      static_cast<int>(netlist.num_clbs()), static_cast<int>(netlist.num_ios()),
      1.3));
  place::PlacerOptions options;
  options.anneal.inner_num = 3.0;
  options.seed = 1;
  harness.run_case("place/gates=" + std::to_string(gates), reps, [&] {
    place::PlacerStats stats;
    const auto placement = place::place(netlist, grid, options, &stats);
    (void)placement;
    return std::vector<bench::QorEntry>{
        {"initial_cost", stats.initial_cost},
        {"final_cost", stats.final_cost},
        {"moves_attempted", static_cast<double>(stats.moves_attempted)},
        {"moves_accepted", static_cast<double>(stats.moves_accepted)}};
  });
}

}  // namespace

int main() {
  set_log_level(LogLevel::Silent);
  bench::PerfBench harness("bench_perf_place");

  place_case(harness, 150, 3);
  place_case(harness, 400, 2);

  combined_place_case(harness, 2, 2);
  // The four-mode transceiver regime: per-move cost scans scale with the
  // mode count, so this is where a naive occupancy representation hurts.
  combined_place_case(harness, 4, 2);
  edgematch_fir_case(harness, 2);

  return harness.finish();
}
