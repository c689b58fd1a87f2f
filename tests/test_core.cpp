#include <gtest/gtest.h>

#include "aig/bridge.h"
#include "common/perf.h"
#include "core/combined_place.h"
#include "core/flows.h"
#include "core/metrics.h"
#include "helpers.h"
#include "techmap/mapper.h"

namespace mmflow::core {
namespace {

/// Generates a pair of structurally similar mode circuits (like the paper's
/// mode pairs): a base random circuit plus a variant sharing most logic.
std::vector<techmap::LutCircuit> similar_mode_pair(int num_gates,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  auto build = [&](bool variant, std::uint64_t vseed) {
    Rng vrng(vseed);
    netlist::Netlist nl(variant ? "modeB" : "modeA");
    std::vector<netlist::SignalId> pool;
    for (int i = 0; i < 6; ++i) {
      pool.push_back(nl.add_input("i" + std::to_string(i)));
    }
    Rng shared(seed * 7919);  // identical gate choices for the common prefix
    for (int g = 0; g < num_gates; ++g) {
      // The last quarter of the gates differs between the modes.
      Rng& r = (g < num_gates * 3 / 4) ? shared : vrng;
      const auto a = pool[r.next_below(pool.size())];
      const auto b = pool[r.next_below(pool.size())];
      netlist::SignalId s = 0;
      switch (r.next_below(4)) {
        case 0: s = nl.add_and(a, b); break;
        case 1: s = nl.add_or(a, b); break;
        case 2: s = nl.add_xor(a, b); break;
        case 3: s = nl.add_nand(a, b); break;
      }
      pool.push_back(s);
    }
    for (int i = 0; i < 4; ++i) {
      nl.add_output("o" + std::to_string(i), pool[pool.size() - 1 - i]);
    }
    auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
    mapped.set_name(nl.name());
    return mapped;
  };
  std::vector<techmap::LutCircuit> modes;
  modes.push_back(build(false, rng()));
  modes.push_back(build(true, rng()));
  return modes;
}

FlowOptions fast_options(CombinedCost cost, std::uint64_t seed) {
  FlowOptions options;
  options.cost_engine = cost;
  options.seed = seed;
  options.anneal.inner_num = 2.0;  // keep tests quick
  return options;
}

TEST(CombinedPlace, LegalAndImprovesWirelength) {
  const auto modes = similar_mode_pair(60, 11);
  const arch::DeviceGrid grid(arch::size_device(
      static_cast<int>(std::max(modes[0].num_blocks(), modes[1].num_blocks())),
      20, 1.3));

  CombinedPlaceOptions options;
  options.cost = CombinedCost::WireLength;
  options.seed = 4;
  options.anneal.inner_num = 2.0;
  CombinedPlaceStats stats;
  const CombinedPlacement cp = combined_place(modes, grid, options, &stats);

  for (std::size_t m = 0; m < cp.netlists.size(); ++m) {
    EXPECT_NO_THROW(cp.placements[m].validate(cp.netlists[m]));
  }
  EXPECT_LT(stats.final_cost, stats.initial_cost);
  // The incremental cost must agree with the from-scratch recomputation.
  EXPECT_NEAR(merged_wirelength_cost(cp, grid), stats.final_cost, 1e-6);
}

TEST(CombinedPlace, EdgeMatchCostConsistent) {
  const auto modes = similar_mode_pair(50, 23);
  const arch::DeviceGrid grid(arch::size_device(
      static_cast<int>(std::max(modes[0].num_blocks(), modes[1].num_blocks())),
      20, 1.3));

  CombinedPlaceOptions options;
  options.cost = CombinedCost::EdgeMatch;
  options.seed = 9;
  options.anneal.inner_num = 2.0;
  CombinedPlaceStats stats;
  const CombinedPlacement cp = combined_place(modes, grid, options, &stats);
  // Final cost is -(matches); verify against the from-scratch count.
  EXPECT_NEAR(-static_cast<double>(matched_connections(cp, grid)),
              stats.final_cost, 1e-9);
  // Similar circuits must yield a healthy number of matches.
  EXPECT_GT(matched_connections(cp, grid), 0u);
}

TEST(CombinedPlace, EdgeMatchIncrementalCountMatchesOracle) {
  // Property: after annealing, the incrementally maintained match count
  // equals the from-scratch recount, for 1-4 modes and several seeds. The
  // feedback circuits put every block on cycles with its neighbours, and
  // the grid is as small as the largest mode allows, so most CLB swaps
  // exchange two blocks and many move a driver together with one of its
  // sinks.
  const auto pair = similar_mode_pair(24, 5);
  const std::vector<techmap::LutCircuit> pool{
      testing::feedback_lut_circuit(9, 1), pair[0],
      testing::feedback_lut_circuit(9, 2), pair[1]};
  for (std::size_t num_modes = 1; num_modes <= pool.size(); ++num_modes) {
    const std::vector<techmap::LutCircuit> modes(
        pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(num_modes));
    int max_clbs = 0;
    int max_ios = 0;
    for (const auto& m : modes) {
      max_clbs = std::max<int>(max_clbs, static_cast<int>(m.num_blocks()));
      max_ios = std::max<int>(max_ios,
                              static_cast<int>(m.num_pis() + m.num_pos()));
    }
    const arch::DeviceGrid grid(arch::size_device(max_clbs, max_ios, 1.0));
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      CombinedPlaceOptions options;
      options.cost = CombinedCost::EdgeMatch;
      options.seed = seed;
      options.anneal.inner_num = 1.0;
      const auto probes_before = perf::counter_value("combined_place.pair_probes");
      const auto updates_before =
          perf::counter_value("combined_place.pair_updates");
      CombinedPlaceStats stats;
      const CombinedPlacement cp = combined_place(modes, grid, options, &stats);
      const auto probes =
          perf::counter_value("combined_place.pair_probes") - probes_before;
      const auto updates =
          perf::counter_value("combined_place.pair_updates") - updates_before;

      EXPECT_EQ(-stats.final_cost,
                static_cast<double>(matched_connections(cp, grid)))
          << num_modes << " modes, seed " << seed;
      // Only accepted moves write the table, and each writes exactly the
      // pairs its delta probed.
      EXPECT_GT(updates, 0u);
      EXPECT_LE(updates, probes);
      if (stats.moves_accepted < stats.moves_attempted && num_modes > 1) {
        EXPECT_LT(updates, probes);
      }
    }
  }
}

TEST(CombinedPlace, EdgeMatchBeatsRandomOnMatches) {
  const auto modes = similar_mode_pair(50, 31);
  const arch::DeviceGrid grid(arch::size_device(
      static_cast<int>(std::max(modes[0].num_blocks(), modes[1].num_blocks())),
      20, 1.3));

  // Random combined placement (no annealing).
  CombinedPlacement random_cp;
  Rng rng(1);
  for (const auto& mode : modes) {
    place::LutPlaceMapping mapping;
    random_cp.netlists.push_back(place::to_place_netlist(mode, &mapping));
    random_cp.mappings.push_back(mapping);
  }
  for (const auto& nl : random_cp.netlists) {
    random_cp.placements.push_back(place::random_placement(nl, grid, rng));
  }

  CombinedPlaceOptions options;
  options.cost = CombinedCost::EdgeMatch;
  options.seed = 10;
  options.anneal.inner_num = 2.0;
  const CombinedPlacement optimized = combined_place(modes, grid, options);

  EXPECT_GT(matched_connections(optimized, grid),
            matched_connections(random_cp, grid));
}

TEST(ExtractMerge, CoLocationDefinesTluts) {
  const auto modes = similar_mode_pair(40, 41);
  const arch::DeviceGrid grid(arch::size_device(
      static_cast<int>(std::max(modes[0].num_blocks(), modes[1].num_blocks())),
      20, 1.3));
  CombinedPlaceOptions options;
  options.anneal.inner_num = 1.0;
  const CombinedPlacement cp = combined_place(modes, grid, options);
  const ExtractedMerge merge = extract_merge(cp, grid);

  // Blocks co-located across modes share a TLUT; blocks at distinct sites
  // never share one.
  for (std::size_t m = 0; m < modes.size(); ++m) {
    for (std::uint32_t lut = 0; lut < modes[m].num_blocks(); ++lut) {
      const auto t = merge.assignment.lut_to_tlut[m][lut];
      const arch::Site s = cp.placements[m].site_of(cp.mappings[m].lut_block(lut));
      EXPECT_TRUE(merge.tlut_site[t] == s);
    }
  }
  // The merged circuit specializes back to each mode's behaviour.
  const tunable::TunableCircuit tc(modes, merge.assignment);
  for (int m = 0; m < 2; ++m) {
    const auto specialized = tc.specialize(m);
    techmap::LutSimulator sim_orig(modes[m]);
    techmap::LutSimulator sim_spec(specialized);
    Rng stim(55u + static_cast<unsigned>(m));
    for (int cycle = 0; cycle < 32; ++cycle) {
      const auto words = mmflow::testing::random_words(modes[m].num_pis(), stim);
      ASSERT_EQ(sim_orig.step(words), sim_spec.step(words));
    }
  }
}

class FlowTest : public ::testing::TestWithParam<CombinedCost> {};

TEST_P(FlowTest, EndToEndExperiment) {
  const auto modes = similar_mode_pair(45, 67);
  const MultiModeExperiment exp =
      run_experiment(modes, fast_options(GetParam(), 3));

  // Routing succeeded everywhere (run_experiment checks, but be explicit).
  for (const auto& r : exp.mdr_routing) EXPECT_TRUE(r.success);
  EXPECT_TRUE(exp.dcs_routing.success);
  EXPECT_GE(exp.region.channel_width, exp.min_width);

  // Reconfiguration metrics: DCS must rewrite no more than the full region,
  // and the chain MDR >= Diff >= DCS should hold for similar circuits.
  const ReconfigMetrics metrics =
      reconfig_metrics(exp, bitstream::MuxEncoding::Binary);
  EXPECT_GT(metrics.dcs_speedup(), 1.0);
  EXPECT_LE(metrics.dcs_bits, metrics.mdr_bits);
  EXPECT_LE(metrics.diff_bits, metrics.mdr_bits);
  EXPECT_LE(metrics.dcs_param_routing_bits, metrics.region_routing_bits);
  EXPECT_GT(metrics.lut_bits, 0u);

  // Wirelength metrics exist for both modes.
  const WirelengthMetrics wl = wirelength_metrics(exp);
  ASSERT_EQ(wl.mdr.size(), 2u);
  for (const auto w : wl.mdr) EXPECT_GT(w, 0u);
  for (const auto w : wl.dcs) EXPECT_GT(w, 0u);

  // Some connections merged (the circuits share 3/4 of their logic).
  EXPECT_GT(exp.merged_connections, 0u);
  EXPECT_LE(exp.merged_connections, exp.total_mode_connections);
}

INSTANTIATE_TEST_SUITE_P(CostEngines, FlowTest,
                         ::testing::Values(CombinedCost::WireLength,
                                           CombinedCost::EdgeMatch));

TEST(Flows, DcsSpecializationsRouteEveryActiveConnection) {
  // Every per-mode connection of the tunable circuit must be realised by
  // the DCS routing in that mode.
  const auto modes = similar_mode_pair(40, 91);
  const MultiModeExperiment exp =
      run_experiment(modes, fast_options(CombinedCost::WireLength, 5));

  const arch::RoutingGraph rrg(exp.region);
  for (std::size_t c = 0; c < exp.dcs_routing.conns.size(); ++c) {
    const auto& rc = exp.dcs_routing.conns[c];
    const auto& conn = exp.dcs_problem.nets[rc.net].conns[rc.conn];
    EXPECT_FALSE(rc.nodes.empty());
    EXPECT_EQ(rc.nodes.front(), exp.dcs_problem.nets[rc.net].source_node);
    EXPECT_EQ(rc.nodes.back(), conn.sink_node);
  }
}

TEST(Flows, MergedConnectionsYieldStaticBits) {
  // Two *identical* modes: the wire-length engine should align (nearly) all
  // blocks, so (nearly) every connection merges and the parameterized
  // routing bits collapse. Simulated annealing is a heuristic, so assert
  // near-optimal rather than perfect alignment.
  auto modes = similar_mode_pair(30, 17);
  modes[1] = modes[0];
  modes[1].set_name("modeB");
  auto options = fast_options(CombinedCost::WireLength, 7);
  options.anneal.inner_num = 6.0;
  const MultiModeExperiment exp = run_experiment(modes, options);
  const ReconfigMetrics metrics =
      reconfig_metrics(exp, bitstream::MuxEncoding::Binary);
  const std::size_t max_merged = exp.total_mode_connections / 2;
  EXPECT_GE(exp.merged_connections, (max_merged * 3) / 4);
  // Merged connections are routed once -> far fewer parameterized bits than
  // the Diff of two independently placed identical modes. This is the
  // paper's central claim in miniature.
  EXPECT_GT(metrics.diff_routing_bits, 0u);
  EXPECT_LT(metrics.dcs_param_routing_bits, metrics.diff_routing_bits / 2);
}

TEST(Flows, LutConfigsCoverPlacedBlocks) {
  const auto modes = similar_mode_pair(35, 29);
  const MultiModeExperiment exp =
      run_experiment(modes, fast_options(CombinedCost::WireLength, 9));

  const auto mdr_configs = mdr_lut_configs(exp, modes);
  ASSERT_EQ(mdr_configs.size(), 2u);
  const auto dcs_configs = dcs_lut_configs(exp);
  ASSERT_EQ(dcs_configs.size(), 2u);

  // Each mode's MDR config has as many non-zero sites as the mode has
  // blocks with non-trivial configuration (truth != 0 or FF used).
  for (std::size_t m = 0; m < modes.size(); ++m) {
    std::size_t nonzero = 0;
    for (std::size_t s = 0; s < mdr_configs[m].num_sites(); ++s) {
      nonzero += mdr_configs[m].word(static_cast<int>(s)) != 0;
    }
    std::size_t nontrivial = 0;
    for (const auto& block : modes[m].blocks()) {
      nontrivial += (block.truth != 0 || block.has_ff);
    }
    EXPECT_EQ(nonzero, nontrivial);
  }
}

TEST(Metrics, AreaMetrics) {
  const auto modes = similar_mode_pair(40, 53);
  const AreaMetrics area = area_metrics(modes);
  EXPECT_EQ(area.static_sum_clbs,
            static_cast<int>(modes[0].num_blocks() + modes[1].num_blocks()));
  EXPECT_EQ(area.region_clbs,
            static_cast<int>(std::max(modes[0].num_blocks(),
                                      modes[1].num_blocks())));
  EXPECT_GT(area.ratio(), 0.0);
  EXPECT_LE(area.ratio(), 1.0);
}

TEST(Flows, DeterministicForSeed) {
  const auto modes = similar_mode_pair(30, 71);
  const auto exp1 = run_experiment(modes, fast_options(CombinedCost::WireLength, 13));
  const auto exp2 = run_experiment(modes, fast_options(CombinedCost::WireLength, 13));
  EXPECT_EQ(exp1.min_width, exp2.min_width);
  const auto m1 = reconfig_metrics(exp1, bitstream::MuxEncoding::Binary);
  const auto m2 = reconfig_metrics(exp2, bitstream::MuxEncoding::Binary);
  EXPECT_EQ(m1.dcs_bits, m2.dcs_bits);
  EXPECT_EQ(m1.diff_bits, m2.diff_bits);
}

}  // namespace
}  // namespace mmflow::core
