/// Tests for the placers' objectives: the conventional placer's wirelength
/// cost, the combined annealer's two engines and its timing layer, and the
/// pre-route timing analysis (place/timing_model.h).
///
/// The bit-identity tests assert against golden hashes captured from the
/// original hardwired annealers: with timing_tradeoff = 0 every placement,
/// final cost, flow-options hash and routed experiment must reproduce those
/// bytes exactly, per seed.

#include <bit>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "aig/bridge.h"
#include "common/perf.h"
#include "core/combined_place.h"
#include "core/flows.h"
#include "core/timing.h"
#include "helpers.h"
#include "place/placer.h"
#include "place/timing_model.h"
#include "techmap/mapper.h"

namespace mmflow {
namespace {

using place::PlaceBlock;
using place::PlaceNet;
using place::PlaceNetlist;

// ---- golden capture helpers (must not change: they define the hashes) -------

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 1099511628211ULL;
    }
  }
};

std::uint64_t hash_placement(const place::Placement& p) {
  Fnv f;
  for (std::uint32_t b = 0; b < p.num_blocks(); ++b) {
    const arch::Site s = p.site_of(b);
    f.u64(static_cast<std::uint64_t>(static_cast<std::uint8_t>(s.type)));
    f.u64(static_cast<std::uint64_t>(static_cast<std::uint16_t>(s.x)));
    f.u64(static_cast<std::uint64_t>(static_cast<std::uint16_t>(s.y)));
    f.u64(static_cast<std::uint64_t>(static_cast<std::uint16_t>(s.sub)));
  }
  return f.h;
}

PlaceNetlist chain_netlist(int length) {
  PlaceNetlist nl;
  const auto in = nl.add_block(PlaceBlock::Type::Io, "in");
  std::uint32_t prev = in;
  for (int i = 0; i < length; ++i) {
    const auto b = nl.add_block(PlaceBlock::Type::Clb, "c" + std::to_string(i));
    nl.add_net(PlaceNet{prev, {b}});
    prev = b;
  }
  const auto out = nl.add_block(PlaceBlock::Type::Io, "out");
  nl.add_net(PlaceNet{prev, {out}});
  return nl;
}

techmap::LutCircuit chainy_mode(int depth, std::uint64_t seed) {
  Rng rng(seed);
  netlist::Netlist nl("chain" + std::to_string(seed));
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  auto cur = nl.add_xor(a, b);
  for (int i = 0; i < depth; ++i) {
    cur = rng.next_bool(0.5) ? nl.add_xor(cur, a) : nl.add_and(cur, b);
    if (i % 5 == 4) {
      const auto q = nl.add_latch(cur, false, "q" + std::to_string(i));
      cur = nl.add_xor(q, b);
    }
  }
  nl.add_output("o", cur);
  auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
  mapped.set_name(nl.name());
  return mapped;
}

arch::DeviceGrid grid_for(const PlaceNetlist& nl, double slack = 1.4) {
  return arch::DeviceGrid(
      arch::size_device(static_cast<int>(nl.num_clbs()),
                        static_cast<int>(nl.num_ios()), slack));
}

/// A device every mode fits on, as the combined-placement tests size it.
arch::DeviceGrid grid_for_modes(const std::vector<techmap::LutCircuit>& modes) {
  int max_clbs = 0;
  int max_ios = 0;
  for (const auto& m : modes) {
    max_clbs = std::max<int>(max_clbs, static_cast<int>(m.num_blocks()));
    max_ios =
        std::max<int>(max_ios, static_cast<int>(m.num_pis() + m.num_pos()));
  }
  return arch::DeviceGrid(arch::size_device(max_clbs, max_ios, 1.4));
}

std::vector<arch::Site> sites_of(const place::Placement& p) {
  std::vector<arch::Site> sites(p.num_blocks());
  for (std::uint32_t b = 0; b < p.num_blocks(); ++b) sites[b] = p.site_of(b);
  return sites;
}

// ---- bit-identity regression against the pre-refactor annealers -------------

TEST(CostModelGolden, ConventionalPlacerChainBitIdentical) {
  const auto nl = chain_netlist(15);
  place::PlacerOptions options;
  options.seed = 42;
  place::PlacerStats stats;
  const auto placed = place::place(nl, grid_for(nl), options, &stats);
  EXPECT_EQ(hash_placement(placed), 2907473168540567586ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.final_cost),
            4631952216750555136ULL);
}

TEST(CostModelGolden, ConventionalPlacerMappedBitIdentical) {
  const auto pn = place::to_place_netlist(chainy_mode(18, 1));
  place::PlacerOptions options;
  options.seed = 7;
  place::PlacerStats stats;
  const auto placed = place::place(pn, grid_for(pn), options, &stats);
  EXPECT_EQ(hash_placement(placed), 4877792844211468995ULL);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.final_cost),
            4627499845568945998ULL);
}

TEST(CostModelGolden, CombinedPlacementBothEnginesBitIdentical) {
  const std::vector<techmap::LutCircuit> modes{chainy_mode(12, 3),
                                               chainy_mode(12, 4)};
  const auto grid = grid_for_modes(modes);

  struct Golden {
    core::CombinedCost cost;
    std::uint64_t placements;
    std::uint64_t final_cost;
  };
  const Golden goldens[] = {
      {core::CombinedCost::WireLength, 10200124222462854679ULL,
       4626860559601840766ULL},
      {core::CombinedCost::EdgeMatch, 4296643570794552359ULL,
       13844065254536904704ULL},
  };
  for (const auto& golden : goldens) {
    core::CombinedPlaceOptions options;
    options.cost = golden.cost;
    options.seed = 11;
    core::CombinedPlaceStats stats;
    const auto combined = core::combined_place(modes, grid, options, &stats);
    Fnv f;
    for (const auto& p : combined.placements) f.u64(hash_placement(p));
    EXPECT_EQ(f.h, golden.placements);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.final_cost),
              golden.final_cost);
  }
}

// EdgeMatch beyond two modes, and on circuits whose registered LUTs read
// their own outputs. Captured before the EdgeMatch pair table became a flat
// open-addressing table with a read-only move delta.
TEST(CostModelGolden, EdgeMatchMultiModeBitIdentical) {
  struct Golden {
    std::vector<techmap::LutCircuit> modes;
    std::uint64_t placements;
    std::uint64_t final_cost;
  };
  const Golden goldens[] = {
      {{chainy_mode(12, 3), chainy_mode(12, 4), chainy_mode(12, 5)},
       2236830629090954307ULL, 13847442954257432576ULL},  // cost -14.0
      {{chainy_mode(12, 3), chainy_mode(12, 4), chainy_mode(12, 5),
        chainy_mode(12, 6)},
       9002653817507659065ULL, 13850539179001249792ULL},  // cost -23.0
      {{testing::feedback_lut_circuit(10, 1), testing::feedback_lut_circuit(10, 2),
        testing::feedback_lut_circuit(8, 3)},
       7019114378202646274ULL, 13854479828675198976ULL},  // cost -42.0
  };
  for (const auto& golden : goldens) {
    const auto grid = grid_for_modes(golden.modes);
    core::CombinedPlaceOptions options;
    options.cost = core::CombinedCost::EdgeMatch;
    options.seed = 11;
    core::CombinedPlaceStats stats;
    const auto combined =
        core::combined_place(golden.modes, grid, options, &stats);
    Fnv f;
    for (const auto& p : combined.placements) f.u64(hash_placement(p));
    EXPECT_EQ(f.h, golden.placements) << golden.modes.size() << " modes";
    EXPECT_EQ(std::bit_cast<std::uint64_t>(stats.final_cost),
              golden.final_cost)
        << golden.modes.size() << " modes";
  }
}

TEST(CostModelGolden, FlowOptionsHashStableAcrossTradeoffs) {
  core::FlowOptions options;
  options.anneal.inner_num = 2.0;
  options.seed = 5;
  // The λ = 0 hash. λ rides in FlowKey::variant instead of the options
  // hash, so the hash is stable for every tradeoff — that is what lets the
  // λ-independent MDR artifacts share cache entries across a sweep.
  EXPECT_EQ(core::hash_flow_options(options), 17022594571924229214ULL);
  options.timing_tradeoff = 0.5;
  EXPECT_EQ(core::hash_flow_options(options), 17022594571924229214ULL);
}

TEST(TimingDrivenFlow, TradeoffSweepSharesMdrBaseline) {
  const std::vector<techmap::LutCircuit> modes{chainy_mode(18, 1),
                                               chainy_mode(18, 2)};
  core::FlowOptions options;
  options.anneal.inner_num = 2.0;
  options.seed = 5;
  core::FlowCache cache;
  core::RrgCache rrgs;
  const core::FlowContext context{&cache, &rrgs};

  const auto wl_exp = core::run_experiment_shared(modes, options, context);
  const auto mdr_hits_before = perf::counter_value("flowcache.mdr_hits");
  options.timing_tradeoff = 0.5;
  const auto td_exp = core::run_experiment_shared(modes, options, context);

  // Different λ → different experiment entry (no key collision) ...
  EXPECT_NE(wl_exp.get(), td_exp.get());
  // ... but the λ-independent MDR bundle is shared, not recomputed.
  EXPECT_GT(perf::counter_value("flowcache.mdr_hits"), mdr_hits_before);
  for (std::size_t m = 0; m < modes.size(); ++m) {
    EXPECT_EQ(hash_placement(wl_exp->mdr[m].placement),
              hash_placement(td_exp->mdr[m].placement));
  }
  // Re-running a λ point returns the cached experiment itself.
  EXPECT_EQ(core::run_experiment_shared(modes, options, context).get(),
            td_exp.get());
}

TEST(CostModelGolden, WholeExperimentAndTimingReportBitIdentical) {
  const std::vector<techmap::LutCircuit> modes{chainy_mode(18, 1),
                                               chainy_mode(18, 2)};
  core::FlowOptions options;
  options.anneal.inner_num = 2.0;
  options.seed = 5;
  const auto exp = core::run_experiment(modes, options);
  Fnv f;
  f.u64(static_cast<std::uint64_t>(exp.min_width));
  f.u64(static_cast<std::uint64_t>(exp.region.channel_width));
  for (const auto& impl : exp.mdr) f.u64(hash_placement(impl.placement));
  for (const auto& s : exp.tlut_site) {
    f.u64(static_cast<std::uint16_t>(s.x));
    f.u64(static_cast<std::uint16_t>(s.y));
  }
  for (const auto& s : exp.tio_site) {
    f.u64(static_cast<std::uint16_t>(s.x));
    f.u64(static_cast<std::uint16_t>(s.y));
    f.u64(static_cast<std::uint16_t>(s.sub));
  }
  for (const auto& rr : exp.mdr_routing) {
    for (const auto& rc : rr.conns) {
      f.u64(rc.modes);
      for (const auto n : rc.nodes) f.u64(n);
    }
  }
  for (const auto& rc : exp.dcs_routing.conns) {
    f.u64(rc.modes);
    for (const auto n : rc.nodes) f.u64(n);
  }
  // Golden rebased when the tunable-connection grouping key was widened to
  // 66 bits: the old single-word key dropped the source kind bit, which
  // collapsed Tio/Tlut sources of equal index into one connection and also
  // ordered conns differently.
  EXPECT_EQ(f.h, 10170641163974283721ULL);

  const auto report = core::timing_report(exp, modes);
  Fnv t;
  for (const auto d : report.mdr_critical_path) {
    t.u64(std::bit_cast<std::uint64_t>(d));
  }
  for (const auto d : report.dcs_critical_path) {
    t.u64(std::bit_cast<std::uint64_t>(d));
  }
  EXPECT_EQ(t.h, 10601799196686078811ULL);
}

// ---- PlaceTimingGraph -------------------------------------------------------

TEST(PlaceTimingGraph, ChainCriticalPathMatchesHandComputation) {
  // in -> c0 -> c1 -> out placed on a line: every connection spans one
  // Manhattan unit, the path is PI -> LUT -> LUT -> PO.
  const auto nl = chain_netlist(2);
  arch::ArchSpec spec;
  spec.nx = 2;
  spec.ny = 2;
  const arch::DeviceGrid grid(spec);
  const place::TimingModel model;
  place::PlaceTimingGraph graph(nl, model, spec);

  std::vector<arch::Site> sites(4);
  sites[0] = grid.pad_site(grid.pad_index(arch::Site{
      arch::Site::Type::Pad, 1, 0, 0}));  // "in" pad below c0
  sites[1] = grid.clb_site(grid.clb_index(1, 1));  // c0
  sites[2] = grid.clb_site(grid.clb_index(2, 1));  // c1
  sites[3] = grid.pad_site(grid.pad_index(arch::Site{
      arch::Site::Type::Pad, 2, 0, 0}));  // "out" pad below c1
  graph.update(sites.data());

  const double conn = place::connection_delay(model, 1);
  EXPECT_DOUBLE_EQ(graph.critical_path(),
                   3 * conn + 2 * model.lut_delay);
  // One single path: every connection is fully critical.
  for (std::uint32_t n = 0; n < nl.num_nets(); ++n) {
    EXPECT_DOUBLE_EQ(graph.criticality(n, 0), 1.0);
  }
  // The weighted net cost is criticality * estimated delay.
  EXPECT_DOUBLE_EQ(graph.net_timing_cost(0, sites.data()), conn);
}

TEST(PlaceTimingGraph, ZeroWireDelayModelCollapsesToLogicDepth) {
  const auto nl = chain_netlist(4);
  const auto grid = grid_for(nl);
  place::TimingModel model;
  model.wire_delay = 0.0;
  model.pin_delay = 0.0;
  place::PlaceTimingGraph graph(nl, model, grid.spec());

  Rng rng(3);
  const auto placement = place::random_placement(nl, grid, rng);
  const auto sites = sites_of(placement);
  graph.update(sites.data());
  // 4 LUT levels, no wire contribution — wherever the blocks sit.
  EXPECT_DOUBLE_EQ(graph.critical_path(), 4 * model.lut_delay);
}

TEST(PlaceTimingGraph, CombinationalLoopThrows) {
  PlaceNetlist nl;
  const auto a = nl.add_block(PlaceBlock::Type::Clb, "a");
  const auto b = nl.add_block(PlaceBlock::Type::Clb, "b");
  nl.add_net(PlaceNet{a, {b}});
  nl.add_net(PlaceNet{b, {a}});
  arch::ArchSpec spec;
  EXPECT_THROW(place::PlaceTimingGraph(nl, place::TimingModel{}, spec),
               PreconditionError);
}

TEST(PlaceTimingGraph, RegisteredBlockBreaksLoop) {
  PlaceNetlist nl;
  const auto a = nl.add_block(PlaceBlock::Type::Clb, "a", /*registered=*/true);
  const auto b = nl.add_block(PlaceBlock::Type::Clb, "b");
  nl.add_net(PlaceNet{a, {b}});
  nl.add_net(PlaceNet{b, {a}});
  arch::ArchSpec spec;
  spec.nx = 2;
  spec.ny = 2;
  const arch::DeviceGrid grid(spec);
  place::PlaceTimingGraph graph(nl, place::TimingModel{}, spec);

  std::vector<arch::Site> sites{grid.clb_site(0), grid.clb_site(1)};
  graph.update(sites.data());
  // Path: FF output of a -> LUT b -> capture at a's FF input.
  const place::TimingModel model;
  const double conn = place::connection_delay(model, 1);
  EXPECT_DOUBLE_EQ(graph.critical_path(), 2 * conn + 2 * model.lut_delay);
}

TEST(DelayLookup, MatchesSharedFormula) {
  const place::TimingModel model;
  arch::ArchSpec spec;
  const place::DelayLookup lookup(model, spec);
  const arch::Site a{arch::Site::Type::Clb, 1, 1, 0};
  const arch::Site b{arch::Site::Type::Clb, 4, 3, 0};
  EXPECT_DOUBLE_EQ(lookup.delay(a, b), place::connection_delay(model, 5));
  EXPECT_DOUBLE_EQ(lookup.delay(a, a), place::connection_delay(model, 0));
}

// ---- timing-driven annealing ------------------------------------------------

TEST(TimingDrivenCombined, LegalDeterministicAndImprovesEstimate) {
  const std::vector<techmap::LutCircuit> modes{chainy_mode(12, 3),
                                               chainy_mode(12, 4)};
  const auto grid = grid_for_modes(modes);

  core::CombinedPlaceOptions options;
  options.seed = 11;
  options.timing_tradeoff = 0.5;
  const auto combined = core::combined_place(modes, grid, options);
  for (std::size_t m = 0; m < combined.netlists.size(); ++m) {
    EXPECT_NO_THROW(combined.placements[m].validate(combined.netlists[m]));
  }
  const auto again = core::combined_place(modes, grid, options);
  for (std::size_t m = 0; m < combined.placements.size(); ++m) {
    EXPECT_EQ(hash_placement(combined.placements[m]),
              hash_placement(again.placements[m]));
  }

  // Worst-mode estimated critical path: timing-driven vs pure wirelength.
  core::CombinedPlaceOptions wl_options;
  wl_options.seed = 11;
  const auto wl_combined = core::combined_place(modes, grid, wl_options);
  auto worst_critical = [&](const core::CombinedPlacement& placement) {
    double worst = 0.0;
    for (std::size_t m = 0; m < placement.netlists.size(); ++m) {
      place::PlaceTimingGraph graph(placement.netlists[m], options.timing,
                                    grid.spec());
      const auto sites = sites_of(placement.placements[m]);
      graph.update(sites.data());
      worst = std::max(worst, graph.critical_path());
    }
    return worst;
  };
  EXPECT_LT(worst_critical(combined), worst_critical(wl_combined));
}

// λ outside [0, 1], or NaN, is a caller error for both engines: EdgeMatch
// never reads λ, and a WireLength run must not anneal its MDR baseline
// first. Nothing may run it silently as λ = 0.
TEST(TimingDrivenFlow, TradeoffOutOfRangeThrows) {
  const std::vector<techmap::LutCircuit> modes{chainy_mode(6, 1),
                                               chainy_mode(6, 2)};
  const auto grid = grid_for_modes(modes);
  const double bad[] = {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()};
  for (const auto engine :
       {core::CombinedCost::WireLength, core::CombinedCost::EdgeMatch}) {
    for (const double lambda : bad) {
      core::CombinedPlaceOptions cp_options;
      cp_options.cost = engine;
      cp_options.timing_tradeoff = lambda;
      EXPECT_THROW((void)core::combined_place(modes, grid, cp_options),
                   PreconditionError)
          << lambda;

      core::FlowOptions options;
      options.cost_engine = engine;
      options.anneal.inner_num = 0.5;
      options.timing_tradeoff = lambda;
      EXPECT_THROW((void)core::run_experiment(modes, options),
                   PreconditionError)
          << lambda;
      EXPECT_THROW((void)core::experiment_key(modes, options),
                   PreconditionError)
          << lambda;
    }
  }
}

}  // namespace
}  // namespace mmflow
