#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "aig/bridge.h"
#include "apps/fir/fir.h"
#include "apps/regexp/engine.h"
#include "apps/regexp/regex.h"
#include "arch/rrg.h"
#include "common/perf.h"
#include "core/batch.h"
#include "route/router.h"
#include "core/combined_place.h"
#include "helpers.h"
#include "netlist/blif.h"
#include "techmap/mapper.h"
#include "tunable/tunable_circuit.h"

namespace mmflow {
namespace {

// --------------------------------------------------------------- arch edges

TEST(EdgeCases, SmallestDevice) {
  arch::ArchSpec spec;
  spec.nx = 1;
  spec.ny = 1;
  spec.channel_width = 1;
  const arch::DeviceGrid grid(spec);
  EXPECT_EQ(grid.num_clb_sites(), 1);
  EXPECT_EQ(grid.num_pad_sites(), 4 * spec.io_capacity);
  const arch::RoutingGraph rrg(spec);
  EXPECT_NO_THROW(rrg.validate());
}

TEST(EdgeCases, NonSquareDeviceRrg) {
  arch::ArchSpec spec;
  spec.nx = 7;
  spec.ny = 2;
  spec.channel_width = 2;
  const arch::RoutingGraph rrg(spec);
  EXPECT_NO_THROW(rrg.validate());
  // Route across the long dimension.
  route::RouteProblem problem;
  route::RouteNet net;
  net.name = "span";
  net.source_node = rrg.clb_source(1, 1);
  net.conns.push_back(route::RouteConn{rrg.clb_sink(7, 2), 1});
  problem.nets.push_back(net);
  EXPECT_TRUE(route::route(rrg, problem).success);
}

// ------------------------------------------------------------ netlist edges

TEST(EdgeCases, SingleGateCircuitMapsAndPlaces) {
  netlist::Netlist nl("one");
  const auto a = nl.add_input("a");
  nl.add_output("y", nl.add_not(a));
  const auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
  EXPECT_EQ(mapped.num_blocks(), 1u);
  const auto pn = place::to_place_netlist(mapped);
  const arch::DeviceGrid grid(arch::size_device(1, 2, 1.2));
  place::PlacerOptions options;
  options.seed = 1;
  const auto placed = place::place(pn, grid, options);
  EXPECT_NO_THROW(placed.validate(pn));
}

TEST(EdgeCases, ConstantOnlyCircuit) {
  netlist::Netlist nl("const");
  nl.add_output("zero", nl.add_constant(false));
  nl.add_output("one", nl.add_constant(true));
  const auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
  mmflow::testing::expect_equivalent(nl, mapped, 4, 1);
}

TEST(EdgeCases, BlifUnnamedModelAndWhitespace) {
  const auto nl = netlist::parse_blif(
      ".model\n.inputs   a \t b\n.outputs y\n.names a b y\n11 1\n.end\n");
  EXPECT_EQ(nl.inputs().size(), 2u);
}

TEST(EdgeCases, BlifRoundTripRegexEngine) {
  // A full-size generated netlist survives the BLIF round trip unchanged.
  const auto nl = apps::regexp::regex_engine("ab(cd|ef){2,4}g+");
  const auto reparsed = netlist::parse_blif(netlist::write_blif(nl));
  mmflow::testing::expect_equivalent(nl, reparsed, 24, 77);
}

// ------------------------------------------------------------ tunable edges

TEST(EdgeCases, SingleModeTunableCircuit) {
  // Degenerate but legal: one mode merges into a Tunable circuit whose bits
  // are all static.
  techmap::LutCircuit a(4, "solo");
  a.add_pi("x");
  a.add_block({"l", {techmap::Ref::pi(0)}, 0b01, false, false});
  a.add_po("o", techmap::Ref::block(0));
  std::vector<techmap::LutCircuit> modes{a};
  const tunable::TunableCircuit tc(modes, tunable::MergeAssignment::by_index(modes));
  EXPECT_EQ(tc.parameterized_lut_bit_count(), 0u);
  for (const auto& conn : tc.conns()) {
    EXPECT_EQ(conn.activation, 0b1u);
  }
  const auto spec = tc.specialize(0);
  EXPECT_EQ(spec.num_blocks(), 1u);
}

TEST(EdgeCases, ModesOfVeryDifferentSizes) {
  // A 1-LUT mode merged with a 30-LUT mode: the small mode's TLUTs are
  // mostly single-mode; specialization still holds.
  Rng rng(5);
  netlist::Netlist big("big");
  std::vector<netlist::SignalId> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(big.add_input("i" + std::to_string(i)));
  for (int g = 0; g < 60; ++g) {
    pool.push_back(big.add_xor(pool[rng.next_below(pool.size())],
                               pool[rng.next_below(pool.size())]));
  }
  big.add_output("o", pool.back());

  netlist::Netlist small("small");
  const auto a = small.add_input("i0");
  const auto b = small.add_input("i1");
  small.add_output("o", small.add_and(a, b));

  std::vector<techmap::LutCircuit> modes{
      techmap::map_to_luts(aig::aig_from_netlist(big)),
      techmap::map_to_luts(aig::aig_from_netlist(small))};
  modes[0].set_name("big");
  modes[1].set_name("small");
  const tunable::TunableCircuit tc(modes, tunable::MergeAssignment::by_index(modes));
  for (int m = 0; m < 2; ++m) {
    const auto specialized = tc.specialize(m);
    techmap::LutSimulator sim_orig(modes[static_cast<std::size_t>(m)]);
    techmap::LutSimulator sim_spec(specialized);
    Rng stim(3u + static_cast<unsigned>(m));
    for (int cycle = 0; cycle < 8; ++cycle) {
      const auto words = mmflow::testing::random_words(
          modes[static_cast<std::size_t>(m)].num_pis(), stim);
      ASSERT_EQ(sim_orig.step(words), sim_spec.step(words));
    }
  }
}

// ---------------------------------------------------------------- fir edges

TEST(EdgeCases, FirSingleTap) {
  apps::fir::FirSpec spec;
  spec.taps = 1;
  spec.data_width = 4;
  spec.coeff_width = 4;
  apps::fir::FirCoeffs coeffs;
  coeffs.values = {-7};
  const auto expected =
      apps::fir::fir_reference(spec, coeffs, {1, 2, 3, 15});
  // y[n] = -7 * x[n] mod 2^W.
  const std::uint64_t mask = (1ull << spec.output_width()) - 1;
  EXPECT_EQ(expected[0], static_cast<std::uint64_t>(-7) & mask);
  EXPECT_EQ(expected[3], static_cast<std::uint64_t>(-105) & mask);
}

TEST(EdgeCases, FirRejectsBadCoefficients) {
  apps::fir::FirSpec spec;
  spec.taps = 2;
  spec.coeff_width = 3;
  apps::fir::FirCoeffs coeffs;
  coeffs.values = {9, 0};  // |9| >= 2^3
  EXPECT_THROW((void)apps::fir::coefficient_bindings(spec, coeffs),
               PreconditionError);
  coeffs.values = {1};  // wrong arity
  EXPECT_THROW((void)apps::fir::coefficient_bindings(spec, coeffs),
               PreconditionError);
}

// -------------------------------------------------------------- regex edges

TEST(EdgeCases, RegexSingleChar) {
  apps::regexp::StreamMatcher m("x");
  EXPECT_TRUE(m.search("axb"));
  EXPECT_FALSE(m.search("ab"));
}

TEST(EdgeCases, RegexHighBytes) {
  apps::regexp::StreamMatcher m("\\xff\\x00\\x80");
  std::string s;
  s.push_back(static_cast<char>(0xff));
  s.push_back('\0');
  s.push_back(static_cast<char>(0x80));
  EXPECT_TRUE(m.search(s));
}

TEST(EdgeCases, RegexOverlappingMatches) {
  // "aa" in "aaaa": matches at several offsets; streaming engine must fire.
  apps::regexp::StreamMatcher m("aa");
  int fires = 0;
  m.reset();
  for (const char c : std::string("aaaa")) {
    fires += m.feed(static_cast<unsigned char>(c)) ? 1 : 0;
  }
  fires += m.feed(0) ? 1 : 0;
  EXPECT_GE(fires, 3);  // matches ending at positions 2,3,4
}

// ----------------------------------------------------- combined place edges

techmap::LutCircuit solo_mode() {
  techmap::LutCircuit a(4, "solo");
  a.add_pi("x");
  a.add_block({"l0", {techmap::Ref::pi(0)}, 0b01, false, false});
  a.add_block({"l1", {techmap::Ref::block(0)}, 0b10, false, false});
  a.add_po("o", techmap::Ref::block(1));
  return a;
}

TEST(EdgeCases, CombinedPlaceSingleMode) {
  // Degenerate single-mode combined placement reduces to normal placement.
  const auto a = solo_mode();
  const arch::DeviceGrid grid(arch::size_device(4, 4, 1.5));
  core::CombinedPlaceOptions options;
  options.anneal.inner_num = 1.0;
  const auto cp = core::combined_place({a}, grid, options);
  EXPECT_NO_THROW(cp.placements[0].validate(cp.netlists[0]));
  EXPECT_EQ(core::matched_connections(cp, grid), 0u);
}

TEST(EdgeCases, CombinedPlaceSingleModeEdgeMatch) {
  // With one mode every "other modes" mask is empty: no pair can match, so
  // every move's delta is 0 and every move is accepted.
  const auto a = solo_mode();
  const arch::DeviceGrid grid(arch::size_device(4, 4, 1.5));
  core::CombinedPlaceOptions options;
  options.cost = core::CombinedCost::EdgeMatch;
  options.anneal.inner_num = 1.0;
  const auto probes_before = perf::counter_value("combined_place.pair_probes");
  const auto updates_before = perf::counter_value("combined_place.pair_updates");
  core::CombinedPlaceStats stats;
  const auto cp = core::combined_place({a}, grid, options, &stats);
  EXPECT_NO_THROW(cp.placements[0].validate(cp.netlists[0]));
  EXPECT_EQ(core::matched_connections(cp, grid), 0u);
  EXPECT_EQ(stats.final_cost, 0.0);
  // All moves accepted: the commits wrote exactly the pairs the deltas read.
  const auto probes =
      perf::counter_value("combined_place.pair_probes") - probes_before;
  EXPECT_GT(probes, 0u);
  EXPECT_EQ(perf::counter_value("combined_place.pair_updates") - updates_before,
            probes);
}

// ----------------------------------------------------------- flow entries

TEST(EdgeCases, NonPositiveAnnealEffortIsRejected) {
  // The annealer would clamp these to one move per temperature and return
  // an unannealed placement; the flow entry rejects the non-positive ones
  // and the annealing schedule the one whose move count overflows int64. A
  // driver job must report the rejection in its own slot, with and without
  // a cache dir, never on the worker thread.
  const auto modes =
      std::make_shared<const std::vector<techmap::LutCircuit>>(
          std::vector<techmap::LutCircuit>{solo_mode(), solo_mode()});
  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() /
      ("mmflow_edge_inner_" + std::to_string(::getpid()));
  for (const double inner : {0.0, -1.0, 1e300}) {
    SCOPED_TRACE(::testing::Message() << "inner_num=" << inner);
    core::FlowOptions options;
    options.anneal.inner_num = inner;
    EXPECT_THROW((void)core::run_experiment(*modes, options),
                 PreconditionError);

    for (const std::string& dir : {std::string(), cache_dir.string()}) {
      core::BatchOptions batch_options;
      batch_options.cache_dir = dir;
      core::BatchDriver driver(batch_options);
      const auto results =
          driver.run({core::BatchJob{"solo", modes, options}});
      ASSERT_EQ(results.size(), 1u);
      EXPECT_EQ(results[0].experiment, nullptr);
      EXPECT_EQ(results[0].outcome.status, core::JobStatus::Failed);
      EXPECT_EQ(results[0].outcome.error_kind, "precondition");
    }
  }
  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace mmflow
