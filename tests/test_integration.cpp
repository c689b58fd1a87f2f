#include <gtest/gtest.h>

#include <set>
#include <string>

#include "aig/bridge.h"
#include "core/flows.h"
#include "core/metrics.h"
#include "helpers.h"
#include "techmap/mapper.h"

namespace mmflow {
namespace {

/// Small mode circuit family for multi-mode (>2 modes) testing.
techmap::LutCircuit small_mode(int variant, std::uint64_t seed) {
  Rng rng(seed * 37 + static_cast<std::uint64_t>(variant));
  netlist::Netlist nl("m" + std::to_string(variant));
  std::vector<netlist::SignalId> pool;
  for (int i = 0; i < 5; ++i) pool.push_back(nl.add_input("i" + std::to_string(i)));
  const auto q0 = nl.add_latch(netlist::kNoSignal, false, "q0");
  const auto q1 = nl.add_latch(netlist::kNoSignal, true, "q1");
  pool.push_back(q0);
  pool.push_back(q1);
  for (int g = 0; g < 30 + variant * 4; ++g) {
    const auto a = pool[rng.next_below(pool.size())];
    const auto b = pool[rng.next_below(pool.size())];
    pool.push_back(rng.next_bool(0.5) ? nl.add_xor(a, b) : nl.add_nand(a, b));
  }
  nl.set_latch_input(q0, pool[pool.size() - 1]);
  nl.set_latch_input(q1, pool[pool.size() - 2]);
  for (int i = 0; i < 3; ++i) {
    nl.add_output("o" + std::to_string(i), pool[pool.size() - 1 - i]);
  }
  auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
  mapped.set_name(nl.name());
  return mapped;
}

core::FlowOptions fast_options(std::uint64_t seed) {
  core::FlowOptions options;
  options.seed = seed;
  options.anneal.inner_num = 2.0;
  return options;
}

TEST(Integration, ThreeModeExperiment) {
  // The paper's machinery generalizes beyond 2 modes (3 modes -> 2 mode
  // bits, invalid code 3 is a don't-care). End-to-end on 3 modes.
  std::vector<techmap::LutCircuit> modes{small_mode(0, 1), small_mode(1, 1),
                                         small_mode(2, 1)};
  const auto exp = core::run_experiment(modes, fast_options(3));
  ASSERT_EQ(exp.mdr_routing.size(), 3u);
  for (const auto& r : exp.mdr_routing) EXPECT_TRUE(r.success);
  EXPECT_TRUE(exp.dcs_routing.success);

  const auto metrics = core::reconfig_metrics(exp, bitstream::MuxEncoding::Binary);
  EXPECT_GT(metrics.dcs_speedup(), 1.0);

  const auto wl = core::wirelength_metrics(exp);
  ASSERT_EQ(wl.mdr.size(), 3u);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_GT(wl.dcs[m], 0u);
  }

  // Activation functions of 3-mode connections render over 2 mode bits.
  ASSERT_TRUE(exp.tunable.has_value());
  for (const auto& conn : exp.tunable->conns()) {
    const tunable::ModeFunction f(3, conn.activation);
    EXPECT_FALSE(f.to_sop().empty());
  }

  // Specialization of the merged circuit matches each mode.
  for (int m = 0; m < 3; ++m) {
    const auto specialized = exp.tunable->specialize(m);
    techmap::LutSimulator sim_orig(modes[static_cast<std::size_t>(m)]);
    techmap::LutSimulator sim_spec(specialized);
    Rng stim(99u + static_cast<unsigned>(m));
    for (int cycle = 0; cycle < 16; ++cycle) {
      const auto words = mmflow::testing::random_words(
          modes[static_cast<std::size_t>(m)].num_pis(), stim);
      ASSERT_EQ(sim_orig.step(words), sim_spec.step(words));
    }
  }
}

TEST(Integration, ModeSwitchWriteSchedule) {
  // The reconfiguration manager's write schedule must transform mode A's
  // routing configuration into mode B's (on the bits B cares about).
  std::vector<techmap::LutCircuit> modes{small_mode(0, 7), small_mode(1, 7)};
  const auto exp = core::run_experiment(modes, fast_options(11));

  const arch::RoutingGraph rrg(exp.region);
  const bitstream::ConfigModel model(rrg, bitstream::MuxEncoding::Binary);
  const auto states = exp.dcs_routing.per_mode_states(rrg, exp.dcs_problem);

  const auto writes = model.mode_switch_writes(states, 0, 1);
  // Apply the schedule to mode 0's state; every mux mode 1 uses must then
  // match mode 1's configuration.
  bitstream::RoutingState current = states[0];
  for (const auto& w : writes) {
    if (w.value == 0) {
      current.clear_driver(w.node);
    } else {
      auto [b, e] = rrg.in_edges(w.node);
      (void)e;
      current.set_driver(w.node, *(b + (w.value - 1)));
    }
  }
  for (std::uint32_t n = 0; n < rrg.num_nodes(); ++n) {
    // Only programmable muxes carry configuration; SOURCE/OPIN/SINK
    // occupancy is bookkeeping, not bits.
    if (model.is_programmable_mux(n) && states[1].driver(n) >= 0) {
      EXPECT_EQ(current.driver(n), states[1].driver(n)) << "node " << n;
    }
  }

  // Don't-care schedules are never larger than strict ones, and their bit
  // cost is bounded by the parameterized-bit count.
  const auto strict = model.mode_switch_writes(states, 0, 1, false);
  EXPECT_LE(writes.size(), strict.size());
  EXPECT_LE(model.schedule_bits(writes),
            model.schedule_bits(strict));
}

TEST(Integration, WidthSlackRelaxesRouting) {
  // The 20% channel slack must leave the final width >= the minimum, and
  // re-routing at the relaxed width must succeed (run_experiment asserts
  // it; verify the arithmetic here).
  std::vector<techmap::LutCircuit> modes{small_mode(0, 13), small_mode(1, 13)};
  auto options = fast_options(5);
  options.width_slack = 1.5;
  const auto exp = core::run_experiment(modes, options);
  EXPECT_GE(exp.region.channel_width,
            static_cast<int>(std::ceil(exp.min_width * 1.5)) - 1);
}

TEST(Integration, WiltonSwitchboxRoutes) {
  // The flow is architecture-agnostic (paper: "different routing
  // architectures can be used"); exercise the Wilton switch box end to end
  // at the router level.
  arch::ArchSpec spec;
  spec.nx = 6;
  spec.ny = 6;
  spec.channel_width = 4;
  spec.switch_box = arch::SwitchBoxKind::Wilton;
  const arch::RoutingGraph rrg(spec);

  route::RouteProblem problem;
  Rng rng(3);
  std::set<std::pair<int, int>> used_sources;
  for (int n = 0; n < 20; ++n) {
    const int sx = static_cast<int>(rng.next_int(1, 6));
    const int sy = static_cast<int>(rng.next_int(1, 6));
    // One block drives one net: source sites must be distinct.
    if (!used_sources.emplace(sx, sy).second) continue;
    route::RouteNet net;
    net.name = "n" + std::to_string(n);
    net.source_node = rrg.clb_source(sx, sy);
    net.conns.push_back(route::RouteConn{
        rrg.clb_sink(static_cast<int>(rng.next_int(1, 6)),
                     static_cast<int>(rng.next_int(1, 6))),
        1});
    if (rrg.node(net.conns[0].sink_node).x == sx &&
        rrg.node(net.conns[0].sink_node).y == sy) {
      used_sources.erase({sx, sy});
      continue;  // skip degenerate same-site pairs
    }
    problem.nets.push_back(net);
  }
  ASSERT_GE(problem.nets.size(), 10u);
  EXPECT_TRUE(route::route(rrg, problem).success);
}

TEST(Integration, DifferentKEndToEnd) {
  // K is an architecture parameter of the whole flow (paper §IV-B). Run a
  // 5-LUT experiment end to end.
  techmap::MapperOptions mopt;
  mopt.k = 5;
  Rng rng(21);
  std::vector<techmap::LutCircuit> modes;
  for (int v = 0; v < 2; ++v) {
    netlist::Netlist nl("k5_" + std::to_string(v));
    std::vector<netlist::SignalId> pool;
    for (int i = 0; i < 5; ++i) {
      pool.push_back(nl.add_input("i" + std::to_string(i)));
    }
    for (int g = 0; g < 25; ++g) {
      const auto a = pool[rng.next_below(pool.size())];
      const auto b = pool[rng.next_below(pool.size())];
      pool.push_back(v == 0 ? nl.add_xor(a, b) : nl.add_or(a, b));
    }
    for (int i = 0; i < 2; ++i) {
      nl.add_output("o" + std::to_string(i), pool[pool.size() - 1 - i]);
    }
    auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl), mopt);
    mapped.set_name(nl.name());
    modes.push_back(std::move(mapped));
  }
  const auto exp = core::run_experiment(modes, fast_options(17));
  EXPECT_EQ(exp.region.k, 5);
  const auto metrics = core::reconfig_metrics(exp, bitstream::MuxEncoding::Binary);
  // 5-LUT sites have 32+1 config bits.
  const auto sites = static_cast<std::uint64_t>(exp.region.num_clb_sites());
  EXPECT_EQ(metrics.lut_bits, sites * 33u);
}

}  // namespace
}  // namespace mmflow
