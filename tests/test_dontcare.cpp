#include <gtest/gtest.h>

#include "arch/rrg.h"
#include "bitstream/config_model.h"
#include "common/rng.h"
#include "route/router.h"

namespace mmflow::bitstream {
namespace {

arch::ArchSpec small_spec() {
  arch::ArchSpec spec;
  spec.nx = 4;
  spec.ny = 4;
  spec.channel_width = 3;
  return spec;
}

/// Finds a wire mux with at least two in-edges and returns (node, e0, e1).
std::tuple<std::uint32_t, std::uint32_t, std::uint32_t> mux_with_two(
    const arch::RoutingGraph& rrg) {
  for (std::uint32_t n = 0; n < rrg.num_nodes(); ++n) {
    if (rrg.is_wire(n) && rrg.fan_in(n) >= 2) {
      auto [b, e] = rrg.in_edges(n);
      (void)e;
      return {n, *b, *(b + 1)};
    }
  }
  throw InternalError("no mux");
}

TEST(DontCare, UnusedModeIsFree) {
  const arch::RoutingGraph rrg(small_spec());
  const ConfigModel model(rrg, MuxEncoding::Binary);
  const auto [node, e0, e1] = mux_with_two(rrg);
  (void)e1;

  RoutingState a(rrg.num_nodes());
  RoutingState b(rrg.num_nodes());
  a.set_driver(node, e0);
  // Mode b does not use the node at all: strict counting sees a difference,
  // don't-care counting freezes the bit.
  const std::vector<RoutingState> modes{a, b};
  EXPECT_GT(model.parameterized_routing_bits(modes), 0u);
  EXPECT_EQ(model.parameterized_routing_bits_dontcare(modes), 0u);
}

TEST(DontCare, ActiveConflictStillCounts) {
  const arch::RoutingGraph rrg(small_spec());
  const auto [node, e0, e1] = mux_with_two(rrg);
  for (const auto enc : {MuxEncoding::Binary, MuxEncoding::OneHot}) {
    const ConfigModel model(rrg, enc);
    RoutingState a(rrg.num_nodes());
    RoutingState b(rrg.num_nodes());
    a.set_driver(node, e0);
    b.set_driver(node, e1);
    const std::vector<RoutingState> modes{a, b};
    EXPECT_GT(model.parameterized_routing_bits_dontcare(modes), 0u)
        << "conflicting drivers must stay parameterized";
  }
}

TEST(DontCare, AgreementIsStatic) {
  const arch::RoutingGraph rrg(small_spec());
  const ConfigModel model(rrg, MuxEncoding::Binary);
  const auto [node, e0, e1] = mux_with_two(rrg);
  (void)e1;
  RoutingState a(rrg.num_nodes());
  RoutingState b(rrg.num_nodes());
  a.set_driver(node, e0);
  b.set_driver(node, e0);
  const std::vector<RoutingState> modes{a, b};
  EXPECT_EQ(model.parameterized_routing_bits_dontcare(modes), 0u);
  EXPECT_EQ(model.parameterized_routing_bits(modes), 0u);
}

TEST(DontCare, NeverExceedsStrictCounting) {
  // Property: over random states, don't-care counting <= strict counting.
  const arch::RoutingGraph rrg(small_spec());
  const ConfigModel model(rrg, MuxEncoding::Binary);
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<RoutingState> modes(2, RoutingState(rrg.num_nodes()));
    for (std::uint32_t n = 0; n < rrg.num_nodes(); ++n) {
      if (!rrg.is_wire(n) || rrg.fan_in(n) == 0) continue;
      for (auto& mode : modes) {
        if (!rng.next_bool(0.3)) continue;
        auto [b, e] = rrg.in_edges(n);
        mode.set_driver(n, *(b + rng.next_below(static_cast<std::uint64_t>(e - b))));
      }
    }
    EXPECT_LE(model.parameterized_routing_bits_dontcare(modes),
              model.parameterized_routing_bits(modes));
  }
}

TEST(RouterAlignment, CrossModeAlignmentReducesParameterizedBits) {
  // Two different nets with the same source/sink in different modes: with
  // the align discount the router should reuse the same corridor, driving
  // the *strict* parameterized count down compared to align_discount = 1.
  arch::ArchSpec spec;
  spec.nx = 6;
  spec.ny = 6;
  spec.channel_width = 4;
  const arch::RoutingGraph rrg(spec);

  route::RouteProblem problem;
  problem.num_modes = 2;
  for (int m = 0; m < 2; ++m) {
    for (int y = 1; y <= 4; ++y) {
      route::RouteNet net;
      net.name = "m" + std::to_string(m) + "y" + std::to_string(y);
      net.source_node = rrg.clb_source(1, y);
      net.conns.push_back(
          route::RouteConn{rrg.clb_sink(6, y), m == 0 ? 0b01u : 0b10u});
      problem.nets.push_back(net);
    }
  }

  const ConfigModel model(rrg, MuxEncoding::Binary);
  route::RouterOptions with_align;
  with_align.align_discount = 0.4;
  route::RouterOptions no_align;
  no_align.align_discount = 1.0;

  const auto r1 = route::route(rrg, problem, with_align);
  const auto r2 = route::route(rrg, problem, no_align);
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  const auto s1 = r1.per_mode_states(rrg, problem);
  const auto s2 = r2.per_mode_states(rrg, problem);
  EXPECT_LE(model.parameterized_routing_bits(s1),
            model.parameterized_routing_bits(s2));
}

}  // namespace
}  // namespace mmflow::bitstream
