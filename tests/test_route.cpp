#include <gtest/gtest.h>

#include <set>

#include "arch/rrg.h"
#include "common/check.h"
#include "common/perf.h"
#include "common/rng.h"
#include "route/router.h"

namespace mmflow::route {
namespace {

arch::ArchSpec spec_with(int n, int w) {
  arch::ArchSpec spec;
  spec.nx = n;
  spec.ny = n;
  spec.channel_width = w;
  return spec;
}

/// Random multi-mode problem, same shape as bench_perf_route's generator.
RouteProblem random_problem(const arch::RoutingGraph& rrg, int nets,
                            int num_modes, std::uint64_t seed) {
  Rng rng(seed);
  const auto& spec = rrg.spec();
  RouteProblem problem;
  problem.num_modes = num_modes;
  std::set<std::pair<int, int>> used_sources;
  for (int n = 0; n < nets; ++n) {
    RouteNet net;
    net.name = "n" + std::to_string(n);
    const int sx = static_cast<int>(rng.next_int(1, spec.nx));
    const int sy = static_cast<int>(rng.next_int(1, spec.ny));
    if (!used_sources.emplace(sx, sy).second) continue;
    net.source_node = rrg.clb_source(sx, sy);
    const int fanout = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < fanout; ++f) {
      int tx = static_cast<int>(rng.next_int(1, spec.nx));
      int ty = static_cast<int>(rng.next_int(1, spec.ny));
      if (tx == sx && ty == sy) tx = (tx % spec.nx) + 1;
      const ModeMask mask =
          num_modes == 1 ? 1u
                         : static_cast<ModeMask>(
                               1u + rng.next_below((1u << num_modes) - 1));
      net.conns.push_back(RouteConn{rrg.clb_sink(tx, ty), mask});
    }
    problem.nets.push_back(std::move(net));
  }
  return problem;
}

/// FNV-1a over everything QoR-relevant in a route result. Two results hash
/// equal iff they are bit-identical for the router's purposes.
std::uint64_t hash_result(const RouteResult& result) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 1099511628211ULL;
    }
  };
  mix(result.success ? 1 : 0);
  mix(static_cast<std::uint64_t>(result.iterations));
  mix(result.conns.size());
  for (const RoutedConn& rc : result.conns) {
    mix(rc.net);
    mix(rc.conn);
    mix(rc.modes);
    mix(rc.nodes.size());
    for (const auto n : rc.nodes) mix(n);
    for (const auto e : rc.edges) mix(e);
  }
  return h;
}

/// Audits a successful result against first principles: each connection's
/// path starts at the net source, ends at its sink, follows RRG edges, and
/// no (node, mode) carries two different (net, driver) pairs.
void audit(const arch::RoutingGraph& rrg, const RouteProblem& problem,
           const RouteResult& result) {
  ASSERT_TRUE(result.success);
  struct Claim {
    std::int32_t net = -1;
    std::int32_t edge = -1;
  };
  std::vector<Claim> claims(rrg.num_nodes() *
                            static_cast<std::size_t>(problem.num_modes));
  for (const RoutedConn& rc : result.conns) {
    const auto& net = problem.nets[rc.net];
    const auto& conn = net.conns[rc.conn];
    ASSERT_FALSE(rc.nodes.empty());
    EXPECT_EQ(rc.nodes.front(), net.source_node);
    EXPECT_EQ(rc.nodes.back(), conn.sink_node);
    ASSERT_EQ(rc.edges.size() + 1, rc.nodes.size());
    for (std::size_t i = 0; i < rc.edges.size(); ++i) {
      const auto& e = rrg.edge(rc.edges[i]);
      EXPECT_EQ(e.from, rc.nodes[i]);
      EXPECT_EQ(e.to, rc.nodes[i + 1]);
    }
    for (std::size_t i = 0; i < rc.nodes.size(); ++i) {
      const std::int32_t edge =
          i == 0 ? -1 : static_cast<std::int32_t>(rc.edges[i - 1]);
      for (int m = 0; m < problem.num_modes; ++m) {
        if (!(conn.modes >> m & 1)) continue;
        Claim& c = claims[static_cast<std::size_t>(rc.nodes[i]) *
                              problem.num_modes + m];
        if (c.net == -1) {
          c.net = static_cast<std::int32_t>(rc.net);
          c.edge = edge;
        } else {
          EXPECT_EQ(c.net, static_cast<std::int32_t>(rc.net))
              << "two nets on node " << rc.nodes[i] << " in mode " << m;
          EXPECT_EQ(c.edge, edge) << "two drivers on node " << rc.nodes[i];
        }
      }
    }
  }
}

TEST(Router, SingleConnection) {
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  problem.num_modes = 1;
  RouteNet net;
  net.name = "n0";
  net.source_node = rrg.clb_source(1, 1);
  net.conns.push_back(RouteConn{rrg.clb_sink(4, 4), 1});
  problem.nets.push_back(net);

  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
  EXPECT_GE(result.conns[0].nodes.size(), 4u);  // src, opin, wires..., ipin, sink
}

TEST(Router, FanoutSharesTrunk) {
  const arch::RoutingGraph rrg(spec_with(5, 4));
  RouteProblem problem;
  RouteNet net;
  net.name = "fan";
  net.source_node = rrg.clb_source(1, 3);
  net.conns.push_back(RouteConn{rrg.clb_sink(5, 3), 1});
  net.conns.push_back(RouteConn{rrg.clb_sink(5, 2), 1});
  net.conns.push_back(RouteConn{rrg.clb_sink(5, 4), 1});
  problem.nets.push_back(net);

  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
  // With the share discount the three paths should reuse trunk wires:
  // total distinct wires well below the sum of the three path lengths.
  std::size_t total_path_wires = 0;
  for (const auto& rc : result.conns) {
    for (const auto n : rc.nodes) total_path_wires += rrg.is_wire(n) ? 1 : 0;
  }
  EXPECT_LT(result.total_wirelength(rrg), total_path_wires);
}

TEST(Router, CongestionNegotiation) {
  // Many nets crossing a narrow channel force negotiation.
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  for (int y = 1; y <= 4; ++y) {
    RouteNet net;
    net.name = "h" + std::to_string(y);
    net.source_node = rrg.clb_source(1, y);
    net.conns.push_back(RouteConn{rrg.clb_sink(4, y), 1});
    problem.nets.push_back(net);
    RouteNet net2;
    net2.name = "d" + std::to_string(y);
    net2.source_node = rrg.clb_source(2, y);
    net2.conns.push_back(RouteConn{rrg.clb_sink(3, (y % 4) + 1), 1});
    problem.nets.push_back(net2);
  }
  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
}

TEST(Router, CrossModeSharingIsLegal) {
  // Two different nets with the same source/sink sites but in different
  // modes: they may overlap on wires.
  const arch::RoutingGraph rrg(spec_with(4, 2));
  RouteProblem problem;
  problem.num_modes = 2;
  RouteNet a;
  a.name = "modeA";
  a.source_node = rrg.clb_source(1, 1);
  a.conns.push_back(RouteConn{rrg.clb_sink(4, 4), 0b01});
  RouteNet b;
  b.name = "modeB";
  b.source_node = rrg.clb_source(1, 1);
  b.conns.push_back(RouteConn{rrg.clb_sink(4, 4), 0b10});
  problem.nets.push_back(a);
  problem.nets.push_back(b);

  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
}

TEST(Router, MergedConnectionIsStatic) {
  // One connection active in both modes: its routing bits must be identical
  // across modes (zero parameterized bits).
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  problem.num_modes = 2;
  RouteNet net;
  net.name = "merged";
  net.source_node = rrg.clb_source(1, 1);
  net.conns.push_back(RouteConn{rrg.clb_sink(3, 3), 0b11});
  problem.nets.push_back(net);

  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
  const auto states = result.per_mode_states(rrg, problem);
  const bitstream::ConfigModel model(rrg, bitstream::MuxEncoding::Binary);
  EXPECT_EQ(model.parameterized_routing_bits(states), 0u);
  EXPECT_GT(model.used_routing_bits(states[0]), 0u);
}

TEST(Router, UnmergedConnectionsAreParameterized) {
  // Same endpoints but separate per-mode connections of *different* nets:
  // bits should differ across modes unless the router happens to align them
  // (different nets may still share wires across modes; drivers of IPIN of
  // two different nets from different wires differ with high probability).
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  problem.num_modes = 2;
  RouteNet a;
  a.name = "a";
  a.source_node = rrg.clb_source(1, 1);
  a.conns.push_back(RouteConn{rrg.clb_sink(3, 3), 0b01});
  RouteNet b;
  b.name = "b";
  b.source_node = rrg.clb_source(1, 2);  // different source site
  b.conns.push_back(RouteConn{rrg.clb_sink(3, 3), 0b10});
  problem.nets.push_back(a);
  problem.nets.push_back(b);

  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
  const auto states = result.per_mode_states(rrg, problem);
  const bitstream::ConfigModel model(rrg, bitstream::MuxEncoding::Binary);
  EXPECT_GT(model.parameterized_routing_bits(states), 0u);
}

TEST(Router, PadToPadRouting) {
  const arch::RoutingGraph rrg(spec_with(3, 2));
  const arch::DeviceGrid grid(spec_with(3, 2));
  RouteProblem problem;
  RouteNet net;
  net.name = "io";
  net.source_node = rrg.pad_source(grid.pad_site(0));
  net.conns.push_back(RouteConn{rrg.pad_sink(grid.pad_site(17)), 1});
  problem.nets.push_back(net);
  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
}

TEST(Router, WirelengthPerMode) {
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  problem.num_modes = 2;
  RouteNet a;
  a.name = "a";
  a.source_node = rrg.clb_source(1, 1);
  a.conns.push_back(RouteConn{rrg.clb_sink(4, 1), 0b01});
  problem.nets.push_back(a);
  const RouteResult result = route(rrg, problem);
  audit(rrg, problem, result);
  EXPECT_GT(result.wirelength_of_mode(rrg, problem, 0), 0u);
  EXPECT_EQ(result.wirelength_of_mode(rrg, problem, 1), 0u);
}

TEST(Router, DeterministicForSeed) {
  const arch::RoutingGraph rrg(spec_with(4, 2));
  RouteProblem problem;
  for (int i = 1; i <= 4; ++i) {
    RouteNet net;
    net.name = "n" + std::to_string(i);
    net.source_node = rrg.clb_source(i, 1);
    net.conns.push_back(RouteConn{rrg.clb_sink(5 - i, 4), 1});
    problem.nets.push_back(net);
  }
  const RouteResult r1 = route(rrg, problem);
  const RouteResult r2 = route(rrg, problem);
  ASSERT_EQ(r1.conns.size(), r2.conns.size());
  for (std::size_t i = 0; i < r1.conns.size(); ++i) {
    EXPECT_EQ(r1.conns[i].nodes, r2.conns[i].nodes);
  }
}

/// Golden pin for a TRoute-regime problem (10x10, W=6, 40 nets, 4 modes,
/// seed 7). A failure means routed results drifted — which would also
/// invalidate every cached flow artifact — not merely that a test
/// expectation aged.
TEST(Router, GoldenHashPinned) {
  const arch::RoutingGraph rrg(spec_with(10, 6));
  const auto problem = random_problem(rrg, 40, 4, 7);
  EXPECT_EQ(hash_result(route(rrg, problem)), 0xb6acab08c334b479ULL);
}

TEST(Router, ProbeModeIsBitIdenticalWhenItDoesNotGiveUp) {
  const arch::RoutingGraph rrg(spec_with(10, 6));
  const auto problem = random_problem(rrg, 40, 4, 7);
  EXPECT_EQ(hash_result(route(rrg, problem, {}, RouteMode::Probe)),
            0xb6acab08c334b479ULL);
}

TEST(Router, ProbeModeGivesUpOnHopelessCongestion) {
  // Width 1 on a 4x4 array cannot carry 20 random nets.
  const arch::RoutingGraph rrg(spec_with(4, 1));
  const auto problem = random_problem(rrg, 20, 1, 3);
  perf::reset();
  const RouteResult final_route = route(rrg, problem);
  EXPECT_FALSE(final_route.success);
  EXPECT_EQ(final_route.iterations, 40);
  EXPECT_EQ(perf::counter_value("route.probes_abandoned"), 0u);

  const RouteResult probe = route(rrg, problem, {}, RouteMode::Probe);
  EXPECT_FALSE(probe.success);
  EXPECT_EQ(probe.iterations, 10);
  EXPECT_EQ(perf::counter_value("route.probes_abandoned"), 1u);
}

TEST(Router, RejectsJobsOtherThanOne) {
  const arch::RoutingGraph rrg(spec_with(4, 3));
  RouteProblem problem;
  RouteNet net;
  net.name = "n0";
  net.source_node = rrg.clb_source(1, 1);
  net.conns.push_back(RouteConn{rrg.clb_sink(4, 4), 1});
  problem.nets.push_back(net);
  RouterOptions options;
  options.jobs = 4;
  EXPECT_THROW((void)route(rrg, problem, options), PreconditionError);
}

TEST(Router, SplitEscapeHatchKeepsLegality) {
  // A three-mode merged connection pins the same physical path (wires, pins)
  // in every mode; saturating a width-1 fabric with different per-mode cross
  // traffic makes that joint colouring unsatisfiable, so the router must use
  // the split-conflicted-connection escape hatch and realise the connection
  // as per-mode pieces.
  const int n = 4;
  const arch::RoutingGraph rrg(spec_with(n, 1));
  RouteProblem problem;
  problem.num_modes = 3;
  RouteNet merged;
  merged.name = "merged";
  merged.source_node = rrg.clb_source(1, 1);
  merged.conns.push_back(RouteConn{rrg.clb_sink(n, n), 0b111});
  problem.nets.push_back(merged);
  for (int m = 0; m < 3; ++m) {
    for (int y = 2; y <= n; ++y) {
      RouteNet h;
      h.name = "h" + std::to_string(m) + "_" + std::to_string(y);
      h.source_node = rrg.clb_source(2, y);
      h.conns.push_back(RouteConn{rrg.clb_sink(n, (y % n) + 1),
                                  static_cast<ModeMask>(1u << m)});
      problem.nets.push_back(h);
    }
  }

  RouterOptions options;
  options.split_conflicted_after = 4;
  const RouteResult result = route(rrg, problem, options);
  ASSERT_TRUE(result.success);
  // Golden pin: 6 iterations, 12 routed connections after the split.
  EXPECT_EQ(result.iterations, 6);
  EXPECT_EQ(result.conns.size(), 12u);
  EXPECT_EQ(hash_result(result), 0xea9b690ad80edb51ULL);

  // The merged connection was split: several pieces with disjoint sub-masks
  // whose union is the original activation set, each a complete path.
  std::vector<const RoutedConn*> pieces;
  for (const RoutedConn& rc : result.conns) {
    if (rc.net == 0) pieces.push_back(&rc);
  }
  ASSERT_GT(pieces.size(), 1u);
  ModeMask covered = 0;
  for (const RoutedConn* rc : pieces) {
    EXPECT_EQ(covered & rc->modes, 0u) << "overlapping sub-masks";
    covered |= rc->modes;
    ASSERT_FALSE(rc->nodes.empty());
    EXPECT_EQ(rc->nodes.front(), problem.nets[0].source_node);
    EXPECT_EQ(rc->nodes.back(), problem.nets[0].conns[0].sink_node);
  }
  EXPECT_EQ(covered, 0b111u);

  // Post-split legality, keyed by each RoutedConn's own (refined) mask: no
  // (node, mode) carries two different (net, driver) pairs.
  struct Claim {
    std::int32_t net = -1;
    std::int32_t edge = -1;
  };
  std::vector<Claim> claims(rrg.num_nodes() *
                            static_cast<std::size_t>(problem.num_modes));
  for (const RoutedConn& rc : result.conns) {
    ASSERT_EQ(rc.edges.size() + 1, rc.nodes.size());
    for (std::size_t i = 0; i < rc.nodes.size(); ++i) {
      if (rrg.node(rc.nodes[i]).kind == arch::RrKind::Sink) continue;
      const std::int32_t edge =
          i == 0 ? -1 : static_cast<std::int32_t>(rc.edges[i - 1]);
      for (int m = 0; m < problem.num_modes; ++m) {
        if (!(rc.modes >> m & 1)) continue;
        Claim& c = claims[static_cast<std::size_t>(rc.nodes[i]) *
                              problem.num_modes + m];
        if (c.net == -1) {
          c.net = static_cast<std::int32_t>(rc.net);
          c.edge = edge;
        } else {
          EXPECT_EQ(c.net, static_cast<std::int32_t>(rc.net))
              << "two nets on node " << rc.nodes[i] << " in mode " << m;
          EXPECT_EQ(c.edge, edge) << "two drivers on node " << rc.nodes[i];
        }
      }
    }
  }

  // per_mode_states must agree exactly with the drivers reconstructed from
  // the (split) connections: in every mode, each node is driven by the edge
  // of the piece active there, and untouched nodes stay undriven.
  const auto states = result.per_mode_states(rrg, problem);
  ASSERT_EQ(states.size(), 3u);
  for (int m = 0; m < problem.num_modes; ++m) {
    std::vector<std::int32_t> expected(rrg.num_nodes(), -1);
    for (const RoutedConn& rc : result.conns) {
      if (!(rc.modes >> m & 1)) continue;
      for (std::size_t i = 0; i + 1 < rc.nodes.size(); ++i) {
        expected[rc.nodes[i + 1]] = static_cast<std::int32_t>(rc.edges[i]);
      }
    }
    for (std::uint32_t node = 0; node < rrg.num_nodes(); ++node) {
      ASSERT_EQ(states[static_cast<std::size_t>(m)].driver(node),
                expected[node])
          << "driver mismatch at node " << node << " in mode " << m;
    }
  }
}

/// Three nets crossing a 3x3 array: needs a couple of tracks.
RouteProblem crossing_problem(const arch::RoutingGraph& rrg) {
  RouteProblem problem;
  for (int i = 1; i <= 3; ++i) {
    RouteNet net;
    net.name = "n" + std::to_string(i);
    net.source_node = rrg.clb_source(i, 1);
    net.conns.push_back(RouteConn{rrg.clb_sink(4 - i, 3), 1});
    problem.nets.push_back(net);
  }
  return problem;
}

TEST(MinChannelWidth, FindsMinimum) {
  arch::ArchSpec spec = spec_with(3, 1);
  const auto routes_at = [&spec](int width) {
    spec.channel_width = width;
    const arch::RoutingGraph rrg(spec);
    return route(rrg, crossing_problem(rrg)).success;
  };
  const int wmin = search_min_width(routes_at, 128);
  EXPECT_GE(wmin, 1);
  EXPECT_LE(wmin, 8);
  // Verify minimality: wmin routes, wmin-1 does not (when wmin > 1).
  EXPECT_TRUE(routes_at(wmin));
  if (wmin > 1) EXPECT_FALSE(routes_at(wmin - 1));
}

/// Runs search_min_width on the synthetic predicate "routes iff width >=
/// wmin", recording every probed width in order.
std::vector<int> probe_sequence(int wmin, int max_width, int* found) {
  std::vector<int> probed;
  *found = search_min_width(
      [&](int width) {
        probed.push_back(width);
        return width >= wmin;
      },
      max_width);
  return probed;
}

TEST(MinChannelWidth, ProbesEachWidthOnceScanThenBisection) {
  int found = 0;
  // Default ceiling: doubling from 4 brackets 13 in (8, 16], then bisection.
  EXPECT_EQ(probe_sequence(13, 128, &found),
            (std::vector<int>{4, 8, 16, 12, 14, 13}));
  EXPECT_EQ(found, 13);
  EXPECT_EQ(probe_sequence(100, 128, &found),
            (std::vector<int>{4, 8, 16, 32, 64, 128, 96, 112, 104, 100, 98,
                              99}));
  EXPECT_EQ(found, 100);
  EXPECT_EQ(probe_sequence(1, 128, &found), (std::vector<int>{4, 2, 1}));
  EXPECT_EQ(found, 1);
}

TEST(MinChannelWidth, ClampsLastScanStepToMaxWidth) {
  int found = 0;
  // 65..100 lie above the last doubling step (64) but within max_width.
  EXPECT_EQ(probe_sequence(80, 100, &found),
            (std::vector<int>{4, 8, 16, 32, 64, 100, 82, 73, 77, 79, 80}));
  EXPECT_EQ(found, 80);
  EXPECT_EQ(probe_sequence(100, 100, &found).back(), 99);
  EXPECT_EQ(found, 100);
  // A ceiling below the first scan step is itself probed.
  EXPECT_EQ(probe_sequence(2, 3, &found), (std::vector<int>{3, 1, 2}));
  EXPECT_EQ(found, 2);
  // Nothing up to the ceiling routes: each width is probed once, then throw.
  std::vector<int> probed;
  EXPECT_THROW((void)search_min_width(
                   [&](int width) {
                     probed.push_back(width);
                     return false;
                   },
                   100),
               PreconditionError);
  EXPECT_EQ(probed, (std::vector<int>{4, 8, 16, 32, 64, 100}));
  EXPECT_THROW((void)search_min_width([](int) { return true; }, 0),
               PreconditionError);
}

}  // namespace
}  // namespace mmflow::route
