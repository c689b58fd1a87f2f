#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "arch/rrg.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "route/router.h"

namespace mmflow::route {
namespace {

/// Random single-mode problem with distinct source sites.
RouteProblem random_problem(const arch::RoutingGraph& rrg, int nets,
                            std::uint64_t seed) {
  Rng rng(seed);
  const auto& spec = rrg.spec();
  RouteProblem problem;
  std::set<std::pair<int, int>> sources;
  for (int n = 0; n < nets; ++n) {
    const int sx = static_cast<int>(rng.next_int(1, spec.nx));
    const int sy = static_cast<int>(rng.next_int(1, spec.ny));
    if (!sources.emplace(sx, sy).second) continue;
    RouteNet net;
    net.name = "n" + std::to_string(n);
    net.source_node = rrg.clb_source(sx, sy);
    int tx = static_cast<int>(rng.next_int(1, spec.nx));
    int ty = static_cast<int>(rng.next_int(1, spec.ny));
    if (tx == sx && ty == sy) tx = (tx % spec.nx) + 1;
    net.conns.push_back(RouteConn{rrg.clb_sink(tx, ty), 1});
    problem.nets.push_back(std::move(net));
  }
  return problem;
}

/// Route the same problem across a sweep of channel widths: once a width
/// routes, every larger width must too (routability is monotone), and the
/// total wirelength should not blow up with more routing freedom.
class WidthSweepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WidthSweepTest, RoutabilityMonotoneInWidth) {
  arch::ArchSpec spec;
  spec.nx = 8;
  spec.ny = 8;

  bool routed_before = false;
  std::size_t first_wl = 0;
  for (const int width : {2, 3, 4, 6, 8}) {
    spec.channel_width = width;
    const arch::RoutingGraph rrg(spec);
    const auto problem = random_problem(rrg, 30, GetParam());
    const auto result = route(rrg, problem);
    if (routed_before) {
      EXPECT_TRUE(result.success) << "W=" << width << " regressed";
    }
    if (result.success) {
      if (!routed_before) first_wl = result.total_wirelength(rrg);
      routed_before = true;
      // More freedom must not cost dramatically more wire.
      EXPECT_LE(result.total_wirelength(rrg), first_wl * 2 + 16)
          << "W=" << width;
    }
  }
  EXPECT_TRUE(routed_before) << "unroutable even at W=8";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WidthSweepTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

/// Multi-mode problems with random activation masks stay legal across mode
/// counts (including the >= 3 mode splitting path).
class ModeCountSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ModeCountSweepTest, RandomMultiModeProblemsRoute) {
  const int num_modes = GetParam();
  arch::ArchSpec spec;
  spec.nx = 7;
  spec.ny = 7;
  spec.channel_width = 8;
  const arch::RoutingGraph rrg(spec);

  Rng rng(static_cast<std::uint64_t>(num_modes) * 97);
  RouteProblem problem;
  problem.num_modes = num_modes;
  std::set<std::pair<int, int>> sources;
  // A CLB has K input pins per mode: cap distinct nets per (sink, mode) at
  // K, like a real mapped circuit does (otherwise the problem is
  // structurally unroutable at any width).
  std::map<std::tuple<int, int, int>, int> sink_load;
  for (int n = 0; n < 25; ++n) {
    const int sx = static_cast<int>(rng.next_int(1, 7));
    const int sy = static_cast<int>(rng.next_int(1, 7));
    if (!sources.emplace(sx, sy).second) continue;
    RouteNet net;
    net.name = "n" + std::to_string(n);
    net.source_node = rrg.clb_source(sx, sy);
    const int fanout = 1 + static_cast<int>(rng.next_below(2));
    for (int f = 0; f < fanout; ++f) {
      int tx = static_cast<int>(rng.next_int(1, 7));
      int ty = static_cast<int>(rng.next_int(1, 7));
      if (tx == sx && ty == sy) tx = (tx % 7) + 1;
      const auto mask = static_cast<ModeMask>(
          1 + rng.next_below((1u << num_modes) - 1));
      bool fits = true;
      for (int m = 0; m < num_modes; ++m) {
        if ((mask >> m & 1) && sink_load[{tx, ty, m}] >= spec.k) fits = false;
      }
      if (!fits) continue;
      for (int m = 0; m < num_modes; ++m) {
        if (mask >> m & 1) ++sink_load[{tx, ty, m}];
      }
      net.conns.push_back(RouteConn{rrg.clb_sink(tx, ty), mask});
    }
    if (!net.conns.empty()) problem.nets.push_back(std::move(net));
  }

  const auto result = route(rrg, problem);
  ASSERT_TRUE(result.success) << num_modes << " modes";

  // Legality audit: per (node, mode) one (net, driver).
  struct Claim {
    std::int32_t net = -1;
    std::int32_t edge = -1;
  };
  std::vector<Claim> claims(rrg.num_nodes() *
                            static_cast<std::size_t>(num_modes));
  for (const auto& rc : result.conns) {
    for (std::size_t i = 0; i < rc.nodes.size(); ++i) {
      if (rrg.node(rc.nodes[i]).kind == arch::RrKind::Sink) continue;
      const std::int32_t edge =
          i == 0 ? -1 : static_cast<std::int32_t>(rc.edges[i - 1]);
      for (int m = 0; m < num_modes; ++m) {
        if (!(rc.modes >> m & 1)) continue;
        Claim& c = claims[static_cast<std::size_t>(rc.nodes[i]) * num_modes + m];
        if (c.net == -1) {
          c.net = static_cast<std::int32_t>(rc.net);
          c.edge = edge;
        } else {
          ASSERT_EQ(c.net, static_cast<std::int32_t>(rc.net));
          ASSERT_EQ(c.edge, edge);
        }
      }
    }
  }

  // Split coverage: the union of RoutedConn masks per problem connection
  // must equal the original activation.
  std::map<std::pair<std::uint32_t, std::uint32_t>, ModeMask> covered;
  for (const auto& rc : result.conns) {
    covered[{rc.net, rc.conn}] |= rc.modes;
  }
  for (std::uint32_t n = 0; n < problem.nets.size(); ++n) {
    for (std::uint32_t c = 0; c < problem.nets[n].conns.size(); ++c) {
      const auto key = std::make_pair(n, c);
      EXPECT_EQ(covered[key], problem.nets[n].conns[c].modes)
          << "net " << n << " conn " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ModeCounts, ModeCountSweepTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace mmflow::route

// ---- knob-range sweep specs -------------------------------------------------
//
// The autotuner's search space is written as `name=lo:hi[:log]` terms
// (common/strings.h). Like the other checked knob parsers, every malformed
// term must be rejected with an error naming the knob — a sweep that
// silently skips or misreads a range would search the wrong space.

namespace mmflow {
namespace {

TEST(KnobRangeSpec, ParsesLinearAndLogTerms) {
  const auto linear = parse_knob_range("astar_fac=1.0:1.6", "--tune-knobs");
  EXPECT_EQ(linear.name, "astar_fac");
  EXPECT_DOUBLE_EQ(linear.lo, 1.0);
  EXPECT_DOUBLE_EQ(linear.hi, 1.6);
  EXPECT_FALSE(linear.log_scale);

  const auto log = parse_knob_range(" inner_num = 2 : 20 : log ", "t");
  EXPECT_EQ(log.name, "inner_num");
  EXPECT_TRUE(log.log_scale);

  const auto list =
      parse_knob_ranges("a=1:2,b=0.5:0.9,,c=1:8:log", "--tune-knobs");
  ASSERT_EQ(list.size(), 3u);  // stray comma tolerated
  EXPECT_EQ(list[1].name, "b");
}

/// Every rejection names the offending knob and the surface (`what`), like
/// the PR 5 checked parsers.
void expect_named_rejection(const std::string& term, const std::string& knob) {
  try {
    (void)parse_knob_range(term, "--tune-knobs");
    FAIL() << "expected PreconditionError for '" << term << "'";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--tune-knobs"), std::string::npos) << what;
    if (!knob.empty()) {
      EXPECT_NE(what.find(knob), std::string::npos) << what;
    }
  }
}

TEST(KnobRangeSpec, RejectsMalformedTermsWithNamedErrors) {
  expect_named_rejection("inner_num", "");              // missing '='
  expect_named_rejection("=1:2", "");                   // empty name
  expect_named_rejection("inner_num=1", "inner_num");   // missing hi
  expect_named_rejection("inner_num=1:2:3:4", "inner_num");
  expect_named_rejection("inner_num=nan:2", "inner_num");
  expect_named_rejection("inner_num=1:inf", "inner_num");
  expect_named_rejection("inner_num=2:1", "inner_num");  // reversed bounds
  expect_named_rejection("inner_num=2:2", "inner_num");  // empty range
  expect_named_rejection("inner_num=1:2:cubic", "inner_num");
  expect_named_rejection("inner_num=0:2:log", "inner_num");  // log needs lo>0
  expect_named_rejection("inner_num=-1:2:log", "inner_num");
  expect_named_rejection("inner_num=abc:2", "inner_num");
}

TEST(KnobRangeSpec, RejectsDuplicateKnobsAndEmptySpecs) {
  try {
    (void)parse_knob_ranges("a=1:2,b=3:4,a=5:6", "--tune-knobs");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'a'"), std::string::npos);
  }
  EXPECT_THROW((void)parse_knob_ranges("", "t"), PreconditionError);
  EXPECT_THROW((void)parse_knob_ranges(",,", "t"), PreconditionError);
}

}  // namespace
}  // namespace mmflow
