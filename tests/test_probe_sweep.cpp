#include <gtest/gtest.h>

#include <string>

#include "apps/suites.h"
#include "arch/rrg.h"
#include "common/perf.h"
#include "core/flows.h"
#include "route/router.h"

namespace mmflow::route {
namespace {

/// The width search routes in RouteMode::Probe, which may give up early. A
/// probe it gives up on must be one a Final route fails too, or W_min and
/// everything sized from it would move. Checked at every width from 4 to
/// the final width, for each MDR mode and the DCS route of the RegExp first
/// pair at inner_num 1. One case per engine, so each runs as its own ctest
/// entry (see CMakeLists.txt).
class ProbeModeSweepTest
    : public ::testing::TestWithParam<core::CombinedCost> {};

TEST_P(ProbeModeSweepTest, RegExpFirstPairFlipsNoProbe) {
  apps::SuiteOptions suite_options;
  suite_options.limit_pairs = 1;
  const auto bench = apps::regexp_suite(suite_options).front();
  core::FlowOptions options;
  options.cost_engine = GetParam();
  options.anneal.inner_num = 1.0;
  const auto exp = core::run_experiment(bench.modes, options);
  arch::ArchSpec spec = exp.region;
  const auto abandoned_before = perf::counter_value("route.probes_abandoned");
  for (int width = 4; width <= exp.region.channel_width; ++width) {
    spec.channel_width = width;
    const arch::RoutingGraph rrg(spec);
    const auto same_outcome = [&](const core::SiteRouteSpec& route_spec,
                                  const std::string& what) {
      const auto problem = route_spec.instantiate(rrg);
      EXPECT_EQ(route(rrg, problem, options.router, RouteMode::Probe).success,
                route(rrg, problem, options.router).success)
          << what << " at W=" << width;
    };
    for (std::size_t m = 0; m < exp.mdr.size(); ++m) {
      same_outcome(exp.mdr[m].route_spec, "MDR mode " + std::to_string(m));
    }
    same_outcome(exp.dcs_route_spec, "DCS");
  }
  // The sweep must reach the give-up, or it shows nothing.
  EXPECT_GT(perf::counter_value("route.probes_abandoned"), abandoned_before);
}

INSTANTIATE_TEST_SUITE_P(Engines, ProbeModeSweepTest,
                         ::testing::Values(core::CombinedCost::WireLength,
                                           core::CombinedCost::EdgeMatch),
                         [](const auto& info) {
                           return info.param == core::CombinedCost::WireLength
                                      ? "WireLength"
                                      : "EdgeMatch";
                         });

}  // namespace
}  // namespace mmflow::route
