/// \file bench_perf_route.cpp
/// Throughput benchmarks for the router hot paths: RRG construction,
/// single-mode PathFinder routing, the multi-mode connection router
/// (TRoute), and two real width-search probes. Emits JSON with wall times,
/// QoR guard rails (success, iteration count, wirelength) and the router's
/// perf counters — see bench_json.h for the format.

#include <set>
#include <string>

#include "apps/suites.h"
#include "arch/rrg.h"
#include "bench_json.h"
#include "common/log.h"
#include "common/rng.h"
#include "core/flows.h"
#include "route/router.h"

namespace {

using namespace mmflow;

arch::ArchSpec spec_with(int n, int w) {
  arch::ArchSpec spec;
  spec.nx = n;
  spec.ny = n;
  spec.channel_width = w;
  return spec;
}

route::RouteProblem random_problem(const arch::RoutingGraph& rrg, int nets,
                                   int num_modes, std::uint64_t seed) {
  Rng rng(seed);
  const auto& spec = rrg.spec();
  route::RouteProblem problem;
  problem.num_modes = num_modes;
  std::set<std::pair<int, int>> used_sources;
  for (int n = 0; n < nets; ++n) {
    route::RouteNet net;
    net.name = "n" + std::to_string(n);
    const int sx = static_cast<int>(rng.next_int(1, spec.nx));
    const int sy = static_cast<int>(rng.next_int(1, spec.ny));
    // One block drives one net per mode: skip duplicate source sites.
    if (!used_sources.emplace(sx, sy).second) continue;
    net.source_node = rrg.clb_source(sx, sy);
    const int fanout = 1 + static_cast<int>(rng.next_below(3));
    for (int f = 0; f < fanout; ++f) {
      int tx = static_cast<int>(rng.next_int(1, spec.nx));
      int ty = static_cast<int>(rng.next_int(1, spec.ny));
      if (tx == sx && ty == sy) tx = (tx % spec.nx) + 1;
      const route::ModeMask mask =
          num_modes == 1
              ? 1u
              : static_cast<route::ModeMask>(
                    1u + rng.next_below((1u << num_modes) - 1));
      net.conns.push_back(route::RouteConn{rrg.clb_sink(tx, ty), mask});
    }
    problem.nets.push_back(std::move(net));
  }
  return problem;
}

std::vector<bench::QorEntry> route_qor(const arch::RoutingGraph& rrg,
                                       const route::RouteResult& result) {
  return {{"success", result.success ? 1.0 : 0.0},
          {"iterations", static_cast<double>(result.iterations)},
          {"conns", static_cast<double>(result.conns.size())},
          {"total_wirelength",
           static_cast<double>(result.total_wirelength(rrg))}};
}

}  // namespace

int main() {
  set_log_level(LogLevel::Silent);
  bench::PerfBench harness("bench_perf_route");

  harness.run_case("build_rrg/n=20/w=12", 5, [] {
    const arch::RoutingGraph rrg(spec_with(20, 12));
    return std::vector<bench::QorEntry>{
        {"nodes", static_cast<double>(rrg.num_nodes())},
        {"edges", static_cast<double>(rrg.num_edges())}};
  });

  {
    const arch::RoutingGraph rrg(spec_with(16, 10));
    const auto problem = random_problem(rrg, 150, 1, 3);
    harness.run_case("route_single_mode/n=16/w=10/nets=150", 3, [&] {
      const auto result = route::route(rrg, problem);
      return route_qor(rrg, result);
    });
  }

  {
    const arch::RoutingGraph rrg(spec_with(16, 10));
    const auto problem = random_problem(rrg, 150, 2, 5);
    harness.run_case("route_multi_mode/modes=2/nets=150", 3, [&] {
      const auto result = route::route(rrg, problem);
      return route_qor(rrg, result);
    });
  }

  // The paper's TRoute regime: many modes sharing one fabric at the
  // relaxed (routable) channel width the flow actually routes at. This is
  // where the per-relaxation mode scans of a naive state representation
  // dominate.
  {
    const arch::RoutingGraph rrg(spec_with(20, 12));
    const auto problem = random_problem(rrg, 300, 4, 7);
    harness.run_case("route_multi_mode/modes=4/n=20/nets=300", 3, [&] {
      const auto result = route::route(rrg, problem);
      return route_qor(rrg, result);
    });
  }
  {
    const arch::RoutingGraph rrg(spec_with(24, 16));
    const auto problem = random_problem(rrg, 300, 8, 11);
    harness.run_case("route_multi_mode/modes=8/n=24/nets=300", 2, [&] {
      const auto result = route::route(rrg, problem);
      return route_qor(rrg, result);
    });
  }

  {
    const arch::RoutingGraph rrg(spec_with(20, 16));
    const auto problem = random_problem(rrg, 200, 16, 13);
    harness.run_case("route_multi_mode/modes=16/n=20/nets=200", 3, [&] {
      const auto result = route::route(rrg, problem);
      return route_qor(rrg, result);
    });
  }

  // Two real width-search probes of the MCNC first pair (suite seed 1,
  // EdgeMatch, inner_num 1.5, flow seed 1: the edgematch_suites job of
  // dcsbench/, W_min 13), routed as the flow's width search routes them.
  // MDR mode 0 at W=4 is hopeless: it must give up at iteration 10. The DCS
  // route at W=12 is a near miss that fails only after all 40 iterations:
  // the give-up must not fire on it.
  {
    apps::SuiteOptions suite_options;
    suite_options.limit_pairs = 1;
    const auto pair = apps::mcnc_suite(suite_options).front();
    core::FlowOptions options;
    options.cost_engine = core::CombinedCost::EdgeMatch;
    options.anneal.inner_num = 1.5;
    const auto exp = core::run_experiment(pair.modes, options);
    const auto probe_case = [&](const std::string& name,
                                const core::SiteRouteSpec& route_spec,
                                int width) {
      arch::ArchSpec spec = exp.region;
      spec.channel_width = width;
      const arch::RoutingGraph rrg(spec);
      const auto problem = route_spec.instantiate(rrg);
      harness.run_case(name, 2, [&] {
        auto qor = route_qor(rrg, route::route(rrg, problem, options.router,
                                               route::RouteMode::Probe));
        qor.push_back({"min_width", static_cast<double>(exp.min_width)});
        return qor;
      });
    };
    probe_case("probe_hopeless/mcnc_pair=1/mdr_mode=0/w=4",
               exp.mdr.front().route_spec, 4);
    probe_case("probe_near_miss/mcnc_pair=1/dcs/w=12", exp.dcs_route_spec, 12);
  }

  return harness.finish();
}
