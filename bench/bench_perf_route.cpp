/// \file bench_perf_route.cpp
/// Throughput benchmarks for the router hot paths: RRG construction,
/// single-mode PathFinder routing, the multi-mode connection router
/// (TRoute), and the minimum-channel-width search. Emits JSON with wall
/// times, QoR guard rails (success, iteration count, wirelength) and the
/// router's perf counters — see bench_json.h for the format.

#include <set>
#include <string>

#include "arch/rrg.h"
#include "bench_json.h"
#include "common/log.h"
#include "common/rng.h"
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

  harness.run_case("min_channel_width/n=8/nets=40", 2, [] {
    const int w = route::min_channel_width(
        spec_with(8, 1), [](const arch::RoutingGraph& rrg) {
          return random_problem(rrg, 40, 1, 7);
        });
    return std::vector<bench::QorEntry>{{"min_width", static_cast<double>(w)}};
  });

  // Multi-mode width search — the inner loop of the paper's region protocol
  // (flows.cpp sizes the shared region by probing widths for every mode and
  // the merged Tunable circuit).
  harness.run_case("min_channel_width/modes=6/n=8/nets=40", 2, [] {
    const int w = route::min_channel_width(
        spec_with(8, 1), [](const arch::RoutingGraph& rrg) {
          return random_problem(rrg, 40, 6, 17);
        });
    return std::vector<bench::QorEntry>{{"min_width", static_cast<double>(w)}};
  });

  return harness.finish();
}
