#pragma once
/// \file router.h
/// Negotiated-congestion routing on the routing resource graph.
///
/// This module implements both routers the paper uses:
///  * the conventional router (PathFinder / VPR style) for the MDR baseline
///    — a RouteProblem with one mode;
///  * TRoute, the connection router for Tunable circuits (Vansteenkiste et
///    al. [5]): every Tunable connection (source→sink with an activation
///    mode set) is routed exactly once; its switches carry the same value in
///    every mode where it is active, so a connection merged across modes
///    contributes *static* configuration bits — the mechanism behind the
///    paper's reconfiguration-time reduction.
///
/// Legality: a routing node may carry at most one (net, driver-edge) per
/// mode. Connections of different nets may share a node as long as no mode
/// has both active on it (modes are mutually exclusive in time); connections
/// of the same net sharing a node in a mode must enter it through the same
/// edge (one physical driver).
///
/// Ownership & thread-safety: the router never takes ownership of — or
/// mutates — the `RoutingGraph`; all search state lives in per-call locals.
/// `route()` and `search_min_width()` are therefore re-entrant, and one
/// immutable RRG may be shared by any number of concurrent `route()` calls
/// (the batch driver in src/core/batch.h relies on this: one graph per
/// (arch, width), many seeds routing on it at once). Results are a pure
/// function of (rrg, problem, options, mode) — bit-identical regardless of
/// sharing or concurrency.
///
/// Each `route()` call is single-threaded: one PathFinder loop re-routes
/// the conflicted connections in a fixed order. Parallelism lives one level
/// up, in core::BatchDriver, which runs whole flows (seeds, pairs, engines)
/// side by side.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "arch/rrg.h"
#include "bitstream/config_model.h"
#include "common/cancel.h"

namespace mmflow::route {

/// Modes a connection is active in (bit m = mode m). Up to 32 modes.
using ModeMask = std::uint32_t;

struct RouteConn {
  std::uint32_t sink_node = 0;  ///< RRG SINK
  ModeMask modes = 1;
};

struct RouteNet {
  std::string name;
  std::uint32_t source_node = 0;  ///< RRG SOURCE
  std::vector<RouteConn> conns;
};

struct RouteProblem {
  int num_modes = 1;
  std::vector<RouteNet> nets;
};

struct RouterOptions {
  int max_iterations = 40;
  /// After this many iterations, merged connections still in conflict are
  /// split into per-mode connections. Needed for feasibility with >= 3
  /// modes: a merged connection pins the same physical path (e.g. the same
  /// LUT input pin) in all its modes, and that joint pin-colouring can be
  /// unsatisfiable even though each mode routes fine on its own. A split
  /// connection loses its static bits but keeps correctness — exactly the
  /// trade-off the real TRoute makes.
  int split_conflicted_after = 15;
  double first_iter_pres_fac = 0.5;
  double pres_fac_mult = 1.6;
  double max_pres_fac = 1e6;
  double hist_fac = 0.4;
  /// Cost multiplier for re-using a node already owned by the same net with
  /// a compatible driver (fanout / cross-mode sharing incentive).
  double share_discount = 0.05;
  /// Cost multiplier for entering a node through the same edge that other
  /// modes already use: the mux select value then stays identical across
  /// modes and the configuration bits become *static* — TRoute's lever for
  /// shrinking the parameterized bit count beyond connection merging.
  double align_discount = 0.5;
  /// A* heuristic weight (1.0 = admissible; slightly above trades quality
  /// for speed).
  double astar_fac = 1.2;
  /// Must be 1; `route()` rejects any other value. Routing is sequential,
  /// and the field exists only so the frozen benchmark replica under
  /// dcsbench/ (which copies `FlowOptions::route_jobs` into it) compiles.
  /// Not part of `core::hash_flow_options`.
  int jobs = 1;
  /// Optional cooperative cancellation, polled once per PathFinder
  /// iteration. Execution-only (a completed route is unaffected by the
  /// token), so excluded from `core::hash_flow_options`.
  /// Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// One routed connection: the RRG nodes from source to sink, with the edges
/// used to enter each non-source node. A problem connection is normally
/// realised by one RoutedConn carrying its full activation mask; the router
/// may split it into several RoutedConns with disjoint sub-masks (see
/// RouterOptions::split_conflicted_after).
struct RoutedConn {
  std::uint32_t net = 0;
  std::uint32_t conn = 0;
  ModeMask modes = 1;                ///< modes this path realises
  std::vector<std::uint32_t> nodes;  ///< path, nodes[0] == source
  std::vector<std::uint32_t> edges;  ///< edges[i] enters nodes[i+1]
};

struct RouteResult {
  bool success = false;
  int iterations = 0;
  std::vector<RoutedConn> conns;

  /// Per-mode configuration of the routing fabric. Const and re-entrant on
  /// an immutable result; allocates only the returned states.
  [[nodiscard]] std::vector<bitstream::RoutingState> per_mode_states(
      const arch::RoutingGraph& rrg, const RouteProblem& problem) const;

  /// Wire segments (CHANX/CHANY nodes) used by connections active in `mode`.
  /// Const and re-entrant; safe to call concurrently on one result.
  [[nodiscard]] std::size_t wirelength_of_mode(const arch::RoutingGraph& rrg,
                                               const RouteProblem& problem,
                                               int mode) const;
  /// Total distinct wire segments used by any mode. Const and re-entrant.
  [[nodiscard]] std::size_t total_wirelength(const arch::RoutingGraph& rrg) const;
};

/// How long `route()` keeps negotiating.
enum class RouteMode {
  /// Until the routing is legal or `max_iterations` have run.
  Final,
  /// A width-search probe, which only needs to know whether the problem
  /// routes: it also gives up (`success = false`, counted as
  /// `route.probes_abandoned`) once the conflicted node count is above
  /// 33% of its iteration-1 value at iteration 10, or above 16% at
  /// iteration 20. A probe that does not give up returns exactly what a
  /// Final route returns. docs/ROUTING.md has the evidence.
  Probe,
};

/// Routes a problem; `result.success` is false if congestion could not be
/// resolved within `options.max_iterations` (or, in Probe mode, looks
/// hopeless at a checkpoint). Re-entrant: all mutable state is per-call
/// and `rrg` is only read, so concurrent `route()` calls never interact.
/// The result is a pure function of (rrg, problem, options, mode).
/// Throws if `options.jobs != 1`.
[[nodiscard]] RouteResult route(const arch::RoutingGraph& rrg,
                                const RouteProblem& problem,
                                const RouterOptions& options = {},
                                RouteMode mode = RouteMode::Final);

/// Minimum-width search driver of the flow's region sizing: memoizes
/// `routable_at` (so each width is probed at most once), scans upward
/// 4, 8, 16, ... by doubling, with the last step clamped to `max_width`,
/// then binary-searches the bracketed range. Returns the smallest width at
/// which `routable_at` holds, assuming it is monotone. Throws if nothing
/// <= `max_width` routes. Re-entrant; `routable_at` is invoked from the
/// calling thread only.
[[nodiscard]] int search_min_width(const std::function<bool(int)>& routable_at,
                                   int max_width);

}  // namespace mmflow::route
