#pragma once
/// \file combined_place.h
/// Combined placement — the paper's key algorithm (§III-A/B).
///
/// All mode circuits are placed *simultaneously* on the shared
/// reconfigurable region; a physical site may hold one block per mode. A
/// simulated-annealing move picks two sites and one mode and swaps only that
/// mode's occupants ("Only the LUTs placed on the chosen physical LUTs
/// belonging to the selected mode will be interchanged"). Co-located LUTs of
/// different modes will share a Tunable LUT, so the placement simultaneously
/// decides the Tunable circuit's topology *and* its physical positions.
///
/// Two cost engines (§III-B):
///  * WireLength (the paper's novel approach): the bounding-box wire
///    estimate of the *merged* Tunable circuit — tunable nets are the
///    per-source-site unions of the mode nets, costed with the same
///    q(fanout)·HPWL estimator TPlace uses afterwards;
///  * EdgeMatch (prior art, Rullmann & Merker): maximize the number of
///    connections sharing source and sink sites across modes
///    (equivalently: minimize the number of Tunable connections);
///    placement geometry is ignored.
///
/// Re-entrancy: `combined_place` and `extract_merge` keep all annealing and
/// extraction state in per-call locals and never mutate their inputs, so
/// concurrent batch jobs (src/core/batch.h) may run them in parallel —
/// results are a pure function of (modes, grid, options), which is also what
/// lets the flow cache (src/core/flows.h) memoize whole experiments.

#include <cstdint>
#include <vector>

#include "arch/arch.h"
#include "place/placer.h"
#include "place/timing_model.h"
#include "tunable/tunable_circuit.h"

namespace mmflow::core {

enum class CombinedCost : std::uint8_t { WireLength, EdgeMatch };

struct CombinedPlaceOptions {
  CombinedCost cost = CombinedCost::WireLength;
  std::uint64_t seed = 1;
  place::AnnealOptions anneal;
  /// Timing-driven weight λ in [0, 1] for the WireLength engine: 0 keeps
  /// the pure merged-wirelength objective (bit-identical per seed to the
  /// λ-less annealer), larger values blend in a per-mode
  /// criticality-weighted timing term estimated pre-route by the shared
  /// delay model (place/timing_model.h). Ignored by EdgeMatch, whose
  /// objective is placement-geometry-free; out-of-range values (and NaN)
  /// throw PreconditionError for both engines.
  double timing_tradeoff = 0.0;
  /// Delay model for the pre-route estimator (read when timing_tradeoff >
  /// 0); the same model the post-route report uses.
  place::TimingModel timing;
  /// Optional cooperative cancellation, polled once per temperature epoch.
  /// Execution-only — never changes the result of a completed run, so it is
  /// excluded from core::hash_flow_options. Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

struct CombinedPlaceStats {
  double initial_cost = 0.0;
  double final_cost = 0.0;
  std::int64_t moves_attempted = 0;
  std::int64_t moves_accepted = 0;
};

/// The simultaneous placement of all modes on one device.
struct CombinedPlacement {
  /// Per mode: the lowering of that mode's LutCircuit and its placement.
  std::vector<place::PlaceNetlist> netlists;
  std::vector<place::LutPlaceMapping> mappings;
  std::vector<place::Placement> placements;
};

/// Runs the combined placement.
[[nodiscard]] CombinedPlacement combined_place(
    const std::vector<techmap::LutCircuit>& modes,
    const arch::DeviceGrid& grid, const CombinedPlaceOptions& options = {},
    CombinedPlaceStats* stats = nullptr);

/// Derives the merge from co-location: LUTs on the same site share a TLUT,
/// IOs on the same pad share a TIO. Also reports where each TLUT/TIO sits.
struct ExtractedMerge {
  tunable::MergeAssignment assignment;
  std::vector<arch::Site> tlut_site;
  std::vector<arch::Site> tio_site;
};
[[nodiscard]] ExtractedMerge extract_merge(const CombinedPlacement& placement,
                                           const arch::DeviceGrid& grid);

/// The WireLength engine's objective, recomputed from scratch (tests and
/// reporting; the annealer maintains it incrementally).
[[nodiscard]] double merged_wirelength_cost(const CombinedPlacement& placement,
                                            const arch::DeviceGrid& grid);

/// The EdgeMatch engine's match count, recomputed from scratch: connections
/// whose (source site, sink site) pair also occurs in another mode, counted
/// as group_size - 1 per group (= connections saved by merging).
[[nodiscard]] std::size_t matched_connections(const CombinedPlacement& placement,
                                              const arch::DeviceGrid& grid);

}  // namespace mmflow::core
