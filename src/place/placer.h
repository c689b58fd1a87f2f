#pragma once
/// \file placer.h
/// Wire-length-driven simulated-annealing placement, a faithful
/// reimplementation of the VPR placer the paper builds on ("The combined
/// placement algorithm was implemented based on our Java version of the VPR
/// wire-length driven placer"). This conventional single-circuit placer is
/// used (a) per mode in the MDR baseline and (b) as TPlace for the merged
/// Tunable circuit.

#include <cstdint>
#include <vector>

#include "arch/arch.h"
#include "common/cancel.h"
#include "common/rng.h"
#include "place/annealer.h"
#include "place/placenet.h"

namespace mmflow::place {

/// A legal placement: every block on a site of its type, no overlap.
/// Owns a copy of its DeviceGrid (a thin wrapper around ArchSpec), so a
/// Placement stays fully self-contained — it can outlive the grid it was
/// built from and be cached/shared across threads (the flow cache in
/// src/core/flows.h stores Placements inside experiments).
class Placement {
 public:
  Placement(const arch::DeviceGrid& grid, std::size_t num_blocks);

  /// The device grid this placement was built against (the serialization
  /// layer in src/core/artifact_store.cpp persists its ArchSpec so a
  /// reloaded Placement is self-contained, like a freshly computed one).
  [[nodiscard]] const arch::DeviceGrid& grid() const { return grid_; }

  [[nodiscard]] const arch::Site& site_of(std::uint32_t block) const {
    return site_of_block_[block];
  }
  /// Block at a CLB site (-1 if empty).
  [[nodiscard]] std::int32_t clb_occupant(int clb_index) const {
    return clb_occupant_[static_cast<std::size_t>(clb_index)];
  }
  [[nodiscard]] std::int32_t pad_occupant(int pad_index) const {
    return pad_occupant_[static_cast<std::size_t>(pad_index)];
  }

  void assign(std::uint32_t block, const arch::Site& site);
  void unassign(std::uint32_t block);

  [[nodiscard]] std::size_t num_blocks() const { return site_of_block_.size(); }

  /// All blocks placed, each on a distinct site of the right type.
  void validate(const PlaceNetlist& netlist) const;

 private:
  arch::DeviceGrid grid_;
  std::vector<arch::Site> site_of_block_;
  std::vector<bool> placed_;
  std::vector<std::int32_t> clb_occupant_;
  std::vector<std::int32_t> pad_occupant_;
};

struct PlacerOptions {
  std::uint64_t seed = 1;
  AnnealOptions anneal;
  /// Optional cooperative cancellation, polled once per temperature epoch.
  /// Execution-only (like RouterOptions::jobs): a token never changes the
  /// placement a completed run produces, so it is excluded from
  /// core::hash_flow_options. Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

struct PlacerStats {
  double initial_cost = 0.0;
  double final_cost = 0.0;
  std::int64_t moves_attempted = 0;
  std::int64_t moves_accepted = 0;
};

/// Total bounding-box wire cost of a placement, recomputed from scratch:
/// the placer's objective, which the annealer maintains incrementally.
[[nodiscard]] double placement_cost(const PlaceNetlist& netlist,
                                    const Placement& placement);

/// Random legal starting placement.
[[nodiscard]] Placement random_placement(const PlaceNetlist& netlist,
                                         const arch::DeviceGrid& grid, Rng& rng);

/// Full simulated-annealing placement from a random legal start.
[[nodiscard]] Placement place(const PlaceNetlist& netlist,
                              const arch::DeviceGrid& grid,
                              const PlacerOptions& options = {},
                              PlacerStats* stats = nullptr);

}  // namespace mmflow::place
