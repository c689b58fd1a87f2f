#pragma once
/// \file knobs.h
/// The autotuner's knob space: which flow options are searchable, over what
/// ranges, and how a point of the unit hypercube becomes a concrete
/// `core::FlowOptions`.
///
/// A *knob* is a named double-valued flow option with a default search range
/// (e.g. `inner_num`, `timing_tradeoff`, `astar_fac`). The registry below
/// maps each name onto its FlowOptions field; a `KnobSpace` is an ordered
/// subset of the registry with (possibly overridden) ranges, built either
/// from the curated default space or from a `name=lo:hi[:log]` spec string
/// (grammar: `common/strings.h parse_knob_ranges` — like the PR 5 parsers,
/// every malformed term is rejected with an error naming the knob).
///
/// Every knob the registry exposes participates in
/// `core::hash_flow_options` (or rides in `FlowKey::variant`, for
/// `timing_tradeoff`), so two trials with different knob values can never
/// collide on a flow-cache or artifact-store entry — a hard requirement for
/// the tuner's warm-rerun determinism contract (docs/TUNING.md).

#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "core/flows.h"

namespace mmflow::tune {

/// One searchable flow option: registry identity plus the active range.
struct Knob {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
  /// Samples are spaced uniformly in log(value) (ranges spanning a decade or
  /// more, e.g. `exit_t_fraction`); requires lo > 0.
  bool log_scale = false;
  /// Writes `value` into its FlowOptions field.
  void (*apply)(core::FlowOptions&, double) = nullptr;
  /// Reads the field back (the default-knob baseline's coordinates).
  double (*get)(const core::FlowOptions&) = nullptr;
};

/// The ordered searchable subset of the flow options.
class KnobSpace {
 public:
  /// The curated default space (annealing schedule, timing tradeoff,
  /// area/width slack, routing parameters — see knobs.cpp for the ranges).
  [[nodiscard]] static KnobSpace defaults();

  /// Builds a space from a `name=lo:hi[:log],...` spec. Unknown knob names,
  /// duplicates, NaN/inf/reversed/empty bounds are all rejected with errors
  /// naming the knob and `what` (e.g. "--tune-knobs").
  [[nodiscard]] static KnobSpace from_spec(std::string_view spec,
                                           std::string_view what);

  /// All registered knob names, for error messages and docs.
  [[nodiscard]] static std::vector<std::string> registry_names();

  [[nodiscard]] std::size_t size() const { return knobs_.size(); }
  [[nodiscard]] const std::vector<Knob>& knobs() const { return knobs_; }

  /// Maps a unit-cube point (one coordinate per knob, each in [0, 1]) to
  /// concrete knob values: linear or log interpolation of the range.
  [[nodiscard]] std::vector<double> values(
      const std::vector<double>& unit) const;

  /// `base` with the knob values of `unit` applied.
  [[nodiscard]] core::FlowOptions apply(const core::FlowOptions& base,
                                        const std::vector<double>& unit) const;

  /// The baseline's coordinates: each knob's current value in `base`.
  [[nodiscard]] std::vector<double> baseline_values(
      const core::FlowOptions& base) const;

 private:
  std::vector<Knob> knobs_;
};

}  // namespace mmflow::tune
