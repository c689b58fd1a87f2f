#pragma once
/// \file annealer.h
/// The VPR adaptive simulated-annealing schedule (Betz & Rose), shared by
/// the conventional placer (src/place/placer.cpp) and the paper's combined
/// multi-mode placement (src/core/combined_place.cpp): the paper states the
/// combined placement "extended the conventional placement tool", so both
/// use identical annealing machinery. The bounding-box estimator below is
/// likewise shared: the conventional placer and the combined annealer's
/// merged-net engine both cost nets with the same q(fanout)·HPWL formula.
/// Each temperature step is one *epoch*: the combined annealer's timing
/// layer refreshes its per-epoch state (criticalities, normalizations) when
/// the schedule steps, never mid-temperature.

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace mmflow::place {

/// VPR wiring-crossing correction factor q(#terminals) for bounding-box net
/// cost (Cheng's RISA coefficients as tabulated in VPR).
[[nodiscard]] inline double crossing_factor(std::size_t num_terminals) {
  static constexpr double kTable[50] = {
      1.0,    1.0,    1.0,    1.0828, 1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
      1.4493, 1.4974, 1.5455, 1.5937, 1.6418, 1.6899, 1.7304, 1.7709, 1.8114,
      1.8519, 1.8924, 1.9288, 1.9652, 2.0015, 2.0379, 2.0743, 2.1061, 2.1379,
      2.1698, 2.2016, 2.2334, 2.2646, 2.2958, 2.3271, 2.3583, 2.3895, 2.4187,
      2.4479, 2.4772, 2.5064, 2.5356, 2.5610, 2.5864, 2.6117, 2.6371, 2.6625,
      2.6887, 2.7148, 2.7410, 2.7671, 2.7933};
  if (num_terminals == 0) return 0.0;
  if (num_terminals <= 50) return kTable[num_terminals - 1];
  return 2.7933 + 0.02616 * static_cast<double>(num_terminals - 50);
}

/// Half-perimeter bounding-box cost of a net given its terminal bounding
/// box, weighted by the crossing factor.
[[nodiscard]] inline double hpwl_cost(int xmin, int xmax, int ymin, int ymax,
                                      std::size_t num_terminals) {
  return crossing_factor(num_terminals) *
         static_cast<double>((xmax - xmin + 1) + (ymax - ymin + 1));
}

struct AnnealOptions {
  double inner_num = 10.0;       ///< moves per temperature = inner_num*N^(4/3)
  double init_t_factor = 20.0;   ///< T0 = factor * stddev(initial deltas)
  double exit_t_fraction = 0.005;  ///< stop when T < fraction * cost/num_nets
};

/// Adaptive annealing state: temperature and range-limit updates per VPR.
class AnnealSchedule {
 public:
  AnnealSchedule(const AnnealOptions& options, std::size_t num_blocks,
                 int max_range)
      : options_(options),
        moves_per_temp_(checked_moves(options.inner_num, num_blocks)),
        range_limit_(std::max(1, max_range)),
        max_range_(std::max(1, max_range)) {}

  void set_initial_temperature(double t) { temperature_ = std::max(t, 1e-9); }

  [[nodiscard]] double temperature() const { return temperature_; }
  [[nodiscard]] int range_limit() const {
    return std::max(1, static_cast<int>(range_limit_));
  }
  [[nodiscard]] std::int64_t moves_per_temperature() const {
    return moves_per_temp_;
  }

  /// Ends a temperature step with acceptance rate `r`; updates T and the
  /// range limit (VPR's schedule keeps the acceptance rate near 0.44).
  void step(double r) {
    double alpha;
    if (r > 0.96) {
      alpha = 0.5;
    } else if (r > 0.8) {
      alpha = 0.9;
    } else if (r > 0.15) {
      alpha = 0.95;
    } else {
      alpha = 0.8;
    }
    temperature_ *= alpha;
    range_limit_ *= 1.0 - 0.44 + r;
    range_limit_ = std::clamp(range_limit_, 1.0, static_cast<double>(max_range_));
  }

  [[nodiscard]] bool should_stop(double current_cost,
                                 std::size_t num_nets) const {
    if (num_nets == 0) return true;
    return temperature_ <
           options_.exit_t_fraction * current_cost / static_cast<double>(num_nets);
  }

 private:
  /// inner_num * N^(4/3) as a move count. A product past the int64 range
  /// (or NaN) has no defined conversion — on x86 it becomes INT64_MIN and
  /// would clamp to one move per temperature — so it is rejected.
  static std::int64_t checked_moves(double inner_num, std::size_t num_blocks) {
    const double moves =
        inner_num * std::pow(static_cast<double>(num_blocks), 4.0 / 3.0);
    MMFLOW_REQUIRE_MSG(std::fabs(moves) < 0x1p63,
                       "annealing effort inner_num " << inner_num << " over "
                           << num_blocks
                           << " blocks overflows the moves per temperature");
    return std::max<std::int64_t>(1, static_cast<std::int64_t>(moves));
  }

  AnnealOptions options_;
  double temperature_ = 0.0;
  std::int64_t moves_per_temp_;
  double range_limit_;
  int max_range_;
};

}  // namespace mmflow::place
