#pragma once
/// \file tuner.h
/// Self-tuning flow search: deterministic successive halving over the knob
/// space, producing an exact Pareto front of flow configurations.
///
/// ## Algorithm
///
/// `budget` knob configurations are drawn from the seeded low-discrepancy
/// sampler (sampler.h) — trial t is unit point t, mapped through the
/// `KnobSpace` (knobs.h). They are evaluated in rungs of rising fidelity:
/// with R rungs, rung r runs its cohort with `anneal.inner_num` scaled by
/// 1/2^(R-1-r) (the final rung is full fidelity), every cohort is one
/// `core::config_sweep` batch through a `core::BatchDriver`, and after each
/// rung the survivors are ranked by non-dominated sorting on the objective
/// vectors — ties broken by canonical trial index — and the best
/// ceil(n/2) promote. The front is computed over the full-fidelity final
/// rung plus the default-knob baseline (always evaluated at full fidelity,
/// trial tag = `budget`), so every non-baseline front point is strictly
/// better than the baseline on at least one objective *by construction*.
///
/// ## Objectives
///
/// All minimized, all deterministic: `wirelength` (mean DCS/MDR wire-length
/// ratio), `critical_path` (mean DCS critical path, model delay units),
/// `frames` (DCS config bits rewritten on a mode switch). Multi-benchmark
/// tunes aggregate by arithmetic mean over the benchmarks. Wall time is
/// recorded for every trial and reported alongside the front, but is never
/// a dominance dimension — it is the one non-deterministic measurement, and
/// admitting it would void the bit-identity contract below.
///
/// ## Determinism contract (tested by tests/test_tune.cpp)
///
/// Identical `TuneOptions` (same seed, budget, objectives, knob space,
/// benchmarks) produce a bit-identical trial schedule, bit-identical
/// per-trial QoR and a bit-identical final front — for every `jobs` value,
/// across cold/warm artifact-store reruns, and across a kill mid-run and a
/// rerun on the same cache dir (finished trials are whole-experiment store
/// hits, and their objectives are recomputed from the loaded experiment).
/// Wall times are the only field that varies.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.h"
#include "tune/knobs.h"
#include "tune/pareto.h"

namespace mmflow::tune {

/// Objective-set selection, parsed from e.g. `--tune-objectives`.
/// Indices into a trial's objective vector; order follows the spec string.
struct ObjectiveSet {
  std::vector<std::string> names;  ///< subset of {wirelength, critical_path, frames}

  /// The default set: all three deterministic objectives.
  [[nodiscard]] static ObjectiveSet defaults();

  /// Parses a comma-separated list. Rejects unknown names, duplicates and
  /// the empty list; rejects "walltime" with an error explaining it is
  /// reported but can never be a dominance objective. `what` names the
  /// surface, e.g. "--tune-objectives".
  [[nodiscard]] static ObjectiveSet parse(std::string_view spec,
                                          std::string_view what);

  [[nodiscard]] std::size_t size() const { return names.size(); }
};

/// One multi-mode circuit the tuner optimizes over (the CLI converts
/// `apps::MultiModeBenchmark`; tests build these directly — tune/ depends
/// only on core/, not on apps/).
struct TuneBenchmark {
  std::string name;
  std::shared_ptr<const std::vector<techmap::LutCircuit>> modes;
};

struct TuneOptions {
  std::uint64_t seed = 1;  ///< tune seed: sampler rotation (not the flow seed)
  /// Rung-0 cohort size — the number of distinct knob configurations
  /// sampled. Total flow evaluations ≈ 2 * budget * benchmarks (geometric
  /// cohort series), most at reduced fidelity.
  int budget = 16;
  ObjectiveSet objectives;  ///< empty names = defaults()
  KnobSpace space;          ///< empty = KnobSpace::defaults()
  core::FlowOptions base;   ///< baseline flow options (also the flow seed)
  /// How every trial batch runs; passed straight to the core::BatchDriver.
  /// With a non-empty `batch.cache_dir`, every trial whose experiment is
  /// already in the artifact store loads instead of rerunning. None of
  /// these fields shapes the schedule.
  core::BatchOptions batch;
};

/// One evaluation of one knob configuration at one rung.
struct TuneTrial {
  std::uint64_t index = 0;  ///< canonical trial index; `budget` = baseline
  int rung = 0;
  bool ok = false;
  std::vector<double> knob_values;   ///< concrete, one per knob
  std::vector<double> objectives;    ///< selected objectives; empty if !ok
  double wall_ms = 0.0;              ///< informational only
};

struct TuneResult {
  /// Every evaluation, ordered by (rung, trial index) — the canonical
  /// schedule order, identical for every jobs value.
  std::vector<TuneTrial> trials;
  /// The final front in canonical (tag) order; tags are trial indices,
  /// `budget` = the baseline.
  std::vector<TuneTrial> front;
  TuneTrial baseline;                       ///< full-fidelity default knobs
  std::vector<std::string> objective_names; ///< columns of `objectives`
  std::vector<std::string> knob_names;      ///< columns of `knob_values`
  int rungs = 0;                            ///< rungs run (R)
};

/// Runs the search. Throws PreconditionError on an unusable configuration
/// (no benchmarks, budget < 1); flow failures
/// inside trials are captured per-trial, never propagated.
[[nodiscard]] TuneResult tune(const std::vector<TuneBenchmark>& benchmarks,
                              const TuneOptions& options);

/// Renders the front (plus the baseline row) as an aligned text table:
/// trial, per-knob values, per-objective values, wall time.
[[nodiscard]] std::string format_front_table(const TuneResult& result);

}  // namespace mmflow::tune
