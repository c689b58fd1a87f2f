#pragma once
/// \file mutate.h
/// Seeded mutation harness — the checker of the checker.
///
/// A verification gate is only trustworthy if it demonstrably catches real
/// bugs, so this module corrupts a constructed `TunableCircuit`'s *private*
/// state and the test suite asserts that `verify::check_modes` (run against a
/// pristine snapshot of the mode circuits) reports FAILED with a replayable
/// counterexample. Mutating the constructed state — rather than the merge
/// inputs — matters: rebuilding a TunableCircuit from, say, a permuted
/// `MergeAssignment` just produces a *different but still correct* merge that
/// rightly verifies PROVEN.
///
/// Three mutation classes model the paper flow's plausible silent failures:
///  * FlipTruthBit   — one logical truth-table bit of one mode's LUT content
///                     (a mis-resolved parameterized configuration bit);
///  * SwapAssignment — two entries of one mode's PI→TIO merge-assignment map
///                     (a desynchronized interface correspondence);
///  * DropActivation — one mode removed from one tunable connection's
///                     activation set (a routing bit lost for that mode).
///
/// The caller picks a start index into `enumerate_mutation_points`; from
/// there the harness advances to the first *observable* candidate — one whose corruption provably changes
/// the mode's behaviour under `verify::mode_differs_under_random_sim` — so an
/// applied mutation always yields a FAILED verdict, never a silent no-op
/// (e.g. flipping a truth bit whose input minterm is unreachable).

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "techmap/lutcircuit.h"
#include "tunable/tunable_circuit.h"

namespace mmflow::verify {

enum class MutationKind : std::uint8_t {
  FlipTruthBit,
  SwapAssignment,
  DropActivation,
};

[[nodiscard]] const char* mutation_kind_name(MutationKind kind);

/// One candidate corruption of a TunableCircuit.
struct MutationPoint {
  MutationKind kind = MutationKind::FlipTruthBit;
  int mode = 0;
  /// FlipTruthBit: LUT index in the mode's stored circuit;
  /// SwapAssignment: first PI index; DropActivation: connection index.
  std::uint32_t a = 0;
  /// FlipTruthBit: logical truth-table bit; SwapAssignment: second PI index.
  std::uint32_t b = 0;

  [[nodiscard]] std::string describe() const;
};

/// All candidate mutation points of a circuit in canonical order: kind-major
/// (FlipTruthBit, SwapAssignment, DropActivation), then mode, then resource
/// index. Deterministic for a given circuit.
[[nodiscard]] std::vector<MutationPoint> enumerate_mutation_points(
    const tunable::TunableCircuit& tunable);

/// Applies one mutation to the circuit's constructed private state (via the
/// TunableCircuitMutator friend accessor).
void apply_mutation(tunable::TunableCircuit& tunable,
                    const MutationPoint& point);

/// Applies the first observable mutation at or cyclically after index `start`
/// of `enumerate_mutation_points(tunable)` and returns it. Throws
/// PreconditionError if `start` is not a valid index. `pristine` must be a
/// snapshot of `tunable.modes()` taken before any
/// mutation; `sim_seed` drives the deterministic observability stimulus.
/// Throws InternalError if no candidate point is observable at all — that
/// would mean the circuit tolerates every single-point corruption, which for
/// real circuits indicates a harness bug.
MutationPoint inject_mutation(tunable::TunableCircuit& tunable,
                              const std::vector<techmap::LutCircuit>& pristine,
                              std::size_t start,
                              std::uint64_t sim_seed = 0x6d75746174ULL);

/// Whether applying `point` to (a copy of) `tunable` observably changes the
/// target mode's behaviour versus `pristine` (deterministic randomized sim).
[[nodiscard]] bool mutation_is_observable(
    const tunable::TunableCircuit& tunable,
    const std::vector<techmap::LutCircuit>& pristine,
    const MutationPoint& point, std::uint64_t sim_seed = 0x6d75746174ULL);

}  // namespace mmflow::verify
