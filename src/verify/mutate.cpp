#include "verify/mutate.h"

#include <utility>

#include "verify/verify.h"

namespace mmflow::verify {

using techmap::LutCircuit;
using tunable::ModeSet;
using tunable::TunableCircuit;

/// Friend accessor into TunableCircuit's constructed state. Declared a friend
/// in tunable_circuit.h; only the mutation harness may use it.
struct TunableCircuitMutator {
  static std::vector<LutCircuit>& modes(TunableCircuit& tc) {
    return tc.modes_;
  }
  static std::vector<tunable::TConn>& conns(TunableCircuit& tc) {
    return tc.conns_;
  }
  static std::vector<std::vector<std::uint32_t>>& pi_to_tio(
      TunableCircuit& tc) {
    return tc.pi_to_tio_;
  }
};

const char* mutation_kind_name(MutationKind kind) {
  switch (kind) {
    case MutationKind::FlipTruthBit:
      return "flip-truth-bit";
    case MutationKind::SwapAssignment:
      return "swap-assignment";
    case MutationKind::DropActivation:
      return "drop-activation";
  }
  return "unknown";
}

std::string MutationPoint::describe() const {
  std::string s = std::string(mutation_kind_name(kind)) +
                  " mode=" + std::to_string(mode);
  switch (kind) {
    case MutationKind::FlipTruthBit:
      s += " lut=" + std::to_string(a) + " bit=" + std::to_string(b);
      break;
    case MutationKind::SwapAssignment:
      s += " pi=" + std::to_string(a) + "<->" + std::to_string(b);
      break;
    case MutationKind::DropActivation:
      s += " conn=" + std::to_string(a);
      break;
  }
  return s;
}

std::vector<MutationPoint> enumerate_mutation_points(
    const TunableCircuit& tunable) {
  std::vector<MutationPoint> points;
  const int num_modes = tunable.num_modes();

  for (int m = 0; m < num_modes; ++m) {
    const LutCircuit& mode = tunable.modes()[static_cast<std::size_t>(m)];
    for (std::uint32_t l = 0; l < mode.num_blocks(); ++l) {
      const auto n =
          static_cast<std::uint32_t>(mode.blocks()[l].inputs.size());
      for (std::uint32_t b = 0; b < (1u << n); ++b) {
        points.push_back(
            MutationPoint{MutationKind::FlipTruthBit, m, l, b});
      }
    }
  }
  for (int m = 0; m < num_modes; ++m) {
    const auto npis = static_cast<std::uint32_t>(
        tunable.modes()[static_cast<std::size_t>(m)].num_pis());
    for (std::uint32_t p1 = 0; p1 + 1 < npis; ++p1) {
      for (std::uint32_t p2 = p1 + 1; p2 < npis; ++p2) {
        points.push_back(
            MutationPoint{MutationKind::SwapAssignment, m, p1, p2});
      }
    }
  }
  for (std::uint32_t c = 0;
       c < static_cast<std::uint32_t>(tunable.conns().size()); ++c) {
    const ModeSet activation = tunable.conns()[c].activation;
    for (int m = 0; m < num_modes; ++m) {
      if ((activation >> m) & 1) {
        points.push_back(MutationPoint{MutationKind::DropActivation, m, c, 0});
      }
    }
  }
  return points;
}

void apply_mutation(TunableCircuit& tunable, const MutationPoint& point) {
  MMFLOW_REQUIRE(point.mode >= 0 && point.mode < tunable.num_modes());
  const auto mode = static_cast<std::size_t>(point.mode);
  switch (point.kind) {
    case MutationKind::FlipTruthBit: {
      auto& blocks = TunableCircuitMutator::modes(tunable)[mode].blocks();
      MMFLOW_REQUIRE(point.a < blocks.size());
      auto& block = blocks[point.a];
      MMFLOW_REQUIRE(point.b < (1u << block.inputs.size()));
      block.truth ^= std::uint64_t{1} << point.b;
      break;
    }
    case MutationKind::SwapAssignment: {
      auto& map = TunableCircuitMutator::pi_to_tio(tunable)[mode];
      MMFLOW_REQUIRE(point.a < map.size() && point.b < map.size() &&
                     point.a != point.b);
      std::swap(map[point.a], map[point.b]);
      break;
    }
    case MutationKind::DropActivation: {
      auto& conns = TunableCircuitMutator::conns(tunable);
      MMFLOW_REQUIRE(point.a < conns.size());
      conns[point.a].activation &= ~(ModeSet{1} << point.mode);
      break;
    }
  }
}

bool mutation_is_observable(const TunableCircuit& tunable,
                            const std::vector<LutCircuit>& pristine,
                            const MutationPoint& point,
                            std::uint64_t sim_seed) {
  TunableCircuit mutated = tunable;
  apply_mutation(mutated, point);
  return mode_differs_under_random_sim(mutated, pristine, point.mode,
                                       /*rounds=*/8, sim_seed);
}

MutationPoint inject_mutation(TunableCircuit& tunable,
                              const std::vector<LutCircuit>& pristine,
                              std::size_t start, std::uint64_t sim_seed) {
  const std::vector<MutationPoint> points = enumerate_mutation_points(tunable);
  MMFLOW_REQUIRE_MSG(start < points.size(),
                     "inject_mutation: start " << start << " out of range ("
                                               << points.size()
                                               << " mutation points)");
  for (std::size_t j = 0; j < points.size(); ++j) {
    const MutationPoint& point = points[(start + j) % points.size()];
    if (mutation_is_observable(tunable, pristine, point, sim_seed)) {
      apply_mutation(tunable, point);
      return point;
    }
  }
  MMFLOW_CHECK_MSG(false,
                   "inject_mutation: no observable mutation point exists — "
                   "every single-point corruption is behaviour-preserving");
  return points[start];
}

}  // namespace mmflow::verify
