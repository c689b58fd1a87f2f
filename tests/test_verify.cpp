/// \file test_verify.cpp
/// The mode-equivalence gate, tested at every layer: the CDCL solver on
/// hand-built CNFs, the Tseitin encoder against enumerated truth tables, the
/// miter on identical and on deliberately corrupted circuits, and the
/// checker-of-the-checker mutation suite (every mutation class must yield
/// FAILED plus a counterexample that replays under netlist::Simulator).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "aig/bridge.h"
#include "common/check.h"
#include "common/perf.h"
#include "helpers.h"
#include "netlist/sim.h"
#include "techmap/mapper.h"
#include "tunable/tunable_circuit.h"
#include "verify/cnf.h"
#include "verify/mutate.h"
#include "verify/sat.h"
#include "verify/verify.h"

namespace mmflow::verify {
namespace {

using techmap::LutCircuit;
using techmap::Ref;
using tunable::MergeAssignment;
using tunable::TunableCircuit;

// ------------------------------------------------------------------ SatSolver

TEST(SatSolver, SatisfiableWithModelCheck) {
  // (a ∨ b) ∧ (¬a ∨ c) ∧ (¬b ∨ ¬c) — satisfiable.
  SatSolver solver;
  const auto a = solver.new_var();
  const auto b = solver.new_var();
  const auto c = solver.new_var();
  solver.add_clause({make_lit(a), make_lit(b)});
  solver.add_clause({make_lit(a, true), make_lit(c)});
  solver.add_clause({make_lit(b, true), make_lit(c, true)});
  ASSERT_EQ(solver.solve(), SatResult::Sat);
  const bool va = solver.model_value(a);
  const bool vb = solver.model_value(b);
  const bool vc = solver.model_value(c);
  EXPECT_TRUE(va || vb);
  EXPECT_TRUE(!va || vc);
  EXPECT_TRUE(!vb || !vc);
}

TEST(SatSolver, UnsatPigeonhole) {
  // PHP(4,3): 4 pigeons, 3 holes — classically UNSAT and requires real
  // conflict analysis (not just unit propagation).
  SatSolver solver;
  std::uint32_t x[4][3];
  for (auto& row : x) {
    for (auto& v : row) v = solver.new_var();
  }
  for (int p = 0; p < 4; ++p) {
    solver.add_clause({make_lit(x[p][0]), make_lit(x[p][1]), make_lit(x[p][2])});
  }
  for (int h = 0; h < 3; ++h) {
    for (int p1 = 0; p1 < 4; ++p1) {
      for (int p2 = p1 + 1; p2 < 4; ++p2) {
        solver.add_clause({make_lit(x[p1][h], true), make_lit(x[p2][h], true)});
      }
    }
  }
  EXPECT_EQ(solver.solve(), SatResult::Unsat);
  EXPECT_GT(solver.stats().conflicts, 0u);
  EXPECT_GT(solver.stats().learned_clauses, 0u);
}

TEST(SatSolver, EmptyClauseIsUnsat) {
  SatSolver solver;
  solver.new_var();
  solver.add_clause({});
  EXPECT_EQ(solver.solve(), SatResult::Unsat);
}

TEST(SatSolver, RootUnitConflictIsUnsat) {
  SatSolver solver;
  const auto a = solver.new_var();
  solver.add_clause({make_lit(a)});
  solver.add_clause({make_lit(a, true)});
  EXPECT_EQ(solver.solve(), SatResult::Unsat);
}

TEST(SatSolver, TautologyAndDuplicatesDropped) {
  SatSolver solver;
  const auto a = solver.new_var();
  const auto b = solver.new_var();
  solver.add_clause({make_lit(a), make_lit(a, true)});          // tautology
  solver.add_clause({make_lit(b), make_lit(b), make_lit(b)});   // dup -> unit b
  ASSERT_EQ(solver.solve(), SatResult::Sat);
  EXPECT_TRUE(solver.model_value(b));
}

TEST(SatSolver, ImplicationChainPropagatesWithoutDecisions) {
  // a ∧ (a→b) ∧ (b→c) ∧ (c→d): everything follows by unit propagation.
  SatSolver solver;
  std::uint32_t v[4];
  for (auto& var : v) var = solver.new_var();
  solver.add_clause({make_lit(v[0])});
  for (int i = 0; i < 3; ++i) {
    solver.add_clause({make_lit(v[i], true), make_lit(v[i + 1])});
  }
  ASSERT_EQ(solver.solve(), SatResult::Sat);
  for (const auto var : v) EXPECT_TRUE(solver.model_value(var));
  EXPECT_EQ(solver.stats().conflicts, 0u);
}

TEST(SatSolver, DeterministicSearchAndStats) {
  // The same random 3-SAT instance solved twice must produce bit-identical
  // models and identical search statistics (the determinism contract).
  const auto build_and_solve = [](std::vector<bool>* model, SatStats* stats) {
    Rng rng(4242);
    SatSolver solver;
    for (int i = 0; i < 30; ++i) solver.new_var();
    for (int c = 0; c < 110; ++c) {
      std::vector<Lit> clause;
      for (int l = 0; l < 3; ++l) {
        clause.push_back(make_lit(static_cast<std::uint32_t>(rng.next_below(30)),
                                  (rng() & 1) != 0));
      }
      solver.add_clause(std::move(clause));
    }
    const SatResult result = solver.solve();
    if (result == SatResult::Sat) {
      for (std::uint32_t v = 0; v < solver.num_vars(); ++v) {
        model->push_back(solver.model_value(v));
      }
    }
    *stats = solver.stats();
    return result;
  };
  std::vector<bool> model1, model2;
  SatStats stats1, stats2;
  const SatResult r1 = build_and_solve(&model1, &stats1);
  const SatResult r2 = build_and_solve(&model2, &stats2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(model1, model2);
  EXPECT_EQ(stats1.decisions, stats2.decisions);
  EXPECT_EQ(stats1.propagations, stats2.propagations);
  EXPECT_EQ(stats1.conflicts, stats2.conflicts);
  EXPECT_EQ(stats1.learned_literals, stats2.learned_literals);
}

// -------------------------------------------------------------- LutConeEncoder

/// Evaluates an encoded cone under one full input assignment by adding unit
/// clauses and solving; returns the modelled output value.
bool eval_encoded(const LutCircuit& circuit, Ref out,
                  const std::vector<bool>& inputs) {
  SatSolver solver;
  std::vector<Lit> pi_lits;
  for (std::size_t i = 0; i < circuit.num_pis(); ++i) {
    pi_lits.push_back(make_lit(solver.new_var()));
  }
  LutConeEncoder encoder(circuit, solver, pi_lits);
  const Lit y = encoder.encode(out);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    solver.add_clause({inputs[i] ? pi_lits[i] : lit_not(pi_lits[i])});
  }
  EXPECT_EQ(solver.solve(), SatResult::Sat);
  return solver.model_value(lit_var(y)) != lit_negated(y);
}

TEST(LutConeEncoder, TwoLevelConeMatchesTruthTables) {
  // o = (a XOR b) AND (b OR c): exhaustive agreement over all 8 inputs.
  LutCircuit c(4, "cone");
  c.add_pi("a");
  c.add_pi("b");
  c.add_pi("c");
  c.add_block({"x", {Ref::pi(0), Ref::pi(1)}, 0b0110, false, false});
  c.add_block({"o", {Ref::pi(1), Ref::pi(2)}, 0b1110, false, false});
  c.add_block({"top", {Ref::block(0), Ref::block(1)}, 0b1000, false, false});
  for (int m = 0; m < 8; ++m) {
    const bool a = m & 1, b = (m >> 1) & 1, cc = (m >> 2) & 1;
    const bool expect = (a != b) && (b || cc);
    EXPECT_EQ(eval_encoded(c, Ref::block(2), {a, b, cc}), expect) << m;
  }
}

TEST(LutConeEncoder, DuplicateFaninsEncodeCorrectly) {
  // Block reading the same PI twice with AND truth: output == that PI. The
  // unreachable minterms (01 / 10) become tautological clauses.
  LutCircuit c(4, "dup");
  c.add_pi("a");
  c.add_block({"d", {Ref::pi(0), Ref::pi(0)}, 0b1000, false, false});
  EXPECT_FALSE(eval_encoded(c, Ref::block(0), {false}));
  EXPECT_TRUE(eval_encoded(c, Ref::block(0), {true}));
}

TEST(LutConeEncoder, ConstantLuts) {
  // 0-input blocks encode as unit clauses.
  LutCircuit c(4, "const");
  c.add_pi("a");
  c.add_block({"one", {}, 1, false, false});
  c.add_block({"zero", {}, 0, false, false});
  EXPECT_TRUE(eval_encoded(c, Ref::block(0), {false}));
  EXPECT_FALSE(eval_encoded(c, Ref::block(1), {false}));
}

TEST(LutConeEncoder, SupportIsConeRestricted) {
  LutCircuit c(4, "supp");
  for (int i = 0; i < 4; ++i) c.add_pi("p" + std::to_string(i));
  c.add_block({"x", {Ref::pi(1), Ref::pi(3)}, 0b0110, false, false});
  c.add_block({"y", {Ref::block(0), Ref::pi(3)}, 0b1000, false, false});
  SatSolver solver;
  std::vector<Lit> pi_lits;
  for (int i = 0; i < 4; ++i) pi_lits.push_back(make_lit(solver.new_var()));
  LutConeEncoder encoder(c, solver, pi_lits);
  EXPECT_EQ(encoder.support(Ref::block(1)), (std::vector<std::uint32_t>{1, 3}));
  EXPECT_EQ(encoder.support(Ref::pi(2)), (std::vector<std::uint32_t>{2}));
}

TEST(LutConeEncoder, MiterOnIdenticalConesIsUnsat) {
  // Two structurally different implementations of XOR, mitered: UNSAT.
  LutCircuit c(4, "miter");
  c.add_pi("a");
  c.add_pi("b");
  c.add_block({"xor", {Ref::pi(0), Ref::pi(1)}, 0b0110, false, false});
  // (a OR b) AND NOT(a AND b) via one 2-LUT pair.
  c.add_block({"or", {Ref::pi(0), Ref::pi(1)}, 0b1110, false, false});
  c.add_block({"nand", {Ref::pi(0), Ref::pi(1)}, 0b0111, false, false});
  c.add_block({"xor2", {Ref::block(1), Ref::block(2)}, 0b1000, false, false});
  SatSolver solver;
  std::vector<Lit> pi_lits{make_lit(solver.new_var()),
                           make_lit(solver.new_var())};
  LutConeEncoder encoder(c, solver, pi_lits);
  const Lit y1 = encoder.encode(Ref::block(0));
  const Lit y2 = encoder.encode(Ref::block(3));
  solver.add_clause({y1, y2});
  solver.add_clause({lit_not(y1), lit_not(y2)});
  EXPECT_EQ(solver.solve(), SatResult::Unsat);
}

// ----------------------------------------------------- circuits used below

/// Two small sequential modes (XOR/AND vs OR/XOR with one FF each), mapped
/// through the real front end so the merge sees production-shaped input.
std::vector<LutCircuit> two_small_modes() {
  netlist::Netlist a("modeA");
  {
    const auto x = a.add_input("x");
    const auto y = a.add_input("y");
    const auto q = a.add_latch(netlist::kNoSignal, false, "q");
    a.set_latch_input(q, a.add_xor(x, q));
    a.add_output("o", a.add_and(q, y));
  }
  netlist::Netlist b("modeB");
  {
    const auto x = b.add_input("x");
    const auto y = b.add_input("y");
    const auto q = b.add_latch(netlist::kNoSignal, true, "q");
    b.set_latch_input(q, b.add_or(x, q));
    b.add_output("o", b.add_xor(q, y));
  }
  std::vector<LutCircuit> modes;
  modes.push_back(techmap::map_to_luts(aig::aig_from_netlist(a)));
  modes.back().set_name("modeA");
  modes.push_back(techmap::map_to_luts(aig::aig_from_netlist(b)));
  modes.back().set_name("modeB");
  return modes;
}

TunableCircuit merged(const std::vector<LutCircuit>& modes) {
  return TunableCircuit(modes, MergeAssignment::by_index(modes));
}

// ------------------------------------------------------------ configured_mode

TEST(ConfiguredMode, MatchesModeCircuitCycleByCycle) {
  const auto modes = two_small_modes();
  const TunableCircuit tc = merged(modes);
  for (int m = 0; m < 2; ++m) {
    const LutCircuit configured = configured_mode(tc, m);
    ASSERT_EQ(configured.num_pis(), modes[m].num_pis());
    ASSERT_EQ(configured.num_pos(), modes[m].num_pos());
    techmap::LutSimulator sim_mode(modes[m]);
    techmap::LutSimulator sim_conf(configured);
    Rng rng(99 + m);
    for (int cycle = 0; cycle < 32; ++cycle) {
      const auto words = testing::random_words(modes[m].num_pis(), rng);
      EXPECT_EQ(sim_mode.step(words), sim_conf.step(words)) << "cycle " << cycle;
    }
  }
}

TEST(ToNetlist, AgreesWithLutSimulatorOnEdgeCaseBlocks) {
  // Combinational circuit exercising the fallback path's corner cases:
  // 0-input constants, a K-saturated block, and duplicate fanins.
  LutCircuit c(4, "edges");
  for (int i = 0; i < 4; ++i) c.add_pi("p" + std::to_string(i));
  c.add_block({"one", {}, 1, false, false});
  c.add_block({"zero", {}, 0, false, false});
  c.add_block({"sat4",
               {Ref::pi(0), Ref::pi(1), Ref::pi(2), Ref::pi(3)},
               0x9669ULL,
               false,
               false});
  c.add_block({"dup", {Ref::pi(2), Ref::pi(2)}, 0b0110, false, false});
  c.add_block(
      {"mix", {Ref::block(0), Ref::block(2)}, 0b1000, false, false});
  c.add_po("o_one", Ref::block(0));
  c.add_po("o_zero", Ref::block(1));
  c.add_po("o_sat", Ref::block(2));
  c.add_po("o_dup", Ref::block(3));
  c.add_po("o_mix", Ref::block(4));
  c.add_po("o_pi", Ref::pi(1));

  const netlist::Netlist nl = to_netlist(c);
  netlist::Simulator nsim(nl);
  techmap::LutSimulator lsim(c);
  Rng rng(7);
  for (int round = 0; round < 16; ++round) {
    const auto words = testing::random_words(c.num_pis(), rng);
    EXPECT_EQ(nsim.eval_outputs(words), lsim.step(words));
  }
}

// ---------------------------------------------------------------- check_modes

TEST(CheckModes, ProvesCleanMergeViaSat) {
  const auto modes = two_small_modes();
  const TunableCircuit tc = merged(modes);
  perf::reset();
  VerifyOptions options;
  options.sim_cutoff = 0;  // force the SAT path everywhere
  const VerifyReport report = check_modes(tc, modes, options);
  EXPECT_TRUE(report.all_proven());
  for (const auto& mode : report.modes) {
    EXPECT_TRUE(mode.proven);
    EXPECT_FALSE(mode.cex.has_value());
  }
  EXPECT_GT(perf::counter_value("verify.sat_calls"), 0u);
  EXPECT_EQ(perf::counter_value("verify.sim_fallbacks"), 0u);
  EXPECT_EQ(perf::counter_value("verify.cex_found"), 0u);
}

TEST(CheckModes, SweepingCollapsesCleanMergeMitersConflictFree) {
  // On a healthy merge the internal equivalence sweep seeds every impl block
  // with its spec literal, so output miters are decided by propagation alone.
  const auto modes = two_small_modes();
  const TunableCircuit tc = merged(modes);
  perf::reset();
  VerifyOptions options;
  options.sim_cutoff = 0;  // force the SAT path everywhere
  EXPECT_TRUE(check_modes(tc, modes, options).all_proven());
  EXPECT_GT(perf::counter_value("verify.sat_calls"), 0u);
  EXPECT_EQ(perf::counter_value("verify.conflicts"), 0u);
}

TEST(CheckModes, ProvesCleanMergeViaExhaustiveSim) {
  const auto modes = two_small_modes();
  const TunableCircuit tc = merged(modes);
  perf::reset();
  VerifyOptions options;
  options.sim_cutoff = 16;  // small circuit: everything under the cutoff
  const VerifyReport report = check_modes(tc, modes, options);
  EXPECT_TRUE(report.all_proven());
  EXPECT_EQ(perf::counter_value("verify.sat_calls"), 0u);
  EXPECT_GT(perf::counter_value("verify.sim_fallbacks"), 0u);
}

TEST(CheckModes, SelfCheckOverloadUsesStoredModes) {
  const TunableCircuit tc = merged(two_small_modes());
  EXPECT_TRUE(check_modes(tc).all_proven());
}

TEST(CheckModes, VerdictsBitIdenticalAcrossReruns) {
  const auto modes = two_small_modes();
  TunableCircuit tc = merged(modes);
  // Corrupt the circuit so reports carry counterexamples, then compare two
  // independent runs field by field.
  const auto points = enumerate_mutation_points(tc);
  const auto it = std::find_if(points.begin(), points.end(), [&](const auto& p) {
    return mutation_is_observable(tc, modes, p);
  });
  ASSERT_NE(it, points.end());
  apply_mutation(tc, *it);

  for (const int cutoff : {0, 16}) {
    VerifyOptions options;
    options.sim_cutoff = cutoff;
    const VerifyReport r1 = check_modes(tc, modes, options);
    const VerifyReport r2 = check_modes(tc, modes, options);
    ASSERT_EQ(r1.modes.size(), r2.modes.size());
    for (std::size_t m = 0; m < r1.modes.size(); ++m) {
      EXPECT_EQ(r1.modes[m].proven, r2.modes[m].proven);
      EXPECT_EQ(r1.modes[m].detail, r2.modes[m].detail);
      ASSERT_EQ(r1.modes[m].cex.has_value(), r2.modes[m].cex.has_value());
      if (r1.modes[m].cex) {
        EXPECT_EQ(r1.modes[m].cex->output, r2.modes[m].cex->output);
        EXPECT_EQ(r1.modes[m].cex->inputs, r2.modes[m].cex->inputs);
        EXPECT_EQ(r1.modes[m].cex->spec_value, r2.modes[m].cex->spec_value);
        EXPECT_EQ(r1.modes[m].cex->impl_value, r2.modes[m].cex->impl_value);
      }
    }
    EXPECT_FALSE(r1.all_proven());
  }
}

// ------------------------------------------------- checker of the checker

/// Applies the first observable mutation of `kind` and asserts check_modes
/// FAILs exactly the mutated mode with a counterexample that replays under
/// netlist::Simulator — for both the SAT and the exhaustive-sim path.
void expect_mutation_caught(MutationKind kind) {
  const auto modes = two_small_modes();
  TunableCircuit tc = merged(modes);
  const auto points = enumerate_mutation_points(tc);
  std::optional<MutationPoint> chosen;
  for (const auto& point : points) {
    if (point.kind == kind && mutation_is_observable(tc, modes, point)) {
      chosen = point;
      break;
    }
  }
  ASSERT_TRUE(chosen.has_value()) << "no observable " << mutation_kind_name(kind);
  apply_mutation(tc, *chosen);

  for (const int cutoff : {0, 16}) {
    VerifyOptions options;
    options.sim_cutoff = cutoff;
    const VerifyReport report = check_modes(tc, modes, options);
    EXPECT_FALSE(report.all_proven()) << chosen->describe();
    for (const auto& mode : report.modes) {
      if (mode.mode == chosen->mode) {
        EXPECT_FALSE(mode.proven) << chosen->describe();
        ASSERT_TRUE(mode.cex.has_value()) << mode.detail;
        EXPECT_TRUE(replay_counterexample(tc, modes, *mode.cex))
            << chosen->describe() << " cutoff=" << cutoff;
      } else {
        EXPECT_TRUE(mode.proven) << "mutation leaked into mode " << mode.mode;
      }
    }
  }
}

TEST(MutationSuite, FlippedTruthBitYieldsReplayableCex) {
  expect_mutation_caught(MutationKind::FlipTruthBit);
}

TEST(MutationSuite, SwappedAssignmentYieldsReplayableCex) {
  expect_mutation_caught(MutationKind::SwapAssignment);
}

TEST(MutationSuite, DroppedActivationYieldsReplayableCex) {
  expect_mutation_caught(MutationKind::DropActivation);
}

TEST(MutationSuite, EnumerationCoversAllKindsDeterministically) {
  const TunableCircuit tc = merged(two_small_modes());
  const auto points = enumerate_mutation_points(tc);
  for (const MutationKind kind :
       {MutationKind::FlipTruthBit, MutationKind::SwapAssignment,
        MutationKind::DropActivation}) {
    EXPECT_TRUE(std::any_of(points.begin(), points.end(),
                            [&](const auto& p) { return p.kind == kind; }))
        << mutation_kind_name(kind);
  }
  const auto again = enumerate_mutation_points(tc);
  ASSERT_EQ(points.size(), again.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].kind, again[i].kind);
    EXPECT_EQ(points[i].mode, again[i].mode);
    EXPECT_EQ(points[i].a, again[i].a);
    EXPECT_EQ(points[i].b, again[i].b);
  }
}

TEST(MutationSuite, InjectionYieldsReplayableCex) {
  const auto modes = two_small_modes();
  TunableCircuit tc = merged(modes);
  const MutationPoint applied = inject_mutation(tc, modes, /*start=*/0);

  const VerifyReport report = check_modes(tc, modes);
  EXPECT_FALSE(report.all_proven());
  const auto& failed = report.modes[static_cast<std::size_t>(applied.mode)];
  EXPECT_FALSE(failed.proven);
  ASSERT_TRUE(failed.cex.has_value());
  EXPECT_TRUE(replay_counterexample(tc, modes, *failed.cex));
}

TEST(MutationSuite, StartOutOfRangeIsPrecondition) {
  const auto modes = two_small_modes();
  TunableCircuit tc = merged(modes);
  const std::size_t n = enumerate_mutation_points(tc).size();
  EXPECT_THROW((void)inject_mutation(tc, modes, n), PreconditionError);
  EXPECT_TRUE(check_modes(tc, modes).all_proven());  // nothing applied
}

bool same_point(const MutationPoint& x, const MutationPoint& y) {
  return x.kind == y.kind && x.mode == y.mode && x.a == y.a && x.b == y.b;
}

TEST(MutationSuite, DistinctStartsPickDistinctPoints) {
  const auto modes = two_small_modes();
  const TunableCircuit pristine_tc = merged(modes);
  const auto points = enumerate_mutation_points(pristine_tc);
  ASSERT_GT(points.size(), 8u);
  std::vector<std::size_t> observable;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (mutation_is_observable(pristine_tc, modes, points[i])) {
      observable.push_back(i);
    }
  }
  ASSERT_GE(observable.size(), 2u);
  // Starting at the last observable index picks exactly that point; a start
  // past it could wrap back to the first pick.
  const std::size_t first_idx = observable.front();
  const std::size_t last_idx = observable.back();

  TunableCircuit tc_first = merged(modes);
  const MutationPoint first = inject_mutation(tc_first, modes, 0);
  EXPECT_TRUE(same_point(first, points[first_idx])) << first.describe();
  EXPECT_FALSE(check_modes(tc_first, modes).all_proven());

  TunableCircuit tc_later = merged(modes);
  const MutationPoint later = inject_mutation(tc_later, modes, last_idx);
  EXPECT_TRUE(same_point(later, points[last_idx])) << later.describe();
  EXPECT_FALSE(check_modes(tc_later, modes).all_proven());

  EXPECT_FALSE(same_point(first, later))
      << first.describe() << " vs " << later.describe();
}

}  // namespace
}  // namespace mmflow::verify
