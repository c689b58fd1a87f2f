#pragma once
/// \file suites.h
/// The paper's three experiment suites (§IV-A), assembled as multi-mode
/// benchmarks ready for core::run_experiment:
///  * RegExp — 5 IDS-rule matching engines, all C(5,2)=10 pairs;
///  * FIR    — 10 low-pass/high-pass pairs with constants propagated;
///  * MCNC   — 5 similar-size circuits (synthetic clones offline, real BLIF
///             when available), all C(5,2)=10 pairs.

#include <string>
#include <vector>

#include "apps/fir/fir.h"
#include "techmap/lutcircuit.h"

namespace mmflow::apps {

struct MultiModeBenchmark {
  std::string name;
  std::vector<techmap::LutCircuit> modes;
};

struct SuiteOptions {
  std::uint64_t seed = 1;
  int k = 4;
  /// Use only the first N base circuits / pairs (speeds up smoke runs);
  /// 0 = full suite; the suite builders reject a negative value.
  int limit_pairs = 0;
};

/// All pairs of the 5 regex engines (10 multi-mode circuits).
[[nodiscard]] std::vector<MultiModeBenchmark> regexp_suite(
    const SuiteOptions& options = {});

/// 10 low-pass/high-pass FIR pairs, constants propagated.
[[nodiscard]] std::vector<MultiModeBenchmark> fir_suite(
    const SuiteOptions& options = {});

/// All pairs of the 5 MCNC-style clones (10 multi-mode circuits).
[[nodiscard]] std::vector<MultiModeBenchmark> mcnc_suite(
    const SuiteOptions& options = {});

/// Dispatch by suite name ("regexp", "fir" or "mcnc", case-sensitive) — the
/// shared front door of the CLI's --suite flag, the benches and the
/// autotuner. Throws PreconditionError naming the unknown suite otherwise.
[[nodiscard]] std::vector<MultiModeBenchmark> suite_by_name(
    const std::string& name, const SuiteOptions& options = {});

/// The FIR spec shared by the suite (also used by the area benchmark, which
/// compares against the generic filter's LUT count).
[[nodiscard]] fir::FirSpec suite_fir_spec();

/// Mapped size of the *generic* (unpropagated) FIR filter — the baseline of
/// the paper's "3x smaller" and "33% area" statements.
[[nodiscard]] std::size_t generic_fir_luts(int k = 4);

}  // namespace mmflow::apps
