/// \file bench_tune.cpp
/// Autotuner smoke bench: a tiny-budget successive-halving tune over the
/// FIR suite (src/tune/, docs/TUNING.md). Reports the Pareto front next to
/// the default-knob baseline so a perf or QoR regression in the search
/// itself is visible in one table, and emits one JSON row per front point
/// (plus the baseline) for the CI tune-smoke gate, which asserts the front
/// is non-empty and never dominated by the baseline.
///
/// Extra environment knobs on top of bench_common.h:
///   MMFLOW_TUNE_BUDGET  rung-0 cohort size (default 6; acceptance-grade 64)
///   MMFLOW_TUNE_KNOBS   search space spec `name=lo:hi[:log],...`
///                       (default: the curated KnobSpace::defaults() set)
///   MMFLOW_TUNE_SUITE   suite to tune over (default "fir")
///
/// The QoR guard rail: for a fixed MMFLOW_SEED the front rows are
/// bit-identical across reruns, jobs values and cold/warm MMFLOW_CACHE_DIR
/// stores — only wall_ms varies (the tuner's determinism contract,
/// tests/test_tune.cpp).

#include <memory>
#include <utility>

#include "bench_common.h"
#include "tune/tuner.h"

using namespace mmflow;

namespace {

bench::JsonRow trial_row(const std::string& name, const tune::TuneTrial& trial,
                         const tune::TuneResult& result, bool is_baseline,
                         bool on_front) {
  bench::JsonRow row;
  row.name = name;
  row.fields.emplace_back("trial", static_cast<double>(trial.index));
  row.fields.emplace_back("baseline", is_baseline ? 1.0 : 0.0);
  row.fields.emplace_back("front", on_front ? 1.0 : 0.0);
  for (std::size_t k = 0; k < result.knob_names.size(); ++k) {
    row.fields.emplace_back("knob." + result.knob_names[k],
                            trial.knob_values[k]);
  }
  for (std::size_t o = 0; o < result.objective_names.size(); ++o) {
    row.fields.emplace_back(result.objective_names[o], trial.objectives[o]);
  }
  row.fields.emplace_back("wall_ms", trial.wall_ms);
  return row;
}

}  // namespace

int main() {
  set_log_level(LogLevel::Silent);
  const auto config = bench::BenchConfig::from_env();
  bench::print_header("Autotuner: successive halving over the knob space",
                      config);

  tune::TuneOptions options;
  options.seed = config.seed;
  options.budget = bench::env_int("MMFLOW_TUNE_BUDGET", 6);
  options.base = config.flow_options(core::CombinedCost::WireLength);
  options.batch = config.batch;
  if (const char* spec = std::getenv("MMFLOW_TUNE_KNOBS")) {
    options.space = tune::KnobSpace::from_spec(spec, "MMFLOW_TUNE_KNOBS");
  }

  std::string suite = "fir";
  if (const char* s = std::getenv("MMFLOW_TUNE_SUITE")) suite = s;

  std::vector<tune::TuneBenchmark> benchmarks;
  for (auto& bench : apps::suite_by_name(suite, config.suite_options())) {
    benchmarks.push_back(tune::TuneBenchmark{
        suite + "/" + bench.name,
        std::make_shared<const std::vector<techmap::LutCircuit>>(
            std::move(bench.modes))});
  }

  std::printf("suite: %s (%zu circuits), budget: %d, objectives:", suite.c_str(),
              benchmarks.size(), options.budget);
  for (const auto& name : tune::ObjectiveSet::defaults().names) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n\n");

  const auto result = tune::tune(benchmarks, options);
  std::printf("%s\n", tune::format_front_table(result).c_str());

  std::vector<bench::JsonRow> rows;
  for (const auto& point : result.front) {
    const bool is_baseline =
        point.index == static_cast<std::uint64_t>(options.budget);
    rows.push_back(trial_row(is_baseline
                                 ? "baseline"
                                 : "t" + std::to_string(point.index),
                             point, result, is_baseline, /*on_front=*/true));
  }
  // The baseline always gets a row, on the front or not — the smoke gate
  // compares every front point against it.
  if (result.baseline.ok &&
      std::none_of(result.front.begin(), result.front.end(),
                   [&](const tune::TuneTrial& t) {
                     return t.index ==
                            static_cast<std::uint64_t>(options.budget);
                   })) {
    rows.push_back(trial_row("baseline", result.baseline, result,
                             /*is_baseline=*/true, /*on_front=*/false));
  }
  return bench::write_rows_json("bench_tune", rows);
}
