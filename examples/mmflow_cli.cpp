/// \file mmflow_cli.cpp
/// Command-line front end for the multi-mode tool flow — the "fully
/// automated tool flow" of the paper's title as a standalone tool. Takes
/// the modes as BLIF files and runs the complete pipeline (synthesis,
/// mapping, combined placement, merging, TPlace, TRoute, parameterized
/// configuration), printing the reconfiguration comparison and optionally
/// the parameterized configuration report.
///
/// Usage:
///   mmflow_cli [options] mode0.blif mode1.blif [mode2.blif ...]
/// Options:
///   --cost=wirelength|edgematch   combined-placement cost engine
///   --seed=N                      master seed (default 1)
///   --seeds=N                     batch mode: run N seed restarts
///                                 (seed, seed+1, ...) and report per-seed
///                                 QoR plus the best seed
///   --jobs=K                      worker threads for --seeds (default 1;
///                                 0 = all hardware threads)
///   --inner=F                     annealing effort (default 10)
///   --timing-tradeoff=F           timing-driven combined placement weight
///                                 λ in [0, 1] (default 0 = pure
///                                 wirelength, bit-identical to before the
///                                 knob existed)
///   --cache-dir=PATH              persistent flow cache: artifacts are
///                                 written to (and replayed from) a
///                                 core::ArtifactStore in PATH, so a rerun
///                                 in a fresh process skips the cached work
///                                 with bit-identical QoR (docs/CACHING.md).
///                                 Defaults to $MMFLOW_CACHE_DIR if set
///   --resume                      batch mode: consult the run manifest in
///                                 --cache-dir and recompute only the seeds
///                                 a previous (killed) sweep never finished;
///                                 completed seeds replay from the store as
///                                 disk hits and the final table matches an
///                                 uninterrupted run (docs/ROBUSTNESS.md)
///   --job-timeout-ms=N            batch mode: per-seed wall-clock deadline;
///                                 an over-deadline seed is reported as
///                                 timed_out instead of hanging the sweep
///   --retries=N                   batch mode: re-run failed/timed-out seeds
///                                 up to N extra times (bit-identical heal)
///   --retry-backoff-ms=N          sleep N << (k-1) ms before retry k
///   --faults=SPEC                 arm deterministic fault injection (also
///                                 via $MMFLOW_FAULTS; --faults wins), e.g.
///                                 store.read@2,batch.job~0.1/7 — see
///                                 common/faults.h for grammar and sites
///   --k=N                         LUT size (default 4)
///   --report                      dump the parameterized configuration
///   --report-full                 ... including static resources
///   --verify-modes                after the flow, prove each mode of the
///                                 merged tunable circuit equivalent to its
///                                 input LUT circuit (SAT miter per output
///                                 cone, exhaustive simulation below the
///                                 cutoff) and print a PROVEN/FAILED table
///                                 plus the verify.* counters; a FAILED
///                                 verdict makes the exit status nonzero.
///                                 Spec: docs/VERIFICATION.md
///   --verify-cutoff=N             support-size cutoff for the exhaustive
///                                 simulation fallback (default 8)
///   --suite=regexp|fir|mcnc|all   run the named built-in app suite(s)
///                                 instead of BLIF modes (mainly for the
///                                 verify-modes CI gate)
///   --pairs=N                     with --suite: only the first N pairs per
///                                 suite (0 = full)
///   --tune                        self-tuning flow search (docs/TUNING.md):
///                                 successive halving over the knob space on
///                                 the --suite benchmarks (or the BLIF
///                                 modes), printing the Pareto front of flow
///                                 configurations against the default-knob
///                                 baseline. Deterministic: the same
///                                 --tune-seed reproduces the front
///                                 bit-identically for every --jobs value
///                                 and across cache/resume reruns. Combines
///                                 with --jobs, --cache-dir, --resume,
///                                 --retries, --faults
///   --tune-budget=N               distinct knob configurations sampled at
///                                 rung 0 (default 16)
///   --tune-seed=S                 tune-schedule seed (default 1; distinct
///                                 from --seed, the flow seed)
///   --tune-objectives=LIST        dominance objectives, comma-separated
///                                 subset of wirelength, critical_path,
///                                 frames (default: all three; wall time is
///                                 always reported but never an objective)
///   --tune-knobs=SPEC             knob space as name=lo:hi[:log],...
///                                 (default: the curated registry subset,
///                                 see docs/TUNING.md)
///   --tune-json=PATH              write the front + trials + perf counters
///                                 as bench-style JSON to PATH
///
/// Numeric flags are parsed with the checked parsers of common/strings.h:
/// garbage or trailing junk ("--jobs=abc") is a usage error, never a silent
/// zero.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <algorithm>
#include <fstream>

#include "apps/mcnc/mcnc.h"
#include "apps/suites.h"
#include "common/faults.h"
#include "common/log.h"
#include "common/perf.h"
#include "common/strings.h"
#include "core/artifact_store.h"
#include "core/batch.h"
#include "core/flows.h"
#include "core/manifest.h"
#include "core/metrics.h"
#include "core/timing.h"
#include "tunable/report.h"
#include "tune/tuner.h"
#include "verify/verify.h"

using namespace mmflow;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--cost=wirelength|edgematch] [--seed=N] "
               "[--seeds=N] [--jobs=K] [--inner=F] "
               "[--timing-tradeoff=F] [--cache-dir=PATH] [--resume] "
               "[--job-timeout-ms=N] [--retries=N] [--retry-backoff-ms=N] "
               "[--faults=SPEC] [--k=N] [--report] [--report-full] "
               "[--verify-modes] [--verify-cutoff=N] "
               "[--suite=regexp|fir|mcnc|all] [--pairs=N] "
               "[--tune] [--tune-budget=N] [--tune-seed=S] "
               "[--tune-objectives=LIST] [--tune-knobs=SPEC] "
               "[--tune-json=PATH] "
               "mode0.blif mode1.blif [...]\n",
               argv0);
}

/// Prints the persistent-cache effectiveness line (only when a cache dir is
/// active; the counters are process-wide perf counters).
void print_cache_stats(const std::string& cache_dir) {
  if (cache_dir.empty()) return;
  std::printf(
      "\npersistent cache %s: %llu disk hits, %llu misses, %llu writes, "
      "%llu invalid, %llu write errors\n",
      cache_dir.c_str(),
      static_cast<unsigned long long>(
          perf::counter_value("flowcache.disk_hits")),
      static_cast<unsigned long long>(
          perf::counter_value("flowcache.disk_misses")),
      static_cast<unsigned long long>(
          perf::counter_value("flowcache.disk_writes")),
      static_cast<unsigned long long>(
          perf::counter_value("flowcache.disk_invalid")),
      static_cast<unsigned long long>(
          perf::counter_value("flowcache.disk_write_errors")));
}

/// Prints the fault-tolerance counters (docs/ROBUSTNESS.md) whenever any of
/// them is non-zero or fault injection is armed — quiet runs stay quiet.
void print_robustness_stats() {
  const auto value = [](const char* name) {
    return static_cast<unsigned long long>(perf::counter_value(name));
  };
  const unsigned long long injected = value("faults.injected");
  const unsigned long long retries = value("batch.retries");
  const unsigned long long timeouts = value("batch.timeouts");
  const unsigned long long cancelled = value("batch.cancelled");
  const unsigned long long skips = value("batch.manifest_skips");
  if (!faults::enabled() && injected + retries + timeouts + cancelled + skips == 0) {
    return;
  }
  std::printf(
      "robustness: %llu faults injected, %llu retries, %llu timeouts, "
      "%llu cancelled, %llu manifest skips\n",
      injected, retries, timeouts, cancelled, skips);
}

/// Prints the equivalence-gate counters (docs/VERIFICATION.md).
void print_verify_stats() {
  const auto value = [](const char* name) {
    return static_cast<unsigned long long>(perf::counter_value(name));
  };
  std::printf(
      "verify: %llu SAT calls, %llu conflicts, %llu sim fallbacks, "
      "%llu counterexamples\n",
      value("verify.sat_calls"), value("verify.conflicts"),
      value("verify.sim_fallbacks"), value("verify.cex_found"));
}

/// Runs the mode-equivalence gate on a finished experiment and prints the
/// per-mode PROVEN/FAILED table (docs/VERIFICATION.md). Returns true only
/// when every mode is proven equivalent to its input LUT circuit.
bool verify_experiment(const core::MultiModeExperiment& experiment,
                       const std::vector<techmap::LutCircuit>& modes,
                       const verify::VerifyOptions& vopt, const char* label) {
  if (!experiment.tunable.has_value()) {
    std::fprintf(stderr,
                 "error: %s: flow produced no tunable circuit to verify\n",
                 label);
    return false;
  }
  const auto report = verify::check_modes(*experiment.tunable, modes, vopt);
  std::printf("\nmode equivalence (%s):\n", label);
  std::printf("  %-4s | %-7s | %s\n", "mode", "verdict", "detail");
  std::printf("  -----+---------+-------\n");
  for (const auto& mode_report : report.modes) {
    std::printf("  %-4d | %-7s | %s\n", mode_report.mode,
                mode_report.proven ? "PROVEN" : "FAILED",
                mode_report.detail.empty() ? "equivalent"
                                           : mode_report.detail.c_str());
    if (mode_report.cex.has_value()) {
      const auto& cex = *mode_report.cex;
      std::string assignment;
      for (std::size_t i = 0; i < cex.inputs.size(); ++i) {
        if (!assignment.empty()) assignment += " ";
        assignment += cex.input_names[i] + "=" + (cex.inputs[i] ? "1" : "0");
      }
      std::printf("         counterexample at '%s': %s -> spec=%d impl=%d\n",
                  cex.output.c_str(), assignment.c_str(),
                  cex.spec_value ? 1 : 0, cex.impl_value ? 1 : 0);
    }
  }
  return report.all_proven();
}

/// Suite mode (--suite=NAME): runs the named built-in app suite(s) through
/// the full flow, one benchmark at a time, sharing RRGs and flow artifacts
/// across benchmarks. With --verify-modes every benchmark's merged circuit
/// is proven against its input modes; any FAILED verdict makes the exit
/// status nonzero. This is the CI equivalence gate's entry point.
int run_suites(const std::vector<std::string>& suite_names,
               const core::FlowOptions& options, int k, int limit_pairs,
               const std::string& cache_dir, bool verify_modes,
               const verify::VerifyOptions& vopt) {
  apps::SuiteOptions suite_options;
  suite_options.seed = options.seed;
  suite_options.k = k;
  suite_options.limit_pairs = limit_pairs;

  core::FlowCache flow_cache;
  core::RrgCache rrg_cache;
  core::FlowContext context;
  context.cache = &flow_cache;
  context.rrgs = &rrg_cache;
  if (!cache_dir.empty()) {
    flow_cache.attach_store(std::make_shared<core::ArtifactStore>(cache_dir));
  }

  bool all_proven = true;
  std::size_t benchmarks_run = 0;
  for (const auto& suite_name : suite_names) {
    const std::vector<apps::MultiModeBenchmark> benchmarks =
        apps::suite_by_name(suite_name, suite_options);
    for (const auto& bench : benchmarks) {
      const std::string label = suite_name + "/" + bench.name;
      const auto experiment =
          core::run_experiment(bench.modes, options, context);
      const auto metrics =
          core::reconfig_metrics(experiment, options.encoding);
      std::printf("%s: W=%d, DCS %llu bits (%.2fx faster reconfiguration)\n",
                  label.c_str(), experiment.region.channel_width,
                  static_cast<unsigned long long>(metrics.dcs_bits),
                  metrics.dcs_speedup());
      ++benchmarks_run;
      if (verify_modes) {
        all_proven =
            verify_experiment(experiment, bench.modes, vopt, label.c_str()) &&
            all_proven;
      }
    }
  }
  std::printf("\n%zu benchmarks run\n", benchmarks_run);
  if (verify_modes) {
    print_verify_stats();
    std::printf("mode equivalence gate: %s\n",
                all_proven ? "all modes PROVEN" : "FAILED");
  }
  print_cache_stats(cache_dir);
  print_robustness_stats();
  return all_proven ? 0 : 2;
}

/// Batch mode (--seeds=N): multi-seed placement restarts through the batch
/// driver, sharing RRGs and flow artifacts across seeds. Prints one QoR row
/// per seed and the best seed by DCS reconfiguration cost; --report[-full]
/// dumps the best seed's parameterized configuration.
int run_seed_batch(const std::vector<techmap::LutCircuit>& modes,
                   const core::FlowOptions& options, int num_seeds,
                   const core::BatchOptions& batch_options, bool report,
                   bool report_full) {
  core::BatchDriver driver(batch_options);
  const auto batch_jobs = core::seed_sweep(
      "cli", std::make_shared<const std::vector<techmap::LutCircuit>>(modes),
      options, num_seeds);
  const auto results = driver.run(batch_jobs);

  std::printf("\n%-6s | %-9s | %-2s | %-5s | %-12s | %-12s | %-12s | %-10s | %s\n",
              "seed", "status", "rt", "W", "DCS bits", "speed-up",
              "wires vs MDR", "CP vs MDR", "wall ms");
  std::printf(
      "-------+-----------+----+-------+--------------+--------------+"
      "--------------+------------+--------\n");
  const core::BatchResult* best = nullptr;
  core::ReconfigMetrics best_metrics;
  for (const auto& result : results) {
    if (!result.experiment) {
      std::printf("%-6llu | %-9s | %2d | %s\n",
                  static_cast<unsigned long long>(result.seed),
                  core::to_string(result.outcome.status),
                  result.outcome.retries,
                  result.outcome.error_kind.c_str());
      std::fprintf(stderr, "seed %llu %s: %s\n",
                   static_cast<unsigned long long>(result.seed),
                   core::to_string(result.outcome.status),
                   result.error.c_str());
      continue;
    }
    const auto metrics =
        core::reconfig_metrics(*result.experiment, options.encoding);
    const auto wl = core::wirelength_metrics(*result.experiment);
    const auto timing = core::timing_report(*result.experiment, modes);
    std::printf(
        "%-6llu | %-9s | %2d | %5d | %12llu | %11.2fx | %12.2f | %10.2f | "
        "%7.0f\n",
        static_cast<unsigned long long>(result.seed),
        core::to_string(result.outcome.status), result.outcome.retries,
        result.experiment->region.channel_width,
        static_cast<unsigned long long>(metrics.dcs_bits),
        metrics.dcs_speedup(), wl.mean_ratio(), timing.mean_ratio(),
        result.wall_ms);
    if (best == nullptr || metrics.dcs_bits < best_metrics.dcs_bits) {
      best = &result;
      best_metrics = metrics;
    }
  }
  if (best == nullptr) {
    std::fprintf(stderr, "error: every seed failed\n");
    return 1;
  }
  std::printf("\nbest seed %llu: %llu DCS bits, %.2fx faster reconfiguration\n",
              static_cast<unsigned long long>(best->seed),
              static_cast<unsigned long long>(best_metrics.dcs_bits),
              best_metrics.dcs_speedup());
  std::printf("shared RRGs built once per width: %zu; flow-cache entries: %zu\n",
              driver.rrgs().size(), driver.cache().size());
  if (batch_options.resume) {
    std::size_t skipped = 0;
    for (const auto& result : results) {
      if (result.outcome.manifest_skip) ++skipped;
    }
    std::printf("resume: %zu of %zu seeds already in run manifest (%s)\n",
                skipped, results.size(),
                core::RunManifest::default_path(batch_options.cache_dir)
                    .c_str());
  }
  print_cache_stats(batch_options.cache_dir);
  print_robustness_stats();
  if (report && best->experiment->tunable.has_value()) {
    tunable::ReportOptions ropt;
    ropt.parameterized_only = !report_full;
    ropt.limit = report_full ? 0 : 32;
    std::printf("\nparameterized configuration of best seed %llu:\n%s\n",
                static_cast<unsigned long long>(best->seed),
                tunable::describe(*best->experiment->tunable, ropt).c_str());
  }
  return 0;
}

/// Writes the tune report as bench-style JSON ({"bench", "rows", "perf"},
/// matching bench/bench_json.h conventions): one row per front point plus
/// the baseline, then every trial, then the perf counters.
bool write_tune_json(const std::string& path, const tune::TuneResult& result) {
  std::ofstream os(path);
  if (!os) return false;
  const auto row = [&result](std::ostream& s, const tune::TuneTrial& trial,
                             bool on_front) {
    s << "    {\"trial\": " << trial.index << ", \"rung\": " << trial.rung
      << ", \"baseline\": "
      << (trial.index == result.baseline.index ? "true" : "false")
      << ", \"front\": " << (on_front ? "true" : "false")
      << ", \"ok\": " << (trial.ok ? "true" : "false")
      << ", \"from_ledger\": " << (trial.from_ledger ? "true" : "false");
    for (std::size_t i = 0; i < result.knob_names.size(); ++i) {
      s << ", \"knob." << result.knob_names[i]
        << "\": " << format_double(trial.knob_values[i], 6);
    }
    for (std::size_t i = 0; i < result.objective_names.size(); ++i) {
      s << ", \"" << result.objective_names[i] << "\": "
        << (trial.ok ? format_double(trial.objectives[i], 6) : "null");
    }
    s << ", \"wall_ms\": " << format_double(trial.wall_ms, 1) << "}";
  };
  os << "{\n  \"bench\": \"tune\",\n  \"rows\": [\n";
  bool first = true;
  for (const auto& trial : result.front) {
    if (!first) os << ",\n";
    first = false;
    row(os, trial, true);
  }
  const bool baseline_on_front =
      std::any_of(result.front.begin(), result.front.end(),
                  [&result](const tune::TuneTrial& t) {
                    return t.index == result.baseline.index;
                  });
  if (!baseline_on_front && result.rungs_run == result.rungs) {
    if (!first) os << ",\n";
    first = false;
    row(os, result.baseline, false);
  }
  os << "\n  ],\n  \"trials\": [\n";
  first = true;
  for (const auto& trial : result.trials) {
    if (!first) os << ",\n";
    first = false;
    row(os, trial, false);
  }
  os << "\n  ],\n  \"perf\": ";
  perf::Registry::instance().write_json(os, 2);
  os << "\n}\n";
  return static_cast<bool>(os);
}

/// Tune mode (--tune): self-tuning flow search over the knob space
/// (docs/TUNING.md). Prints the Pareto front against the default-knob
/// baseline; --tune-json additionally writes the full report.
int run_tune(const std::vector<tune::TuneBenchmark>& benchmarks,
             const tune::TuneOptions& tune_options,
             const std::string& json_path) {
  std::printf("tune: %d configurations over %zu knobs, %zu benchmarks, "
              "seed %llu\n",
              tune_options.budget,
              (tune_options.space.size() != 0 ? tune_options.space
                                              : tune::KnobSpace::defaults())
                  .size(),
              benchmarks.size(),
              static_cast<unsigned long long>(tune_options.seed));
  const tune::TuneResult result = tune::tune(benchmarks, tune_options);
  if (result.stopped_early) {
    std::printf("tune: stopped after rung %d of %d\n", result.rungs_run,
                result.rungs);
    return 0;
  }
  std::printf("\ntrials: %zu evaluations over %d rungs (%llu ledger hits, "
              "%llu failures)\n",
              result.trials.size(), result.rungs_run,
              static_cast<unsigned long long>(
                  perf::counter_value("tune.ledger_hits")),
              static_cast<unsigned long long>(
                  perf::counter_value("tune.failures")));
  std::printf("\nPareto front (%zu points; baseline* = default knobs on the "
              "front):\n%s",
              result.front.size(),
              tune::format_front_table(result).c_str());
  print_cache_stats(tune_options.cache_dir);
  print_robustness_stats();
  if (!json_path.empty()) {
    if (!write_tune_json(json_path, result)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (result.front.empty()) {
    std::fprintf(stderr, "error: empty front (every final-rung trial and "
                         "the baseline failed)\n");
    return 2;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Info);

  core::FlowOptions options;
  options.anneal.inner_num = 10.0;
  int k = 4;
  int seeds = 1;
  int jobs = 1;
  std::string cache_dir;
  if (const char* dir = std::getenv("MMFLOW_CACHE_DIR")) cache_dir = dir;
  int job_timeout_ms = 0;
  int retries = 0;
  int retry_backoff_ms = 0;
  bool resume = false;
  std::string fault_spec;  // --faults; overrides $MMFLOW_FAULTS
  bool report = false;
  bool report_full = false;
  bool verify_modes = false;
  verify::VerifyOptions verify_options;
  std::string suite;
  int limit_pairs = 0;
  bool tune_mode = false;
  tune::TuneOptions tune_options;
  std::string tune_json;
  std::vector<std::string> paths;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--cost=", 0) == 0) {
        const std::string value = arg.substr(7);
        if (value == "wirelength") {
          options.cost_engine = core::CombinedCost::WireLength;
        } else if (value == "edgematch") {
          options.cost_engine = core::CombinedCost::EdgeMatch;
        } else {
          usage(argv[0]);
          return 1;
        }
      } else if (arg.rfind("--seed=", 0) == 0) {
        options.seed = parse_u64(arg.substr(7), "--seed");
      } else if (arg.rfind("--seeds=", 0) == 0) {
        seeds = parse_int(arg.substr(8), "--seeds");
        if (seeds < 1) {
          std::fprintf(stderr, "error: --seeds must be >= 1\n");
          return 1;
        }
      } else if (arg.rfind("--jobs=", 0) == 0) {
        jobs = parse_int(arg.substr(7), "--jobs");
        if (jobs < 0) {
          std::fprintf(stderr, "error: --jobs must be >= 0\n");
          return 1;
        }
      } else if (arg.rfind("--inner=", 0) == 0) {
        options.anneal.inner_num = parse_double(arg.substr(8), "--inner");
      } else if (arg.rfind("--timing-tradeoff=", 0) == 0) {
        options.timing_tradeoff =
            parse_double(arg.substr(18), "--timing-tradeoff");
        if (options.timing_tradeoff < 0.0 || options.timing_tradeoff > 1.0) {
          std::fprintf(stderr, "error: --timing-tradeoff must be in [0, 1]\n");
          return 1;
        }
      } else if (arg.rfind("--cache-dir=", 0) == 0) {
        cache_dir = arg.substr(12);
      } else if (arg == "--resume") {
        resume = true;
      } else if (arg.rfind("--job-timeout-ms=", 0) == 0) {
        job_timeout_ms = parse_int(arg.substr(17), "--job-timeout-ms");
        if (job_timeout_ms < 0) {
          std::fprintf(stderr, "error: --job-timeout-ms must be >= 0\n");
          return 1;
        }
      } else if (arg.rfind("--retries=", 0) == 0) {
        retries = parse_int(arg.substr(10), "--retries");
        if (retries < 0) {
          std::fprintf(stderr, "error: --retries must be >= 0\n");
          return 1;
        }
      } else if (arg.rfind("--retry-backoff-ms=", 0) == 0) {
        retry_backoff_ms = parse_int(arg.substr(19), "--retry-backoff-ms");
        if (retry_backoff_ms < 0) {
          std::fprintf(stderr, "error: --retry-backoff-ms must be >= 0\n");
          return 1;
        }
      } else if (arg.rfind("--faults=", 0) == 0) {
        fault_spec = arg.substr(9);
      } else if (arg.rfind("--k=", 0) == 0) {
        k = parse_int(arg.substr(4), "--k");
      } else if (arg == "--verify-modes") {
        verify_modes = true;
      } else if (arg.rfind("--verify-cutoff=", 0) == 0) {
        verify_options.sim_cutoff =
            parse_int(arg.substr(16), "--verify-cutoff");
        if (verify_options.sim_cutoff < 0) {
          std::fprintf(stderr, "error: --verify-cutoff must be >= 0\n");
          return 1;
        }
      } else if (arg.rfind("--suite=", 0) == 0) {
        suite = arg.substr(8);
        if (suite != "regexp" && suite != "fir" && suite != "mcnc" &&
            suite != "all") {
          std::fprintf(stderr,
                       "error: --suite must be regexp, fir, mcnc or all\n");
          return 1;
        }
      } else if (arg.rfind("--pairs=", 0) == 0) {
        limit_pairs = parse_int(arg.substr(8), "--pairs");
        if (limit_pairs < 0) {
          std::fprintf(stderr, "error: --pairs must be >= 0\n");
          return 1;
        }
      } else if (arg == "--tune") {
        tune_mode = true;
      } else if (arg.rfind("--tune-budget=", 0) == 0) {
        tune_options.budget = parse_int(arg.substr(14), "--tune-budget");
        if (tune_options.budget < 1) {
          std::fprintf(stderr, "error: --tune-budget must be >= 1\n");
          return 1;
        }
      } else if (arg.rfind("--tune-seed=", 0) == 0) {
        tune_options.seed = parse_u64(arg.substr(12), "--tune-seed");
      } else if (arg.rfind("--tune-objectives=", 0) == 0) {
        tune_options.objectives =
            tune::ObjectiveSet::parse(arg.substr(18), "--tune-objectives");
      } else if (arg.rfind("--tune-knobs=", 0) == 0) {
        tune_options.space =
            tune::KnobSpace::from_spec(arg.substr(13), "--tune-knobs");
      } else if (arg.rfind("--tune-json=", 0) == 0) {
        tune_json = arg.substr(12);
      } else if (arg == "--report") {
        report = true;
      } else if (arg == "--report-full") {
        report = true;
        report_full = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
        return 0;
      } else if (arg.rfind("--", 0) == 0) {
        usage(argv[0]);
        return 1;
      } else {
        paths.push_back(arg);
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage(argv[0]);
    return 1;
  }
  if (!suite.empty()) {
    if (!paths.empty()) {
      std::fprintf(stderr, "error: --suite does not take BLIF paths\n");
      return 1;
    }
    // --tune drives the suite through the batch driver itself, so the
    // batch fault-tolerance flags are meaningful there.
    if (!tune_mode && (seeds > 1 || resume || job_timeout_ms > 0 || retries > 0)) {
      std::fprintf(stderr,
                   "error: --suite is incompatible with the batch flags "
                   "(--seeds/--resume/--job-timeout-ms/--retries)\n");
      return 1;
    }
  } else if (paths.size() < 2) {
    usage(argv[0]);
    return 1;
  }
  if (tune_mode && (verify_modes || seeds > 1 || report)) {
    std::fprintf(stderr,
                 "error: --tune is incompatible with "
                 "--verify-modes/--seeds/--report\n");
    return 1;
  }
  if (verify_modes &&
      (seeds > 1 || resume || job_timeout_ms > 0 || retries > 0)) {
    std::fprintf(stderr,
                 "error: --verify-modes is a single-run gate; it cannot be "
                 "combined with the batch flags\n");
    return 1;
  }
  if (resume && cache_dir.empty()) {
    std::fprintf(stderr,
                 "error: --resume needs a run manifest; pass --cache-dir "
                 "(or set MMFLOW_CACHE_DIR)\n");
    return 1;
  }

  try {
    // Arm fault injection before any flow work so hit counting starts at
    // the first injection site. The explicit flag wins over the env var.
    if (!fault_spec.empty()) {
      faults::install(fault_spec, "--faults");
    } else {
      faults::install_from_env();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  try {
    if (tune_mode) {
      tune_options.base = options;
      tune_options.cache_dir = cache_dir;
      tune_options.resume = resume;
      tune_options.jobs = jobs;
      tune_options.max_retries = retries;
      tune_options.retry_backoff_ms = retry_backoff_ms;
      tune_options.job_timeout_ms = job_timeout_ms;

      std::vector<tune::TuneBenchmark> benchmarks;
      if (!suite.empty()) {
        apps::SuiteOptions suite_options;
        suite_options.seed = options.seed;
        suite_options.k = k;
        suite_options.limit_pairs = limit_pairs;
        const std::vector<std::string> suite_names =
            suite == "all" ? std::vector<std::string>{"regexp", "fir", "mcnc"}
                           : std::vector<std::string>{suite};
        for (const auto& suite_name : suite_names) {
          for (auto& bench : apps::suite_by_name(suite_name, suite_options)) {
            benchmarks.push_back(tune::TuneBenchmark{
                suite_name + "/" + bench.name,
                std::make_shared<const std::vector<techmap::LutCircuit>>(
                    std::move(bench.modes))});
          }
        }
      } else {
        benchmarks.push_back(tune::TuneBenchmark{
            "blif",
            std::make_shared<const std::vector<techmap::LutCircuit>>(
                apps::mcnc::load_blif_modes(paths, k))});
      }
      return run_tune(benchmarks, tune_options, tune_json);
    }

    if (!suite.empty()) {
      std::vector<std::string> suite_names;
      if (suite == "all") {
        suite_names = {"regexp", "fir", "mcnc"};
      } else {
        suite_names = {suite};
      }
      return run_suites(suite_names, options, k, limit_pairs, cache_dir,
                        verify_modes, verify_options);
    }

    // Front end: BLIF -> synthesis -> mapping, per mode.
    auto modes = apps::mcnc::load_blif_modes(paths, k);
    for (std::size_t m = 0; m < modes.size(); ++m) {
      std::printf("mode %zu (%s): %zu LUTs, %zu FFs, %zu PIs, %zu POs\n", m,
                  paths[m].c_str(), modes[m].num_blocks(), modes[m].num_ffs(),
                  modes[m].num_pis(), modes[m].num_pos());
    }

    if (seeds > 1 || resume || job_timeout_ms > 0 || retries > 0) {
      core::BatchOptions batch_options;
      batch_options.jobs = jobs;
      batch_options.cache_dir = cache_dir;
      batch_options.job_timeout_ms = job_timeout_ms;
      batch_options.max_retries = retries;
      batch_options.retry_backoff_ms = retry_backoff_ms;
      batch_options.resume = resume;
      return run_seed_batch(modes, options, seeds, batch_options, report,
                            report_full);
    }

    // Single-run mode: with a cache dir, route the run through a (local)
    // flow cache backed by the persistent store so repeated invocations
    // skip the cached work.
    core::FlowCache flow_cache;
    core::RrgCache rrg_cache;
    core::FlowContext context;
    if (!cache_dir.empty()) {
      flow_cache.attach_store(std::make_shared<core::ArtifactStore>(cache_dir));
      context.cache = &flow_cache;
      context.rrgs = &rrg_cache;
    }
    const auto experiment = core::run_experiment(modes, options, context);
    const auto metrics =
        core::reconfig_metrics(experiment, options.encoding);
    const auto wl = core::wirelength_metrics(experiment);
    const auto timing = core::timing_report(experiment, modes);

    std::printf("\nregion: %dx%d logic blocks, channel width %d (min %d)\n",
                experiment.region.nx, experiment.region.ny,
                experiment.region.channel_width, experiment.min_width);
    std::printf("tunable circuit: %zu merged of %zu per-mode connections\n",
                experiment.merged_connections,
                experiment.total_mode_connections);
    std::printf("\nmode-switch cost:\n");
    std::printf("  MDR  : %llu bits (full region)\n",
                static_cast<unsigned long long>(metrics.mdr_bits));
    std::printf("  DCS  : %llu bits -> %.2fx faster reconfiguration\n",
                static_cast<unsigned long long>(metrics.dcs_bits),
                metrics.dcs_speedup());
    std::printf("\nquality:\n");
    std::printf("  wire length vs MDR    : %.2f (worst mode %.2f)\n",
                wl.mean_ratio(), wl.max_ratio());
    std::printf("  critical path vs MDR  : %.2f (worst mode %.2f)\n",
                timing.mean_ratio(), timing.max_ratio());
    std::printf("\nper-mode critical path (delay units%s):\n",
                options.timing_tradeoff > 0.0 ? ", timing-driven DCS" : "");
    std::printf("  %-4s | %8s | %8s | %6s\n", "mode", "MDR", "DCS", "ratio");
    std::printf("  -----+----------+----------+-------\n");
    for (std::size_t m = 0; m < modes.size(); ++m) {
      std::printf("  %-4zu | %8.2f | %8.2f | %6.2f\n", m,
                  timing.mdr_critical_path[m], timing.dcs_critical_path[m],
                  timing.dcs_critical_path[m] / timing.mdr_critical_path[m]);
    }

    if (report && experiment.tunable.has_value()) {
      tunable::ReportOptions ropt;
      ropt.parameterized_only = !report_full;
      ropt.limit = report_full ? 0 : 32;
      std::printf("\n%s\n", tunable::describe(*experiment.tunable, ropt).c_str());
    }
    bool all_proven = true;
    if (verify_modes) {
      all_proven =
          verify_experiment(experiment, modes, verify_options, "this run");
      print_verify_stats();
    }
    print_cache_stats(cache_dir);
    print_robustness_stats();
    return all_proven ? 0 : 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
