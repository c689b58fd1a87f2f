/// \file mmflow_cli.cpp
/// Command-line front end for the multi-mode tool flow — the "fully
/// automated tool flow" of the paper's title as a standalone tool. Takes
/// the modes as BLIF files (or a built-in app suite) and runs the complete
/// pipeline (synthesis, mapping, combined placement, merging, TPlace,
/// TRoute, parameterized configuration), printing the reconfiguration
/// comparison and optionally the parameterized configuration report.
///
/// Every run is one batch: each input (the BLIF modes, or each --suite
/// benchmark) is expanded into --seeds jobs, and all jobs go through one
/// core::BatchDriver. The output is one table with a row per job, then the
/// detail block of each input's best job (fewest DCS bits).
///
/// Usage:
///   mmflow_cli [options] mode0.blif mode1.blif [mode2.blif ...]
///   mmflow_cli [options] --suite=regexp|fir|mcnc|all
/// Exit status: 0 when every job succeeded (and, with --verify-modes, every
/// mode is PROVEN); 1 on a usage error or when a job fails; 2 when a mode
/// is FAILED.
/// Options:
///   --cost=wirelength|edgematch   combined-placement cost engine
///   --seed=N                      master seed (default 1)
///   --seeds=N                     run N seed restarts (seed, seed+1, ...)
///                                 per input (default 1)
///   --jobs=K                      batch worker threads (default 1;
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
///                                 A killed run resumes by rerunning it
///                                 with the same PATH: finished jobs
///                                 replay as disk hits (docs/ROBUSTNESS.md).
///                                 Defaults to $MMFLOW_CACHE_DIR if set
///   --job-timeout-ms=N            per-job wall-clock deadline; an
///                                 over-deadline job is reported as
///                                 timed_out instead of hanging the run
///   --k=N                         LUT size (default 4)
///   --report                      dump the parameterized configuration of
///                                 each input's best job
///   --report-full                 ... including static resources
///   --verify-modes                prove each mode of every job's merged
///                                 tunable circuit equivalent to its input
///                                 LUT circuit (SAT miter per output cone,
///                                 exhaustive simulation below the cutoff)
///                                 and print a PROVEN/FAILED table plus the
///                                 verify.* counters. Spec:
///                                 docs/VERIFICATION.md
///   --verify-cutoff=N             support-size cutoff for the exhaustive
///                                 simulation fallback (default 8)
///   --suite=regexp|fir|mcnc|all   run the named built-in app suite(s)
///                                 instead of BLIF modes, one input per
///                                 benchmark
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
///                                 and across cache reruns. Combines with
///                                 --jobs, --cache-dir.
///                                 The --tune-* options below require it
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
#include <memory>
#include <string>
#include <vector>

#include <algorithm>
#include <fstream>

#include "apps/mcnc/mcnc.h"
#include "apps/suites.h"
#include "common/log.h"
#include "common/perf.h"
#include "common/strings.h"
#include "core/batch.h"
#include "core/flows.h"
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
               "[--timing-tradeoff=F] [--cache-dir=PATH] "
               "[--job-timeout-ms=N] "
               "[--k=N] [--report] [--report-full] "
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
/// them is non-zero — quiet runs stay quiet.
void print_robustness_stats() {
  const auto value = [](const char* name) {
    return static_cast<unsigned long long>(perf::counter_value(name));
  };
  const unsigned long long timeouts = value("batch.timeouts");
  const unsigned long long cancelled = value("batch.cancelled");
  if (timeouts + cancelled == 0) return;
  std::printf("robustness: %llu timeouts, %llu cancelled\n", timeouts,
              cancelled);
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

/// One flow input: the BLIF modes, or one --suite benchmark. The tuner's
/// benchmark record is exactly this pair, so the CLI reuses it.
using Input = tune::TuneBenchmark;

/// Prints the detail block of an input's best job: region, merged
/// connections, mode-switch cost, quality and per-mode critical path.
void print_detail(const core::BatchResult& best,
                  const std::vector<techmap::LutCircuit>& modes,
                  const core::FlowOptions& options) {
  const core::MultiModeExperiment& experiment = *best.experiment;
  const auto metrics = core::reconfig_metrics(experiment, options.encoding);
  const auto wl = core::wirelength_metrics(experiment);
  const auto timing = core::timing_report(experiment, modes);
  std::printf("\nbest job %s:\n", best.name.c_str());
  std::printf("region: %dx%d logic blocks, channel width %d (min %d)\n",
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
}

/// The one job path: every input is expanded into `seeds` jobs
/// (core::seed_sweep) and all jobs run in one BatchDriver batch. Prints a
/// row per job, then each input's best job (fewest DCS bits) in detail,
/// with its parameterized configuration under --report. --verify-modes
/// proves every job that finished ok. Returns the exit status: 2 if any
/// mode is FAILED, else 1 if any job failed, else 0.
int run_jobs(const std::vector<Input>& inputs,
             const core::FlowOptions& options, int seeds,
             const core::BatchOptions& batch_options, bool report,
             bool report_full, bool verify_modes,
             const verify::VerifyOptions& vopt) {
  std::vector<core::BatchJob> jobs;
  for (const Input& input : inputs) {
    for (auto& job : core::seed_sweep(input.name, input.modes, options, seeds)) {
      jobs.push_back(std::move(job));
    }
  }
  core::BatchDriver driver(batch_options);
  const auto results = driver.run(jobs);

  int name_width = 3;
  for (const auto& result : results) {
    name_width = std::max(name_width, static_cast<int>(result.name.size()));
  }
  std::printf("\n%-*s | %-9s | %-5s | %-12s | %-12s | %-12s | %-10s | %s\n",
              name_width, "job", "status", "W", "DCS bits", "speed-up",
              "wires vs MDR", "CP vs MDR", "wall ms");
  std::printf("%s-+-----------+-------+--------------+--------------+"
              "--------------+------------+--------\n",
              std::string(static_cast<std::size_t>(name_width), '-').c_str());
  bool any_failed = false;
  // Best ok job per input, by DCS reconfiguration cost (first on ties).
  std::vector<const core::BatchResult*> best(inputs.size(), nullptr);
  std::vector<std::uint64_t> best_bits(inputs.size(), 0);
  for (std::size_t j = 0; j < results.size(); ++j) {
    const core::BatchResult& result = results[j];
    const std::size_t input = j / static_cast<std::size_t>(seeds);
    if (!result.experiment) {
      any_failed = true;
      std::printf("%-*s | %-9s | %s\n", name_width, result.name.c_str(),
                  core::to_string(result.outcome.status),
                  result.outcome.error_kind.c_str());
      std::fprintf(stderr, "job %s %s: %s\n", result.name.c_str(),
                   core::to_string(result.outcome.status),
                   result.error.c_str());
      continue;
    }
    const auto metrics =
        core::reconfig_metrics(*result.experiment, options.encoding);
    const auto wl = core::wirelength_metrics(*result.experiment);
    const auto timing =
        core::timing_report(*result.experiment, *inputs[input].modes);
    std::printf(
        "%-*s | %-9s | %5d | %12llu | %11.2fx | %12.2f | %10.2f | %7.0f\n",
        name_width, result.name.c_str(),
        core::to_string(result.outcome.status),
        result.experiment->region.channel_width,
        static_cast<unsigned long long>(metrics.dcs_bits),
        metrics.dcs_speedup(), wl.mean_ratio(), timing.mean_ratio(),
        result.wall_ms);
    if (best[input] == nullptr || metrics.dcs_bits < best_bits[input]) {
      best[input] = &result;
      best_bits[input] = metrics.dcs_bits;
    }
  }

  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (best[i] == nullptr) continue;
    print_detail(*best[i], *inputs[i].modes, options);
    if (report && best[i]->experiment->tunable.has_value()) {
      tunable::ReportOptions ropt;
      ropt.parameterized_only = !report_full;
      ropt.limit = report_full ? 0 : 32;
      std::printf("\nparameterized configuration of %s:\n%s\n",
                  best[i]->name.c_str(),
                  tunable::describe(*best[i]->experiment->tunable, ropt)
                      .c_str());
    }
  }

  bool all_proven = true;
  if (verify_modes) {
    for (std::size_t j = 0; j < results.size(); ++j) {
      if (!results[j].experiment) continue;
      all_proven =
          verify_experiment(*results[j].experiment,
                            *inputs[j / static_cast<std::size_t>(seeds)].modes,
                            vopt, results[j].name.c_str()) &&
          all_proven;
    }
  }

  std::printf("\n%zu jobs run; shared RRGs built once per width: %zu; "
              "flow-cache entries: %zu\n",
              results.size(), driver.rrgs().size(), driver.cache().size());
  if (verify_modes) {
    print_verify_stats();
    std::printf("mode equivalence gate: %s\n",
                all_proven ? "all modes PROVEN" : "FAILED");
  }
  print_cache_stats(batch_options.cache_dir);
  print_robustness_stats();
  if (!all_proven) return 2;
  return any_failed ? 1 : 0;
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
      << ", \"ok\": " << (trial.ok ? "true" : "false");
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
  if (!baseline_on_front) {
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
  std::printf("\ntrials: %zu evaluations over %d rungs (%llu failures)\n",
              result.trials.size(), result.rungs,
              static_cast<unsigned long long>(
                  perf::counter_value("tune.failures")));
  std::printf("\nPareto front (%zu points; baseline* = default knobs on the "
              "front):\n%s",
              result.front.size(),
              tune::format_front_table(result).c_str());
  print_cache_stats(tune_options.batch.cache_dir);
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
  core::BatchOptions batch;
  if (const char* dir = std::getenv("MMFLOW_CACHE_DIR")) batch.cache_dir = dir;
  bool report = false;
  bool report_full = false;
  bool verify_modes = false;
  verify::VerifyOptions verify_options;
  std::string suite;
  int limit_pairs = 0;
  bool tune_mode = false;
  bool tune_flags = false;  // any --tune-* option given
  tune::TuneOptions tune_options;
  std::string tune_json;
  std::vector<std::string> paths;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--tune-", 0) == 0) tune_flags = true;
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
        batch.jobs = parse_int(arg.substr(7), "--jobs");
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
        batch.cache_dir = arg.substr(12);
      } else if (arg.rfind("--job-timeout-ms=", 0) == 0) {
        batch.job_timeout_ms = parse_int(arg.substr(17), "--job-timeout-ms");
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
  if (!suite.empty() ? !paths.empty() : paths.size() < 2) {
    usage(argv[0]);
    return 1;
  }
  if (tune_mode && (verify_modes || seeds > 1 || report)) {
    std::fprintf(stderr,
                 "error: --tune is incompatible with "
                 "--verify-modes/--seeds/--report\n");
    return 1;
  }
  if (tune_flags && !tune_mode) {
    std::fprintf(stderr, "error: --tune-* options require --tune\n");
    return 1;
  }

  try {
    std::vector<Input> inputs;
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
          inputs.push_back(Input{
              suite_name + "/" + bench.name,
              std::make_shared<const std::vector<techmap::LutCircuit>>(
                  std::move(bench.modes))});
        }
      }
    } else {
      // Front end: BLIF -> synthesis -> mapping, per mode.
      auto modes = apps::mcnc::load_blif_modes(paths, k);
      for (std::size_t m = 0; m < modes.size(); ++m) {
        std::printf("mode %zu (%s): %zu LUTs, %zu FFs, %zu PIs, %zu POs\n", m,
                    paths[m].c_str(), modes[m].num_blocks(), modes[m].num_ffs(),
                    modes[m].num_pis(), modes[m].num_pos());
      }
      inputs.push_back(Input{
          "blif", std::make_shared<const std::vector<techmap::LutCircuit>>(
                      std::move(modes))});
    }

    if (tune_mode) {
      tune_options.base = options;
      tune_options.batch = batch;
      return run_tune(inputs, tune_options, tune_json);
    }
    return run_jobs(inputs, options, seeds, batch, report, report_full,
                    verify_modes, verify_options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
