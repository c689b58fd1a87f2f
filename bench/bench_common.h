#pragma once
/// \file bench_common.h
/// Shared harness for the experiment-reproduction benches. Every bench
/// prints the paper's reported values next to the measured ones.
///
/// Every experiment a bench runs is a `core::BatchJob` submitted through
/// `run_jobs` (or `run_one`, a one-job call of it) to one process-wide
/// `core::BatchDriver`. Its flow cache and per-width routing graphs are
/// shared by every job, so a bench that compares cost engines on the same
/// circuit re-uses the engine-independent MDR placements/routes instead of
/// recomputing them — results are bit-identical either way (see the
/// determinism contract in src/core/flows.h). Cache hit/miss counters land
/// in each bench's JSON report next to the QoR rows (`write_rows_json`).
///
/// `BenchConfig::from_env` reads the MMFLOW_* environment knobs; their
/// table is in bench/README.md.
///
/// Numeric knobs are parsed with the checked parsers of common/strings.h: a
/// malformed value (e.g. MMFLOW_JOBS=abc, which std::atoi would silently
/// read as 0 workers) prints the offending knob and exits instead of
/// running with a garbage configuration. A well-formed value the library
/// rejects (e.g. MMFLOW_JOBS=-2) exits the same way (`knob_or_exit`).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/suites.h"
#include "common/log.h"
#include "common/perf.h"
#include "common/stats.h"
#include "core/batch.h"
#include "core/flows.h"
#include "common/strings.h"
#include "core/metrics.h"
#include "core/timing.h"

namespace mmflow::bench {

/// Checked environment knob reads: a malformed value names the knob on
/// stderr and exits with status 2 (exit, not throw — every bench main
/// would otherwise need its own try/catch just to report a typo in an env
/// var). `parse` is one of the common/strings.h checked parsers.
template <typename T, typename Parse>
T env_knob(const char* name, T fallback, const Parse& parse) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  try {
    return parse(value, name);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

inline int env_int(const char* name, int fallback) {
  return env_knob(name, fallback, parse_int);
}

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  return env_knob(name, fallback, parse_u64);
}

inline double env_double(const char* name, double fallback) {
  return env_knob(name, fallback, parse_double);
}

/// Runs `make`, which applies knob values to a library call; a
/// PreconditionError (the library's own rule for those values) is reported
/// like a malformed knob: `knobs` named on stderr, exit status 2.
template <typename Make>
auto knob_or_exit(const std::string& knobs, const Make& make) {
  try {
    return make();
  } catch (const PreconditionError& e) {
    std::fprintf(stderr, "error: %s: %s\n", knobs.c_str(), e.what());
    std::exit(2);
  }
}

/// Registers the fault-tolerance counters up front so every bench JSON
/// carries the same perf keys whether or not a failure ever happened — the
/// chaos smoke diffs a clean run against one on a corrupted store and needs
/// stable schemas.
inline void register_robustness_counters() {
  for (const char* name :
       {"batch.timeouts", "batch.cancelled", "flowcache.disk_invalid",
        "flowcache.disk_write_errors"}) {
    perf::counter(name);
  }
}

struct BenchConfig {
  int pairs = 3;
  double inner_num = 5.0;
  std::uint64_t seed = 1;
  double timing_tradeoff = 0.0;
  /// How the bench driver runs jobs: MMFLOW_JOBS, MMFLOW_CACHE_DIR and
  /// MMFLOW_JOB_TIMEOUT_MS.
  core::BatchOptions batch;

  [[nodiscard]] static BenchConfig from_env() {
    BenchConfig config;
    config.pairs = env_int("MMFLOW_PAIRS", config.pairs);
    config.inner_num = env_double("MMFLOW_INNER", config.inner_num);
    config.seed = env_u64("MMFLOW_SEED", config.seed);
    config.timing_tradeoff =
        env_double("MMFLOW_TRADEOFF", config.timing_tradeoff);
    config.batch.jobs = env_int("MMFLOW_JOBS", config.batch.jobs);
    if (const char* dir = std::getenv("MMFLOW_CACHE_DIR")) {
      config.batch.cache_dir = dir;
    }
    config.batch.job_timeout_ms =
        env_int("MMFLOW_JOB_TIMEOUT_MS", config.batch.job_timeout_ms);
    register_robustness_counters();
    return config;
  }

  [[nodiscard]] apps::SuiteOptions suite_options() const {
    apps::SuiteOptions options;
    options.seed = seed;
    options.limit_pairs = pairs;
    return options;
  }

  [[nodiscard]] core::FlowOptions flow_options(core::CombinedCost cost) const {
    return flow_options(cost, timing_tradeoff);
  }

  /// Flow options at an explicit timing tradeoff (the timing-ablation bench
  /// sweeps λ per run instead of reading one value from the environment).
  [[nodiscard]] core::FlowOptions flow_options(core::CombinedCost cost,
                                               double tradeoff) const {
    core::FlowOptions options;
    options.cost_engine = cost;
    options.seed = seed;
    options.anneal.inner_num = inner_num;
    options.timing_tradeoff = tradeoff;
    return options;
  }
};

/// The one driver every job of a bench binary runs on, built from the first
/// caller's `config.batch`. Engine comparisons and repeated configurations
/// then hit its flow cache, and per-width routing graphs are built once.
/// With MMFLOW_CACHE_DIR set the cache persists to a core::ArtifactStore — a
/// rerun in a fresh process replays the cached experiments as disk hits
/// with bit-identical QoR (the CI persistent-cache smoke asserts this).
inline core::BatchDriver& driver(const BenchConfig& config) {
  static core::BatchDriver instance =
      knob_or_exit("MMFLOW_JOBS=" + std::to_string(config.batch.jobs) +
                       ", MMFLOW_JOB_TIMEOUT_MS=" +
                       std::to_string(config.batch.job_timeout_ms),
                   [&] { return core::BatchDriver(config.batch); });
  return instance;
}

/// Runs `jobs` on the bench driver and returns their experiments in
/// submission order. A failed job is fatal: it is named on stderr and the
/// bench exits 1.
inline std::vector<std::shared_ptr<const core::MultiModeExperiment>> run_jobs(
    const BenchConfig& config, const std::vector<core::BatchJob>& jobs) {
  std::vector<std::shared_ptr<const core::MultiModeExperiment>> experiments;
  for (const core::BatchResult& result : driver(config).run(jobs)) {
    if (result.experiment == nullptr) {
      std::fprintf(stderr, "error: job %s %s: %s\n", result.name.c_str(),
                   core::to_string(result.outcome.status),
                   result.error.c_str());
      std::exit(1);
    }
    experiments.push_back(result.experiment);
  }
  return experiments;
}

/// One experiment on the bench driver (a one-job `run_jobs`).
inline std::shared_ptr<const core::MultiModeExperiment> run_one(
    const apps::MultiModeBenchmark& bench, const core::FlowOptions& options,
    const BenchConfig& config) {
  const auto modes =
      std::make_shared<const std::vector<techmap::LutCircuit>>(bench.modes);
  return run_jobs(config, {{bench.name, modes, options}}).front();
}

/// One multi-mode circuit's results under one cost engine.
struct ExperimentRecord {
  std::string name;
  core::ReconfigMetrics reconfig;
  core::WirelengthMetrics wirelength;
  std::size_t merged = 0;
  std::size_t total_conns = 0;
  int channel_width = 0;
};

inline std::vector<apps::MultiModeBenchmark> build_suite(
    const std::string& suite, const BenchConfig& config) {
  using Builder =
      std::vector<apps::MultiModeBenchmark> (*)(const apps::SuiteOptions&);
  const Builder build = suite == "RegExp" ? apps::regexp_suite
                        : suite == "FIR"  ? apps::fir_suite
                        : suite == "MCNC" ? apps::mcnc_suite
                                          : nullptr;
  if (build == nullptr) throw PreconditionError("unknown suite " + suite);
  return knob_or_exit("MMFLOW_PAIRS=" + std::to_string(config.pairs),
                      [&] { return build(config.suite_options()); });
}

/// Extracts the bench-level record from a finished experiment.
inline ExperimentRecord make_record(
    const std::string& name, const core::MultiModeExperiment& experiment) {
  ExperimentRecord record;
  record.name = name;
  record.reconfig =
      core::reconfig_metrics(experiment, bitstream::MuxEncoding::Binary);
  record.wirelength = core::wirelength_metrics(experiment);
  record.merged = experiment.merged_connections;
  record.total_conns = experiment.total_mode_connections;
  record.channel_width = experiment.region.channel_width;
  return record;
}

/// Both cost engines on one circuit, submitted as one batch
/// (core::engine_sweep): the EdgeMatch record, then the WireLength one.
inline std::vector<ExperimentRecord> run_engines(
    const apps::MultiModeBenchmark& bench, const BenchConfig& config) {
  const auto jobs = core::engine_sweep(
      bench.name,
      std::make_shared<const std::vector<techmap::LutCircuit>>(bench.modes),
      config.flow_options(core::CombinedCost::WireLength));
  std::vector<ExperimentRecord> records;
  for (const auto& experiment : run_jobs(config, jobs)) {
    records.push_back(make_record(bench.name, *experiment));
  }
  return records;
}

inline void print_header(const char* title, const BenchConfig& config) {
  std::printf("=== %s ===\n", title);
  std::printf(
      "(pairs per suite: %d%s, anneal inner_num: %.17g, seed: %llu)\n\n",
      config.pairs == 0 ? 10 : config.pairs,
      config.pairs == 0 ? " [full paper experiment]" : "", config.inner_num,
      static_cast<unsigned long long>(config.seed));
}

/// "avg [min, max]" formatting used throughout (paper uses error bars).
inline std::string summary_str(const Summary& s, int digits = 2) {
  return format_double(s.mean(), digits) + " [" +
         format_double(s.min(), digits) + ", " + format_double(s.max(), digits) +
         "]";
}

/// One JSON result row: a label plus numeric QoR fields.
struct JsonRow {
  std::string name;
  std::vector<std::pair<std::string, double>> fields;
};

/// Appends the per-mode critical-path QoR of a timing report to a JSON row:
/// `mdr_cp_m<i>` / `dcs_cp_m<i>` per mode plus the `mdr_cp_mean`,
/// `dcs_cp_mean`, `cp_ratio_mean` and `cp_ratio_max` aggregates (see
/// bench/README.md for the schema).
inline void add_timing_fields(JsonRow& row, const core::TimingReport& report) {
  double mdr_sum = 0.0;
  double dcs_sum = 0.0;
  for (std::size_t m = 0; m < report.mdr_critical_path.size(); ++m) {
    row.fields.emplace_back("mdr_cp_m" + std::to_string(m),
                            report.mdr_critical_path[m]);
    row.fields.emplace_back("dcs_cp_m" + std::to_string(m),
                            report.dcs_critical_path[m]);
    mdr_sum += report.mdr_critical_path[m];
    dcs_sum += report.dcs_critical_path[m];
  }
  const auto num_modes =
      static_cast<double>(report.mdr_critical_path.size());
  row.fields.emplace_back("mdr_cp_mean", mdr_sum / num_modes);
  row.fields.emplace_back("dcs_cp_mean", dcs_sum / num_modes);
  row.fields.emplace_back("cp_ratio_mean", report.mean_ratio());
  row.fields.emplace_back("cp_ratio_max", report.max_ratio());
}

/// Writes the bench's machine-readable report:
///   {"bench": ..., "rows": [{"name": ..., <field>: <value>, ...}, ...],
///    "perf": {"counters": {...}, "timers_ms": {...}}}
/// Rows carry per-(circuit, engine, seed) QoR; the perf block includes the
/// flow/RRG cache hit/miss counters. Values are emitted at full double
/// round-trip precision (the QoR rows are regression guard rails; 6-digit
/// default precision would mask small drifts) and non-finite values become
/// JSON null so the file always parses. Returns a process exit code.
inline int write_rows_json(const std::string& bench_name,
                           const std::vector<JsonRow>& rows) {
  std::string path = bench_name + ".json";
  if (const char* p = std::getenv("MMFLOW_BENCH_JSON")) path = p;

  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  os.precision(std::numeric_limits<double>::max_digits10);
  auto escaped = [](const std::string& text) {
    std::string out;
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  os << "{\n  \"bench\": \"" << escaped(bench_name) << "\",\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
       << escaped(rows[i].name) << '"';
    for (const auto& [key, value] : rows[i].fields) {
      os << ", \"" << escaped(key) << "\": ";
      if (std::isfinite(value)) {
        os << value;
      } else {
        os << "null";
      }
    }
    os << '}';
  }
  os << "\n  ],\n  \"perf\": ";
  perf::Registry::instance().write_json(os, 2);
  os << "\n}\n";
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace mmflow::bench
