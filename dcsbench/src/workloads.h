#pragma once
/// \file workloads.h
/// The benchmark's three workloads, their set-up (suite generation through
/// `apps::suite_by_name`), the timed pass that drives every job through the
/// flow's public API, and the per-job QoR that correctness is judged on.

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/flows.h"
#include "techmap/lutcircuit.h"

namespace dcsbench {

class Tracer;

/// One named workload. `batch_workers == 0` runs the jobs serially through
/// `core::run_experiment_shared` on one shared FlowContext; otherwise they go
/// through `core::BatchDriver` with that many workers, a FlowCache and a
/// fresh ArtifactStore, followed by a warm replay on a second driver.
struct WorkloadSpec {
  std::string name;
  std::vector<mmflow::core::CombinedCost> engines;
  /// The first pair of each of these suites, in submission order.
  std::vector<std::string> suites = {"regexp", "fir", "mcnc"};
  double inner_num = 5.0;  ///< annealing effort (VPR inner_num)
  int batch_workers = 0;
  /// The workload seed orders each circuit's engine jobs, i.e. decides
  /// which job pays the shared MDR and probe cache misses, and the flow
  /// seed is 1. Otherwise the workload seed is the flow seed.
  bool seed_orders_jobs = false;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// Null when no workload has that name.
[[nodiscard]] const WorkloadSpec* find_workload(const std::string& name);
/// The seconds-long smoke variant: the first RegExp pair, low effort.
[[nodiscard]] WorkloadSpec smoke_variant(WorkloadSpec spec);

struct Job {
  std::string name;   ///< "<suite>/<pair>/<engine>/f<flow seed>"
  std::string suite;  ///< "regexp", "fir" or "mcnc"
  std::shared_ptr<const std::vector<mmflow::techmap::LutCircuit>> modes;
  mmflow::core::FlowOptions options;
};

/// Set-up: generates and tech-maps the suites (suite seed 1) and expands
/// them into the workload's jobs. Deterministic in (spec, seed).
[[nodiscard]] std::vector<Job> make_jobs(const WorkloadSpec& spec,
                                         std::uint64_t seed);

/// Deterministic QoR of one job (everything but `proven` is pinned).
struct Qor {
  int channel_width = 0;
  int min_width = 0;
  std::size_t merged_conns = 0;
  std::size_t total_conns = 0;
  std::uint64_t mdr_bits = 0;
  std::uint64_t dcs_bits = 0;
  std::vector<std::size_t> mdr_wires;
  std::vector<std::size_t> dcs_wires;
  std::vector<double> mdr_cp;
  std::vector<double> dcs_cp;
  bool proven = false;

  [[nodiscard]] double speedup() const;
  [[nodiscard]] std::vector<double> wires_ratios() const;
  [[nodiscard]] std::vector<double> cp_ratios() const;
  /// Exact text form of every deterministic field (doubles round-trip).
  [[nodiscard]] std::string fingerprint() const;
};

/// Metrics (`core::reconfig_metrics`, `wirelength_metrics`, `timing_report`)
/// and, with `prove`, the `verify::check_modes` proof of the DCS result.
/// Spans `metrics` and `verify` go to `tracer` when it is non-null.
[[nodiscard]] Qor evaluate(const mmflow::core::MultiModeExperiment& experiment,
                           const Job& job, bool prove, Tracer* tracer = nullptr,
                           int job_id = -1);

/// Outcome of one job in one pass. `error` is empty iff the job succeeded
/// (flow completed, every mode proven, warm replay identical).
struct JobRow {
  std::string name;
  std::string suite;
  mmflow::core::CombinedCost engine = mmflow::core::CombinedCost::WireLength;
  double wall_s = 0.0;
  Qor qor;
  std::string error;
};

/// An empty row for `job`.
[[nodiscard]] JobRow row_of(const Job& job);

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<JobRow> rows;
};

/// One timed pass over every job, from fresh caches (and, for batch
/// workloads, a fresh store under `work_dir`). A tracer records spans
/// around the batch run, each batch job and the warm replay of a batch
/// workload.
[[nodiscard]] PassResult run_pass(const WorkloadSpec& spec,
                                  const std::vector<Job>& jobs,
                                  const std::filesystem::path& work_dir,
                                  Tracer* tracer = nullptr);

/// Process CPU time (user + sys, all threads) in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set size of the process in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace dcsbench
