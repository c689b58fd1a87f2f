#pragma once
/// \file batch.h
/// Batched multi-seed flow driver — turns the single-experiment
/// `core::run_experiment` into a work-queue that serves many experiments at
/// once: multi-seed placement restarts and cost-engine comparisons are
/// embarrassingly parallel (ROADMAP "batched multi-seed runs"), and they
/// share most of their work, width probes included, through the flow-level
/// caches of core/flows.h.
///
/// ## Execution model
///
/// A `BatchDriver` owns one `FlowCache` + one `RrgCache`. `run()` takes an
/// ordered list of `BatchJob`s and starts `BatchOptions::jobs` plain
/// `std::thread` workers (never more than there are jobs) that pull job
/// indices from one atomic cursor in submission order; each job writes only
/// its own result slot, so the returned vector is always in submission
/// order regardless of which worker finished first — the "deterministic
/// merge". `run()` joins every worker before it returns. This is the only
/// level of parallelism in the flow: each job routes single-threaded.
///
/// ## Determinism contract
///
/// Each job's result is a pure function of (modes, options): per-seed
/// results from a parallel batch are bit-identical to running the same jobs
/// sequentially, with `jobs = 1`, or via bare `run_experiment` calls with no
/// caching at all (asserted by tests/test_batch.cpp). Scheduling can only
/// change which worker pays for a cache miss — i.e. the hit/miss perf
/// counter split and wall time, never any result bit. Exceptions thrown by
/// a job are captured into its result slot (`error` + `outcome`), not
/// propagated, so one unroutable circuit cannot tear down a sweep.
///
/// ## Fault tolerance
///
/// Each job runs exactly once: a job is a pure function of (modes,
/// options), so the artifact store heals its own failures (a bad entry is a
/// counted miss that recomputes, a failed write a counted write error) and
/// there is nothing a re-run could add. A per-job `job_timeout_ms` deadline
/// turns a wedged search into a reported `JobStatus::TimedOut` row instead
/// of a hung sweep, and a batch-wide `CancelToken` stops every in-flight
/// job at its next annealer epoch / PathFinder iteration. Both are
/// cooperative — no thread is ever killed, and a job unwinds by exception
/// *before* any cache or store write, so an aborted job leaves no partial
/// artifacts. With a `cache_dir`, a killed sweep resumes by rerunning it on
/// the same directory: the jobs the dead process finished replay from the
/// artifact store as disk hits, and only the rest are recomputed. See
/// docs/ROBUSTNESS.md.
///
/// ## Ownership & thread-safety
///
/// The driver owns its caches; results reference cache entries via
/// `shared_ptr<const MultiModeExperiment>` and stay valid after the driver
/// is destroyed. Jobs share their input circuits via
/// `shared_ptr<const vector<LutCircuit>>` — a 64-seed sweep holds one copy
/// of the netlists. `run()` may be called repeatedly (later batches reuse
/// the warm caches); concurrent `run()` calls on one driver are not
/// supported — use one driver per batch stream instead.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "core/flows.h"

namespace mmflow::core {

/// One unit of batch work: a full two-flow experiment on one (modes,
/// options) point. `modes` is shared and never mutated.
struct BatchJob {
  std::string name;  ///< diagnostic label, e.g. "regexp01/seed3"
  std::shared_ptr<const std::vector<techmap::LutCircuit>> modes;
  FlowOptions options;
};

struct BatchOptions {
  /// Worker threads; 0 = one per hardware thread (capped by the job count).
  /// The driver's constructor rejects a negative value.
  /// Jobs always share one immutable RoutingGraph per (arch, width).
  int jobs = 1;
  /// Memoize flow artifacts across jobs (see core/flows.h for granularity).
  bool use_cache = true;
  /// Non-empty: persist finished experiments across processes by attaching
  /// a `core::ArtifactStore` rooted at this directory (requires
  /// `use_cache`); the sub-experiment caches stay in memory. All workers
  /// share the one store; its commit path serializes writes, so parallel
  /// batches stay deterministic and a later batch process — or a shard on
  /// another machine sharing the directory — replays the finished jobs.
  /// See docs/CACHING.md.
  std::string cache_dir;
  /// Per-job wall-clock deadline in milliseconds; 0 = none, negative is
  /// rejected by the driver's constructor. Cooperative:
  /// the driver plants a deadline `CancelToken` in the job's FlowOptions,
  /// polled at annealer-epoch and PathFinder-iteration boundaries, so an
  /// over-deadline job unwinds cleanly (no partial cache writes) and lands
  /// as a `JobStatus::TimedOut` row without disturbing its siblings.
  int job_timeout_ms = 0;
  /// Optional batch-wide cancellation: trip it from any thread and every
  /// in-flight job unwinds at its next poll as `JobStatus::Cancelled`;
  /// queued jobs fail fast the same way. Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// Terminal state of one job.
enum class JobStatus : std::uint8_t {
  Ok,         ///< experiment produced
  Failed,     ///< the job threw a non-timeout, non-cancel error
  TimedOut,   ///< the job exceeded `job_timeout_ms`
  Cancelled,  ///< batch-wide cancel tripped during the job
};

/// Diagnostic name for table/JSON output ("ok", "failed", "timed_out",
/// "cancelled").
[[nodiscard]] const char* to_string(JobStatus status);

/// Structured account of how a job went; `BatchResult::error` carries the
/// exception message when `status != Ok`.
struct JobOutcome {
  JobStatus status = JobStatus::Ok;
  /// Classification of the error: "timeout", "cancelled", "parse",
  /// "precondition", "internal" or "runtime"; empty when the job
  /// succeeded.
  std::string error_kind;
};

/// Result slot for one job, in submission order.
struct BatchResult {
  std::string name;
  std::uint64_t seed = 0;
  CombinedCost engine = CombinedCost::WireLength;
  /// Null iff the job failed; then `error` holds the exception message.
  std::shared_ptr<const MultiModeExperiment> experiment;
  std::string error;
  JobOutcome outcome;
  double wall_ms = 0.0;
};

/// Expands one base configuration into `num_seeds` jobs with seeds
/// `base.seed, base.seed + 1, ...` — the multi-seed placement-restart sweep.
/// Names are `<name>/seed<seed>`. Pure function; thread-safe.
[[nodiscard]] std::vector<BatchJob> seed_sweep(
    const std::string& name,
    std::shared_ptr<const std::vector<techmap::LutCircuit>> modes,
    const FlowOptions& base, int num_seeds);

/// Expands one configuration into one job per cost engine (the figure
/// benches' EdgeMatch-vs-WireLength comparison). Names are `<name>/<engine>`.
/// Pure function; thread-safe.
[[nodiscard]] std::vector<BatchJob> engine_sweep(
    const std::string& name,
    std::shared_ptr<const std::vector<techmap::LutCircuit>> modes,
    const FlowOptions& base);

/// Expands an explicit list of flow configurations into one job per config —
/// the autotuner's trial-batch entry point (src/tune/): each knob-space
/// trial is one fully resolved FlowOptions, and the batch determinism
/// contract above makes the trial results independent of `jobs` and
/// scheduling. Names are `<name>/<label[i]>` when `labels` is non-empty
/// (must then match `configs` in size), else `<name>/cfg<i>`. Pure function;
/// thread-safe.
[[nodiscard]] std::vector<BatchJob> config_sweep(
    const std::string& name,
    std::shared_ptr<const std::vector<techmap::LutCircuit>> modes,
    const std::vector<FlowOptions>& configs,
    const std::vector<std::string>& labels = {});

class BatchDriver {
 public:
  explicit BatchDriver(const BatchOptions& options = {});

  /// Executes the jobs and returns their results in submission order. See
  /// the file comment for the determinism and error-capture contracts.
  /// One batch at a time per driver: not re-entrant, call from one thread.
  [[nodiscard]] std::vector<BatchResult> run(const std::vector<BatchJob>& jobs);

  /// The context handed to every job (also usable for one-off
  /// `run_experiment` calls that should share this driver's caches). The
  /// returned view is valid while the driver lives; safe to hand to
  /// concurrent flow calls (the caches are mutex-guarded).
  [[nodiscard]] FlowContext context();

  /// Direct cache access, e.g. for size/statistics reporting. The caches
  /// are themselves thread-safe; the references live as long as the driver.
  [[nodiscard]] FlowCache& cache() { return cache_; }
  [[nodiscard]] RrgCache& rrgs() { return rrgs_; }

 private:
  BatchOptions options_;
  FlowCache cache_;
  RrgCache rrgs_;
};

}  // namespace mmflow::core
