#include "core/batch.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

#include "common/check.h"
#include "common/perf.h"
#include "core/artifact_store.h"

namespace mmflow::core {

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::Ok: return "ok";
    case JobStatus::Failed: return "failed";
    case JobStatus::TimedOut: return "timed_out";
    case JobStatus::Cancelled: return "cancelled";
  }
  return "unknown";
}

namespace {

/// Maps a job's exception to the JobOutcome::error_kind vocabulary.
/// Order matters only for documentation; the types are disjoint.
const char* classify_error(const std::exception& e) {
  if (dynamic_cast<const CancelledError*>(&e) != nullptr) return "cancelled";
  if (dynamic_cast<const TimeoutError*>(&e) != nullptr) return "timeout";
  if (dynamic_cast<const ParseError*>(&e) != nullptr) return "parse";
  if (dynamic_cast<const PreconditionError*>(&e) != nullptr) {
    return "precondition";
  }
  if (dynamic_cast<const InternalError*>(&e) != nullptr) return "internal";
  return "runtime";
}

/// Worker threads for a `BatchOptions::jobs` value: values >= 1 pass
/// through, 0 means one per hardware thread, at least 1.
std::size_t resolve_jobs(int jobs) {
  if (jobs >= 1) return static_cast<std::size_t>(jobs);
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

std::vector<BatchJob> seed_sweep(
    const std::string& name,
    std::shared_ptr<const std::vector<techmap::LutCircuit>> modes,
    const FlowOptions& base, int num_seeds) {
  MMFLOW_REQUIRE(modes != nullptr && num_seeds >= 1);
  std::vector<BatchJob> jobs;
  jobs.reserve(static_cast<std::size_t>(num_seeds));
  for (int s = 0; s < num_seeds; ++s) {
    BatchJob job;
    job.options = base;
    job.options.seed = base.seed + static_cast<std::uint64_t>(s);
    job.name = name + "/seed" + std::to_string(job.options.seed);
    job.modes = modes;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchJob> engine_sweep(
    const std::string& name,
    std::shared_ptr<const std::vector<techmap::LutCircuit>> modes,
    const FlowOptions& base) {
  MMFLOW_REQUIRE(modes != nullptr);
  std::vector<BatchJob> jobs;
  for (const CombinedCost engine :
       {CombinedCost::EdgeMatch, CombinedCost::WireLength}) {
    BatchJob job;
    job.options = base;
    job.options.cost_engine = engine;
    job.name = name + (engine == CombinedCost::EdgeMatch ? "/edgematch"
                                                         : "/wirelength");
    job.modes = modes;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::vector<BatchJob> config_sweep(
    const std::string& name,
    std::shared_ptr<const std::vector<techmap::LutCircuit>> modes,
    const std::vector<FlowOptions>& configs,
    const std::vector<std::string>& labels) {
  MMFLOW_REQUIRE(modes != nullptr);
  MMFLOW_REQUIRE_MSG(labels.empty() || labels.size() == configs.size(),
                     "config_sweep: " << labels.size() << " labels for "
                                      << configs.size() << " configs");
  std::vector<BatchJob> jobs;
  jobs.reserve(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    BatchJob job;
    job.options = configs[i];
    job.name = name + "/" +
               (labels.empty() ? "cfg" + std::to_string(i) : labels[i]);
    job.modes = modes;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

BatchDriver::BatchDriver(const BatchOptions& options) : options_(options) {
  MMFLOW_REQUIRE_MSG(options_.jobs >= 0,
                     "BatchOptions::jobs must be >= 0 (0 = one per hardware "
                     "thread), got " << options_.jobs);
  MMFLOW_REQUIRE_MSG(options_.job_timeout_ms >= 0,
                     "BatchOptions::job_timeout_ms must be >= 0 (0 = none), "
                     "got " << options_.job_timeout_ms);
  if (options_.use_cache && !options_.cache_dir.empty()) {
    cache_.attach_store(std::make_shared<ArtifactStore>(options_.cache_dir));
  }
}

FlowContext BatchDriver::context() {
  FlowContext ctx;
  if (options_.use_cache) ctx.cache = &cache_;
  ctx.rrgs = &rrgs_;
  return ctx;
}

std::vector<BatchResult> BatchDriver::run(const std::vector<BatchJob>& jobs) {
  MMFLOW_PERF_SCOPE("batch.run");
  MMFLOW_PERF_ADD("batch.jobs", jobs.size());

  std::vector<BatchResult> results(jobs.size());
  if (jobs.empty()) return results;

  const FlowContext ctx = context();
  // Runs one job into its own result slot. Captures every exception, so
  // nothing ever propagates out of a worker thread.
  auto run_job = [&](std::size_t index) {
    const BatchJob& job = jobs[index];
    BatchResult& out = results[index];
    out.name = job.name;
    out.seed = job.options.seed;
    out.engine = job.options.cost_engine;
    const auto start = std::chrono::steady_clock::now();

    try {
      MMFLOW_REQUIRE_MSG(job.modes != nullptr,
                         "batch job '" << job.name << "' has no modes");
      // Per-job deadline token, chained to the batch-wide cancel: one
      // cancel() stops every job; a deadline trips only this job.
      CancelToken token(options_.cancel);
      if (options_.job_timeout_ms > 0) {
        token.set_timeout(std::chrono::milliseconds(options_.job_timeout_ms));
      }
      FlowOptions opts = job.options;
      opts.cancel = &token;
      // Zero-copy: the result *is* the cache's immutable entry.
      out.experiment = run_experiment_shared(*job.modes, opts, ctx);
    } catch (const std::exception& e) {
      out.error = e.what();
      out.outcome.error_kind = classify_error(e);
      MMFLOW_PERF_ADD("batch.job_failures", 1);
      if (out.outcome.error_kind == "cancelled") {
        out.outcome.status = JobStatus::Cancelled;
        MMFLOW_PERF_ADD("batch.cancelled", 1);
      } else if (out.outcome.error_kind == "timeout") {
        out.outcome.status = JobStatus::TimedOut;
        MMFLOW_PERF_ADD("batch.timeouts", 1);
      } else {
        out.outcome.status = JobStatus::Failed;
      }
    }
    out.wall_ms = std::chrono::duration_cast<
                      std::chrono::duration<double, std::milli>>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  };

  // Workers pull job indices from one atomic cursor, in submission order,
  // and write only their own result slot — the deterministic merge: the
  // output order and every result bit are independent of scheduling.
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&] {
    for (std::size_t i = cursor++; i < jobs.size(); i = cursor++) run_job(i);
  };
  {
    // jthreads join on destruction, so if starting a later thread throws,
    // the ones already started are still joined during the unwind.
    const std::size_t workers =
        std::min(resolve_jobs(options_.jobs), jobs.size());
    std::vector<std::jthread> threads;
    threads.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) threads.emplace_back(drain);
  }
  return results;
}

}  // namespace mmflow::core
