#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>

#include "apps/suites.h"
#include "core/batch.h"
#include "core/metrics.h"
#include "core/timing.h"
#include "trace.h"
#include "verify/verify.h"

namespace dcsbench {

using mmflow::core::CombinedCost;

namespace {

const char* engine_name(CombinedCost cost) {
  return cost == CombinedCost::EdgeMatch ? "edgematch" : "wirelength";
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

// Each pass must fit about twice in a 40 s run (README.md, "Scaled from the
// first prototypes"). EdgeMatch anneals at 1.5 because at 1 the width
// search overtakes EdgeMatch placement as the largest stage; the batch
// workload submits MCNC first so its longest jobs start first.
const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "wirelength_suites",
       .engines = {CombinedCost::WireLength},
       .inner_num = 5.0},
      {.name = "edgematch_suites",
       .engines = {CombinedCost::EdgeMatch},
       .inner_num = 1.5},
      {.name = "lowfi_engine_sweep",
       .engines = {CombinedCost::WireLength, CombinedCost::EdgeMatch},
       .suites = {"mcnc", "fir", "regexp"},
       .inner_num = 1.0,
       .batch_workers = 2,
       .seed_orders_jobs = true},
  };
  return specs;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

WorkloadSpec smoke_variant(WorkloadSpec spec) {
  spec.suites = {"regexp"};
  spec.inner_num = 1.0;
  return spec;
}

std::vector<Job> make_jobs(const WorkloadSpec& spec, std::uint64_t seed) {
  mmflow::apps::SuiteOptions suite_options;
  suite_options.seed = 1;
  suite_options.limit_pairs = 1;
  // splitmix64 of the seed; bit c reverses circuit c's engine order.
  std::uint64_t order_bits = seed + 0x9e3779b97f4a7c15ULL;
  order_bits = (order_bits ^ (order_bits >> 30)) * 0xbf58476d1ce4e5b9ULL;
  order_bits = (order_bits ^ (order_bits >> 27)) * 0x94d049bb133111ebULL;
  order_bits ^= order_bits >> 31;
  std::vector<Job> jobs;
  int circuit = 0;
  for (const std::string& suite : spec.suites) {
    for (auto& bench : mmflow::apps::suite_by_name(suite, suite_options)) {
      const auto modes =
          std::make_shared<const std::vector<mmflow::techmap::LutCircuit>>(
              std::move(bench.modes));
      auto engines = spec.engines;
      if (spec.seed_orders_jobs && ((order_bits >> (circuit++ % 64)) & 1) != 0) {
        std::reverse(engines.begin(), engines.end());
      }
      for (const CombinedCost engine : engines) {
        Job job;
        job.options.cost_engine = engine;
        job.options.seed = spec.seed_orders_jobs ? 1 : seed;
        job.options.anneal.inner_num = spec.inner_num;
        job.name = suite + "/" + bench.name + "/" + engine_name(engine) +
                   "/f" + std::to_string(job.options.seed);
        job.suite = suite;
        job.modes = modes;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

// ---- QoR ---------------------------------------------------------------------

double Qor::speedup() const {
  return static_cast<double>(mdr_bits) / static_cast<double>(dcs_bits);
}

std::vector<double> Qor::wires_ratios() const {
  std::vector<double> out;
  for (std::size_t m = 0; m < mdr_wires.size(); ++m) {
    out.push_back(static_cast<double>(dcs_wires[m]) /
                  static_cast<double>(mdr_wires[m]));
  }
  return out;
}

std::vector<double> Qor::cp_ratios() const {
  std::vector<double> out;
  for (std::size_t m = 0; m < mdr_cp.size(); ++m) {
    out.push_back(dcs_cp[m] / mdr_cp[m]);
  }
  return out;
}

std::string Qor::fingerprint() const {
  char buf[96];
  std::string out;
  std::snprintf(buf, sizeof buf, "W=%d;wmin=%d;merged=%zu/%zu;bits=%llu/%llu",
                channel_width, min_width, merged_conns, total_conns,
                static_cast<unsigned long long>(mdr_bits),
                static_cast<unsigned long long>(dcs_bits));
  out += buf;
  auto list = [&](const char* label, const auto& values, const char* fmt) {
    out += ';';
    out += label;
    out += '=';
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::snprintf(buf, sizeof buf, fmt, values[i]);
      if (i > 0) out += ',';
      out += buf;
    }
  };
  list("mdr_w", mdr_wires, "%zu");
  list("dcs_w", dcs_wires, "%zu");
  list("mdr_cp", mdr_cp, "%.17g");
  list("dcs_cp", dcs_cp, "%.17g");
  return out;
}

Qor evaluate(const mmflow::core::MultiModeExperiment& experiment,
             const Job& job, bool prove, Tracer* tracer, int job_id) {
  Qor qor;
  {
    const Tracer::Scope span(tracer, "metrics", job_id);
    const auto reconfig =
        mmflow::core::reconfig_metrics(experiment, job.options.encoding);
    const auto wires = mmflow::core::wirelength_metrics(experiment);
    const auto timing = mmflow::core::timing_report(experiment, *job.modes);
    qor.channel_width = experiment.region.channel_width;
    qor.min_width = experiment.min_width;
    qor.merged_conns = experiment.merged_connections;
    qor.total_conns = experiment.total_mode_connections;
    qor.mdr_bits = reconfig.mdr_bits;
    qor.dcs_bits = reconfig.dcs_bits;
    qor.mdr_wires = wires.mdr;
    qor.dcs_wires = wires.dcs;
    qor.mdr_cp = timing.mdr_critical_path;
    qor.dcs_cp = timing.dcs_critical_path;
  }
  if (prove) {
    const Tracer::Scope span(tracer, "verify", job_id);
    qor.proven = experiment.tunable.has_value() &&
                 mmflow::verify::check_modes(*experiment.tunable, *job.modes)
                     .all_proven();
  }
  return qor;
}

// ---- the timed pass ----------------------------------------------------------

JobRow row_of(const Job& job) {
  JobRow row;
  row.name = job.name;
  row.suite = job.suite;
  row.engine = job.options.cost_engine;
  return row;
}

namespace {

void prove_into(JobRow& row, const mmflow::core::MultiModeExperiment& experiment,
                const Job& job) {
  row.qor = evaluate(experiment, job, true);
  if (!row.qor.proven) row.error = "check_modes did not prove every mode";
}

PassResult serial_pass(const std::vector<Job>& jobs) {
  PassResult pass;
  mmflow::core::FlowCache cache;
  mmflow::core::RrgCache rrgs;
  const mmflow::core::FlowContext context{&cache, &rrgs};
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    const auto start = std::chrono::steady_clock::now();
    JobRow row = row_of(job);
    try {
      const auto experiment =
          mmflow::core::run_experiment_shared(*job.modes, job.options, context);
      prove_into(row, *experiment, job);
    } catch (const std::exception& e) {
      row.error = e.what();
    }
    row.wall_s = seconds_since(start);
    pass.rows.push_back(std::move(row));
  }
  return pass;
}

PassResult batch_pass(const WorkloadSpec& spec, const std::vector<Job>& jobs,
                      const std::filesystem::path& work_dir, Tracer* tracer) {
  std::vector<mmflow::core::BatchJob> batch;
  for (const Job& job : jobs) batch.push_back({job.name, job.modes, job.options});
  mmflow::core::BatchOptions options;
  options.jobs = spec.batch_workers;
  options.use_cache = true;
  std::filesystem::remove_all(work_dir);
  options.cache_dir = work_dir.string();

  PassResult pass;
  std::vector<mmflow::core::BatchResult> cold;
  {
    mmflow::core::BatchDriver driver(options);
    const std::int64_t start = tracer != nullptr ? tracer->now_ns() : 0;
    const Tracer::Scope span(tracer, "batch.run", -1);
    cold = driver.run(batch);
    if (tracer != nullptr) {
      // BatchResult carries each job's duration but not its start, so the
      // job spans are aligned to the start of the run.
      const int parent = span.id();
      for (std::size_t j = 0; j < cold.size(); ++j) {
        tracer->add("batch.job", start,
                    start + static_cast<std::int64_t>(cold[j].wall_ms * 1e6),
                    parent, static_cast<int>(j));
      }
    }
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobRow row = row_of(jobs[j]);
    row.wall_s = cold[j].wall_ms * 1e-3;
    if (cold[j].experiment == nullptr) {
      row.error = "batch job failed: " + cold[j].error;
    } else {
      try {
        prove_into(row, *cold[j].experiment, jobs[j]);
      } catch (const std::exception& e) {
        row.error = e.what();
      }
    }
    pass.rows.push_back(std::move(row));
  }

  // Warm replay: a second driver on the same store must reproduce every
  // job's QoR bit-identically from disk.
  std::vector<mmflow::core::BatchResult> warm;
  {
    const Tracer::Scope span(tracer, "artifact_store.replay", -1);
    mmflow::core::BatchDriver driver(options);
    warm = driver.run(batch);
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    JobRow& row = pass.rows[j];
    if (!row.error.empty()) continue;
    if (warm[j].experiment == nullptr) {
      row.error = "warm replay failed: " + warm[j].error;
      continue;
    }
    const Qor replayed = evaluate(*warm[j].experiment, jobs[j], false);
    if (replayed.fingerprint() != row.qor.fingerprint()) {
      row.error = "warm replay differs: " + replayed.fingerprint();
    }
  }
  std::filesystem::remove_all(work_dir);
  return pass;
}

}  // namespace

PassResult run_pass(const WorkloadSpec& spec, const std::vector<Job>& jobs,
                    const std::filesystem::path& work_dir, Tracer* tracer) {
  const double cpu_start = process_cpu_s();
  const auto start = std::chrono::steady_clock::now();
  PassResult pass = spec.batch_workers > 0
                        ? batch_pass(spec, jobs, work_dir, tracer)
                        : serial_pass(jobs);
  pass.wall_s = seconds_since(start);
  pass.cpu_s = process_cpu_s() - cpu_start;
  return pass;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return tv_s(usage.ru_utime) + tv_s(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace dcsbench
