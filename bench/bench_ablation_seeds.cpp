/// \file bench_ablation_seeds.cpp
/// Ablation: sensitivity of the headline result to the annealing seed.
/// Simulated annealing is stochastic; the paper reports averages with error
/// bars over circuits but a reproduction should also show that per-circuit
/// numbers are stable across seeds.
///
/// Runs as a *batch*: the seeds are expanded with core::seed_sweep and
/// executed by the bench driver (MMFLOW_JOBS worker threads, default 1),
/// sharing one RRG per probed width across all seeds. Per-seed results are
/// bit-identical to sequential runs (the batch determinism contract), and
/// each seed's QoR streams into the JSON report as its own row together
/// with the cache counters — this is the CI batch smoke bench.
///
/// It is also the CI *chaos* smoke vehicle: rerun on a warm MMFLOW_CACHE_DIR
/// with corrupted entries, a bad store read is a counted miss that
/// recomputes, and the QoR rows must be bit-identical to the clean run
/// (docs/ROBUSTNESS.md) — only the `outcome_ok` field and wall time may
/// differ.

#include "bench_common.h"

using namespace mmflow;

int main() {
  set_log_level(LogLevel::Silent);
  auto config = bench::BenchConfig::from_env();
  bench::print_header("Ablation: seed sensitivity of the DCS speed-up", config);

  auto suite_config = config;
  suite_config.pairs = 1;  // one circuit, several seeds
  const auto benches = bench::build_suite("RegExp", suite_config);
  const auto& b = benches.front();

  constexpr int kNumSeeds = 5;
  // The per-seed outcome and wall time go into the rows, so this bench reads
  // the BatchResults itself rather than going through run_jobs.
  core::BatchDriver& driver = bench::driver(config);
  const auto jobs = core::seed_sweep(
      b.name,
      std::make_shared<const std::vector<techmap::LutCircuit>>(b.modes),
      config.flow_options(core::CombinedCost::WireLength), kNumSeeds);
  const auto results = driver.run(jobs);

  std::printf("circuit %s, DCS-WireLength, %d seeds, %d worker(s):\n\n",
              b.name.c_str(), kNumSeeds, config.batch.jobs);
  std::printf("%-6s | %-9s | %-12s | %-10s\n", "seed", "speed-up",
              "wires vs MDR", "merged conns");
  std::printf("-------+-----------+--------------+-------------\n");
  Summary speedups;
  std::vector<bench::JsonRow> rows;
  for (const auto& result : results) {
    if (!result.experiment) {
      std::fprintf(stderr, "job %s %s: %s\n", result.name.c_str(),
                   core::to_string(result.outcome.status),
                   result.error.c_str());
      return 1;
    }
    const auto record = bench::make_record(result.name, *result.experiment);
    speedups.add(record.reconfig.dcs_speedup());
    std::printf("%-6llu | %8.2fx | %11.0f%% | %5zu/%zu\n",
                static_cast<unsigned long long>(result.seed),
                record.reconfig.dcs_speedup(),
                100.0 * record.wirelength.mean_ratio(), record.merged,
                record.total_conns);

    bench::JsonRow row;
    row.name = result.name;
    row.fields = {
        {"seed", static_cast<double>(result.seed)},
        {"dcs_speedup", record.reconfig.dcs_speedup()},
        {"wires_ratio_mean", record.wirelength.mean_ratio()},
        {"merged_conns", static_cast<double>(record.merged)},
        {"total_conns", static_cast<double>(record.total_conns)},
        {"channel_width", static_cast<double>(record.channel_width)},
        {"wall_ms", result.wall_ms},
        // Fault-tolerance field (docs/ROBUSTNESS.md): on a corrupted store
        // the chaos smoke asserts it stays 1 and the QoR fields above stay
        // bit-identical.
        {"outcome_ok", result.outcome.status == core::JobStatus::Ok ? 1.0 : 0.0},
    };
    rows.push_back(std::move(row));
  }
  std::printf("\nspread: %s (stddev %.2f)\n",
              bench::summary_str(speedups).c_str(), speedups.stddev());
  std::printf("shared RRGs built: %zu (rrgcache hits: %llu)\n",
              driver.rrgs().size(),
              static_cast<unsigned long long>(
                  perf::counter_value("rrgcache.hits")));
  return bench::write_rows_json("bench_ablation_seeds", rows);
}
