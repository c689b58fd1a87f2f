#include "tune/tuner.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/check.h"
#include "common/log.h"
#include "common/perf.h"
#include "common/strings.h"
#include "core/metrics.h"
#include "core/timing.h"
#include "tune/sampler.h"

namespace mmflow::tune {

namespace {

constexpr const char* kObjectiveNames[] = {"wirelength", "critical_path",
                                           "frames"};

/// Mean over a non-empty vector (per-mode critical paths, per-benchmark
/// aggregates) — summed in index order, so the result is bit-stable.
double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// The selected objective vector of one benchmark's experiment.
std::vector<double> experiment_objectives(
    const core::MultiModeExperiment& experiment,
    const std::vector<techmap::LutCircuit>& modes,
    const core::FlowOptions& options, const ObjectiveSet& objectives) {
  std::vector<double> out;
  out.reserve(objectives.size());
  for (const std::string& name : objectives.names) {
    if (name == "wirelength") {
      out.push_back(core::wirelength_metrics(experiment).mean_ratio());
    } else if (name == "critical_path") {
      out.push_back(
          mean(core::timing_report(experiment, modes).dcs_critical_path));
    } else {  // "frames" — ObjectiveSet::parse admits nothing else
      out.push_back(static_cast<double>(
          core::reconfig_metrics(experiment, options.encoding).dcs_bits));
    }
  }
  return out;
}

/// Non-dominated rank of every point (rank 0 = the front, rank 1 = the
/// front once rank 0 is removed, ...). O(n^2 * fronts) peeling — cohorts
/// are at most `budget` points, so exactness beats asymptotics here.
std::vector<int> nondominated_ranks(
    const std::vector<std::vector<double>>& points) {
  std::vector<int> rank(points.size(), -1);
  std::size_t assigned = 0;
  int level = 0;
  while (assigned < points.size()) {
    std::vector<std::size_t> peel;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (rank[i] != -1) continue;
      bool dominated = false;
      for (std::size_t j = 0; j < points.size(); ++j) {
        if (j == i || rank[j] != -1) continue;
        if (dominates(points[j], points[i])) {
          dominated = true;
          break;
        }
      }
      if (!dominated) peel.push_back(i);
    }
    // A strict partial order always has a non-empty set of minimal
    // elements, so every pass assigns at least one point.
    MMFLOW_CHECK(!peel.empty());
    for (const std::size_t i : peel) rank[i] = level;
    assigned += peel.size();
    ++level;
  }
  return rank;
}

/// Per-rung counter, e.g. "tune.rung2.trials". Dynamic name, so it goes
/// through the registry directly instead of MMFLOW_PERF_ADD's cached-static
/// fast path — rung boundaries are cold.
void rung_counter_add(int rung, const char* what, std::uint64_t delta) {
  perf::counter("tune.rung" + std::to_string(rung) + "." + what)
      .fetch_add(delta, std::memory_order_relaxed);
}

int num_rungs(int budget) {
  int rungs = 1;
  while ((budget >>= 1) != 0) ++rungs;
  return rungs;
}

}  // namespace

ObjectiveSet ObjectiveSet::defaults() {
  ObjectiveSet set;
  for (const char* name : kObjectiveNames) set.names.emplace_back(name);
  return set;
}

ObjectiveSet ObjectiveSet::parse(std::string_view spec,
                                 std::string_view what) {
  ObjectiveSet set;
  for (const std::string& raw : split_char(spec, ',')) {
    const std::string name{trim(raw)};
    if (name.empty()) continue;  // tolerate stray commas, like knob specs
    if (name == "walltime") {
      throw PreconditionError(
          std::string(what) +
          ": 'walltime' is reported for every trial but cannot be a "
          "dominance objective (it is the one non-deterministic "
          "measurement); choose among wirelength, critical_path, frames");
    }
    const bool known =
        std::find_if(std::begin(kObjectiveNames), std::end(kObjectiveNames),
                     [&name](const char* n) { return name == n; }) !=
        std::end(kObjectiveNames);
    if (!known) {
      throw PreconditionError(std::string(what) + ": unknown objective '" +
                              name +
                              "' (known: wirelength, critical_path, frames)");
    }
    if (std::find(set.names.begin(), set.names.end(), name) !=
        set.names.end()) {
      throw PreconditionError(std::string(what) + ": duplicate objective '" +
                              name + "'");
    }
    set.names.push_back(name);
  }
  if (set.names.empty()) {
    throw PreconditionError(std::string(what) + ": no objectives in spec");
  }
  return set;
}

TuneResult tune(const std::vector<TuneBenchmark>& benchmarks,
                const TuneOptions& options) {
  MMFLOW_PERF_SCOPE("tune.total");
  MMFLOW_REQUIRE_MSG(!benchmarks.empty(), "tune: no benchmarks");
  for (const TuneBenchmark& bench : benchmarks) {
    MMFLOW_REQUIRE_MSG(bench.modes != nullptr && !bench.modes->empty(),
                       "tune: benchmark '" << bench.name << "' has no modes");
  }
  MMFLOW_REQUIRE_MSG(options.budget >= 1,
                     "tune: budget " << options.budget << " < 1");

  TuneResult result;
  const ObjectiveSet objectives =
      options.objectives.names.empty() ? ObjectiveSet::defaults()
                                       : options.objectives;
  const KnobSpace space =
      options.space.size() != 0 ? options.space : KnobSpace::defaults();
  result.objective_names = objectives.names;
  for (const Knob& knob : space.knobs()) result.knob_names.push_back(knob.name);

  const std::uint64_t baseline_tag =
      static_cast<std::uint64_t>(options.budget);
  const int rungs = num_rungs(options.budget);
  result.rungs = rungs;

  const KnobSampler sampler(space.size(), options.seed);

  core::BatchDriver driver(options.batch);

  /// The concrete (unscaled) knob values of a trial; the baseline reports
  /// its own current values.
  const auto trial_values = [&](std::uint64_t trial) {
    return trial == baseline_tag
               ? space.baseline_values(options.base)
               : space.values(sampler.unit_point(trial));
  };
  /// The trial's FlowOptions at rung fidelity: knobs applied, then
  /// inner_num scaled by 1/2^(R-1-r). The baseline always runs unscaled —
  /// it is the front's full-fidelity reference point.
  const auto trial_options = [&](std::uint64_t trial, int rung) {
    core::FlowOptions flow =
        trial == baseline_tag
            ? options.base
            : space.apply(options.base, sampler.unit_point(trial));
    if (trial != baseline_tag) {
      const double fidelity = std::ldexp(1.0, -(rungs - 1 - rung));
      flow.anneal.inner_num = std::max(1.0, flow.anneal.inner_num * fidelity);
    }
    return flow;
  };

  std::vector<std::uint64_t> cohort(static_cast<std::size_t>(options.budget));
  for (std::size_t i = 0; i < cohort.size(); ++i) {
    cohort[i] = static_cast<std::uint64_t>(i);
  }

  // trial -> final-rung TuneTrial, for the front.
  std::vector<TuneTrial> final_rung;

  for (int rung = 0; rung < rungs; ++rung) {
    const bool last = rung == rungs - 1;
    // The baseline joins the final rung (not subject to halving).
    std::vector<std::uint64_t> evaluating = cohort;
    if (last) evaluating.push_back(baseline_tag);

    // One config_sweep batch per benchmark, concatenated: job order — and
    // with it the result slots — is (trial, benchmark)-lexicographic, a
    // pure function of the schedule.
    std::vector<core::BatchJob> jobs;
    for (const std::uint64_t index : evaluating) {
      std::vector<core::FlowOptions> configs{trial_options(index, rung)};
      const std::string label =
          (index == baseline_tag ? std::string("baseline")
                                 : "t" + std::to_string(index)) +
          "r" + std::to_string(rung);
      for (const TuneBenchmark& bench : benchmarks) {
        std::vector<core::BatchJob> expanded =
            core::config_sweep(bench.name, bench.modes, configs, {label});
        jobs.insert(jobs.end(), expanded.begin(), expanded.end());
      }
    }
    const std::uint64_t disk_hits_before =
        perf::counter_value("flowcache.disk_hits");
    const std::uint64_t mem_hits_before =
        perf::counter_value("flowcache.experiment_hits");
    const std::vector<core::BatchResult> batch = driver.run(jobs);
    rung_counter_add(rung, "disk_hits",
                     perf::counter_value("flowcache.disk_hits") -
                         disk_hits_before);
    rung_counter_add(rung, "mem_hits",
                     perf::counter_value("flowcache.experiment_hits") -
                         mem_hits_before);

    // Aggregate each trial's per-benchmark results (mean over benchmarks).
    std::vector<TuneTrial> rung_trials(evaluating.size());
    for (std::size_t k = 0; k < evaluating.size(); ++k) {
      TuneTrial& trial = rung_trials[k];
      trial.index = evaluating[k];
      trial.rung = rung;
      trial.knob_values = trial_values(trial.index);
      const core::FlowOptions flow = trial_options(trial.index, rung);
      bool ok = true;
      std::vector<double> sum(objectives.size(), 0.0);
      double wall_ms = 0.0;
      for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const core::BatchResult& job = batch[k * benchmarks.size() + b];
        wall_ms += job.wall_ms;
        if (job.outcome.status != core::JobStatus::Ok) {
          ok = false;
          continue;
        }
        const std::vector<double> obj = experiment_objectives(
            *job.experiment, *benchmarks[b].modes, flow, objectives);
        for (std::size_t o = 0; o < sum.size(); ++o) sum[o] += obj[o];
      }
      trial.ok = ok;
      trial.wall_ms = wall_ms;
      if (ok) {
        trial.objectives.resize(sum.size());
        for (std::size_t o = 0; o < sum.size(); ++o) {
          trial.objectives[o] =
              sum[o] / static_cast<double>(benchmarks.size());
        }
      } else {
        rung_counter_add(rung, "failures", 1);
        MMFLOW_PERF_ADD("tune.failures", 1);
      }
    }
    rung_counter_add(rung, "trials", evaluating.size());
    MMFLOW_PERF_ADD("tune.trials", evaluating.size());

    result.trials.insert(result.trials.end(), rung_trials.begin(),
                         rung_trials.end());

    if (last) {
      final_rung = rung_trials;
      break;
    }

    // Successive halving: survivors ranked by (non-dominated rank, trial
    // index); the best ceil(n/2) promote. Failed trials never promote.
    std::vector<std::size_t> ok_trials;
    std::vector<std::vector<double>> points;
    for (std::size_t i = 0; i < rung_trials.size(); ++i) {
      if (!rung_trials[i].ok) continue;
      ok_trials.push_back(i);
      points.push_back(rung_trials[i].objectives);
    }
    const std::vector<int> ranks = nondominated_ranks(points);
    std::vector<std::size_t> order(ok_trials.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (ranks[a] != ranks[b]) return ranks[a] < ranks[b];
                return rung_trials[ok_trials[a]].index <
                       rung_trials[ok_trials[b]].index;
              });
    const std::size_t keep = (cohort.size() + 1) / 2;
    std::vector<std::uint64_t> promoted;
    for (const std::size_t i : order) {
      if (promoted.size() >= keep) break;
      promoted.push_back(rung_trials[ok_trials[i]].index);
    }
    // Canonical cohort order for the next rung (schedule determinism).
    std::sort(promoted.begin(), promoted.end());
    rung_counter_add(rung, "promotions", promoted.size());
    rung_counter_add(rung, "prunes", cohort.size() - promoted.size());
    MMFLOW_PERF_ADD("tune.promotions", promoted.size());
    MMFLOW_PERF_ADD("tune.prunes", cohort.size() - promoted.size());
    cohort = std::move(promoted);
    if (cohort.empty()) {
      // Every trial of this rung failed; only the baseline remains to run.
      MMFLOW_WARN("tune: all rung-" << rung << " trials failed");
    }
  }

  // The exact front over the full-fidelity final rung plus the baseline.
  ParetoSet front(objectives.size());
  for (const TuneTrial& trial : final_rung) {
    if (trial.index == baseline_tag) result.baseline = trial;
    if (!trial.ok) continue;
    front.add(ParetoPoint{trial.objectives, trial.index});
  }
  for (const ParetoPoint& point : front.points()) {
    for (const TuneTrial& trial : final_rung) {
      if (trial.index == point.tag) {
        result.front.push_back(trial);
        break;
      }
    }
  }
  MMFLOW_PERF_ADD("tune.front_size", result.front.size());
  return result;
}

std::string format_front_table(const TuneResult& result) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> header{"trial"};
  for (const std::string& name : result.knob_names) header.push_back(name);
  for (const std::string& name : result.objective_names) {
    header.push_back(name);
  }
  header.emplace_back("wall_ms");
  rows.push_back(header);

  const auto add_row = [&rows, &result](const TuneTrial& trial,
                                        const std::string& label) {
    std::vector<std::string> row{label};
    for (const double v : trial.knob_values) row.push_back(format_double(v, 4));
    if (trial.ok) {
      for (const double v : trial.objectives) row.push_back(format_double(v, 4));
    } else {
      for (std::size_t i = 0; i < result.objective_names.size(); ++i) {
        row.emplace_back("-");
      }
    }
    row.push_back(format_double(trial.wall_ms, 1));
    rows.push_back(row);
  };
  for (const TuneTrial& trial : result.front) {
    const bool is_baseline =
        trial.index == static_cast<std::uint64_t>(result.baseline.index) &&
        trial.knob_values == result.baseline.knob_values;
    add_row(trial, is_baseline ? "baseline*" : "t" + std::to_string(trial.index));
  }
  // The baseline is always shown for reference, front member or not.
  const bool baseline_on_front =
      std::any_of(result.front.begin(), result.front.end(),
                  [&result](const TuneTrial& t) {
                    return t.index == result.baseline.index &&
                           t.knob_values == result.baseline.knob_values;
                  });
  if (!baseline_on_front) add_row(result.baseline, "baseline");

  std::vector<std::size_t> widths(header.size(), 0);
  for (const std::vector<std::string>& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  for (const std::vector<std::string>& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << "  ";
      os << std::string(widths[c] - row[c].size(), ' ') << row[c];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace mmflow::tune
