/// \file main.cpp
/// dcsbench: the end-to-end benchmark of the DCS flow (README.md).
///
///   dcsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///            --work-dir <dir> [--pins <file>] [--write-pins] [--smoke]
///
/// `--trace 0` repeats timed passes over the workload's jobs for about
/// `--seconds` and reports the end-to-end metrics; `--trace 1` makes one
/// untraced reference pass and one traced pass (the staged replica) and
/// reports the per-layer metrics. Either way every job's QoR is checked:
/// every DCS result proven by `verify::check_modes`, every pass identical,
/// the warm replay identical, and the QoR equal to the per-seed pin when
/// `--pins` holds one. The last stdout line is the one-line JSON result.

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/strings.h"
#include "trace.h"
#include "workloads.h"

namespace fs = std::filesystem;
using namespace dcsbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  fs::path work_dir = ".bench_build/dcsbench-work";
  fs::path pins;
  bool write_pins = false;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      args.workload = value();
    } else if (flag == "--seed") {
      args.seed = mmflow::parse_u64(value(), "--seed");
    } else if (flag == "--seconds") {
      args.seconds = mmflow::parse_double(value(), "--seconds");
    } else if (flag == "--trace") {
      args.trace = mmflow::parse_int(value(), "--trace");
    } else if (flag == "--work-dir") {
      args.work_dir = value();
    } else if (flag == "--pins") {
      args.pins = value();
    } else if (flag == "--write-pins") {
      args.write_pins = true;
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.trace != 0 && args.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (args.seed == 0) throw std::invalid_argument("--seed must be positive");
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Host-noise sentinel: a fixed integer kernel timed before and after the
/// workload (best of three, ms). Reported as information beside the
/// metrics: a slower sentinel marks a noisy host, not a slower flow.
double calibration_ms() {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    std::uint64_t x = 88172645463325252ULL;
    std::uint64_t acc = 0;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += x >> 60;
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  return best;
}

// ---- pins ----------------------------------------------------------------------

/// pins file: one `<workload>\t<seed>\t<job>\t<fingerprint>` line per job.
using PinKey = std::pair<std::string, std::uint64_t>;
using Pins = std::map<PinKey, std::map<std::string, std::string>>;

Pins read_pins(const fs::path& path) {
  Pins pins;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string workload, seed, job, fingerprint;
    if (!std::getline(fields, workload, '\t') ||
        !std::getline(fields, seed, '\t') || !std::getline(fields, job, '\t') ||
        !std::getline(fields, fingerprint)) {
      continue;
    }
    pins[{workload, mmflow::parse_u64(seed, "pin seed")}][job] = fingerprint;
  }
  return pins;
}

void write_pins(const fs::path& path, const Pins& pins) {
  std::ofstream out(path);
  for (const auto& [key, jobs] : pins) {
    for (const auto& [job, fingerprint] : jobs) {
      out << key.first << '\t' << key.second << '\t' << job << '\t'
          << fingerprint << '\n';
    }
  }
}

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
};

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

/// The QoR means over jobs (and modes) of one pass.
struct QorMeans {
  double wires_ratio = 0.0;
  double speedup = 0.0;
  double cp_ratio = 0.0;
  double channel_width = 0.0;
};

QorMeans qor_means(const std::vector<JobRow>& rows) {
  std::vector<double> wires, speedup, cp, width;
  for (const JobRow& row : rows) {
    if (!row.error.empty()) continue;
    for (const double r : row.qor.wires_ratios()) wires.push_back(r);
    for (const double r : row.qor.cp_ratios()) cp.push_back(r);
    speedup.push_back(row.qor.speedup());
    width.push_back(row.qor.channel_width);
  }
  return {mean(wires), mean(speedup), mean(cp), mean(width)};
}

void print_rows(const std::vector<JobRow>& rows) {
  std::printf("%-44s %8s %4s %7s %8s %7s  %s\n", "job", "wall_s", "W",
              "wires", "speedup", "cp", "status");
  for (const JobRow& row : rows) {
    const auto wires = row.qor.wires_ratios();
    const auto cp = row.qor.cp_ratios();
    std::printf("%-44s %8.3f %4d %7.3f %8.3f %7.3f  %s\n", row.name.c_str(),
                row.wall_s, row.qor.channel_width, mean(wires),
                row.qor.speedup(), mean(cp),
                row.error.empty() ? "ok" : row.error.c_str());
  }
}

/// Suite aggregates beside the paper's figures, so fidelity drift shows.
void print_suites(const std::vector<JobRow>& rows) {
  using mmflow::core::CombinedCost;
  for (const CombinedCost engine :
       {CombinedCost::WireLength, CombinedCost::EdgeMatch}) {
    const bool wl = engine == CombinedCost::WireLength;
    for (const char* suite : {"regexp", "fir", "mcnc", "all"}) {
      std::vector<JobRow> subset;
      for (const JobRow& row : rows) {
        if (row.engine == engine &&
            (row.suite == suite || std::string(suite) == "all")) {
          subset.push_back(row);
        }
      }
      if (subset.empty()) continue;
      const QorMeans m = qor_means(subset);
      std::printf(
          "%s %-6s: wires %+5.1f%% vs MDR (paper Fig. 7: %s), reconfig "
          "speed-up %.2fx (paper Fig. 5: 4.6-5.1x), cp ratio %.3f, W %.1f\n",
          wl ? "DCS-WireLength" : "DCS-EdgeMatch ", suite,
          100.0 * (m.wires_ratio - 1.0),
          wl ? "+24% mean, RegExp/FIR +11..35%, MCNC up to +45%"
             : "worse than WireLength, sometimes above +100%",
          m.speedup, m.cp_ratio, m.channel_width);
    }
  }
}

// ---- per-layer metrics (traced run) --------------------------------------------

struct TraceInputs {
  const Tracer* tracer = nullptr;
  Counters replica_before, replica_after;  ///< around the staged replica
  Counters pass_before, pass_after;        ///< around the traced batch pass
  double suite_s = 0.0;
  std::size_t luts = 0;
  std::size_t merged = 0, total_conns = 0;
  double overhead_frac = 0.0;
  std::vector<double> batch_job_s;
  int batch_workers = 0;
};

/// Per-layer direction: hit ratios, utilisation, acceptance and merging
/// are better higher; times, work counts and failures are better lower.
const char* layer_better(const std::string& name) {
  static const char* const kHigher[] = {
      "place.accept_ratio",         "combined_place.accept_ratio",
      "tunable.merged_conn_frac",   "flowcache.mdr_hit_ratio",
      "flowcache.probe_hit_ratio",  "flowcache.final_route_hit_ratio",
      "rrgcache.hit_ratio",         "artifact_store.disk_hits",
      "batch.worker_util"};
  for (const char* higher : kHigher) {
    if (name == higher) return "higher";
  }
  return "lower";
}

std::vector<Metric> layer_metrics(const TraceInputs& in) {
  const Tracer& tr = *in.tracer;
  auto rd = [&](const char* name) {
    return static_cast<double>(delta(in.replica_before, in.replica_after, name));
  };
  // Cache, store and batch counters come from the traced batch pass when
  // there is one (the BatchDriver's run), else from the serial replica.
  const bool batch = in.batch_workers > 0;
  auto pd = [&](const char* name) {
    return batch
               ? static_cast<double>(delta(in.pass_before, in.pass_after, name))
               : rd(name);
  };
  auto hit_ratio = [&](const char* hits, const char* misses) {
    return ratio(pd(hits), pd(hits) + pd(misses));
  };

  const auto self = tr.self_ns();
  double unattributed = 0.0;
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    if (tr.spans()[i].name == "job") {
      unattributed += static_cast<double>(self[i]) * 1e-9;
    }
  }
  const double probe_pass_s = tr.total_s("route.probe_pass");
  const double probe_fail_s = tr.total_s("route.probe_fail");
  double probes = 0.0, probes_failed = 0.0;
  for (const auto& span : tr.spans()) {
    if (span.name == "route.probe_pass") probes += 1.0;
    if (span.name == "route.probe_fail") probes += 1.0, probes_failed += 1.0;
  }
  const double cp_s = tr.total_s("combined_place.wirelength") +
                      tr.total_s("combined_place.edgematch");
  const double place_moves = rd("place.moves_proposed");
  const double cp_moves = rd("combined_place.moves_proposed");
  const double route_calls = rd("route.calls");
  const double heap_pops = rd("route.heap_pops");
  const double batch_run_s = tr.total_s("batch.run");
  double job_sum = 0.0, job_max = 0.0;
  for (const double s : in.batch_job_s) {
    job_sum += s;
    job_max = std::max(job_max, s);
  }

  std::vector<Metric> out = {
      {"apps.suite_s", in.suite_s, "s", ""},
      {"techmap.luts", static_cast<double>(in.luts), "count", ""},
      {"arch.rrg_build_s", tr.total_s("arch.rrg"), "s", ""},
      {"arch.rrg_builds", rd("rrgcache.misses"), "count", ""},
      {"place.mdr_s", tr.total_s("place.mdr"), "s", ""},
      {"place.tplace_s", tr.total_s("place.tplace"), "s", ""},
      {"place.moves", place_moves, "count", ""},
      {"place.accept_ratio", ratio(rd("place.moves_accepted"), place_moves),
       "ratio", ""},
      {"place.net_evals_per_move", ratio(rd("place.net_evals"), place_moves),
       "ratio", ""},
      {"combined_place.wirelength_s", tr.total_s("combined_place.wirelength"),
       "s", ""},
      {"combined_place.edgematch_s", tr.total_s("combined_place.edgematch"),
       "s", ""},
      {"combined_place.moves", cp_moves, "count", ""},
      {"combined_place.accept_ratio",
       ratio(rd("combined_place.moves_accepted"), cp_moves), "ratio", ""},
      {"combined_place.site_evals_per_move",
       ratio(rd("combined_place.site_evals"), cp_moves), "ratio", ""},
      {"combined_place.ns_per_move", ratio(cp_s * 1e9, cp_moves), "ns", ""},
      {"combined_place.extract_merge_s",
       tr.total_s("combined_place.extract_merge"), "s", ""},
      {"tunable.build_s", tr.total_s("tunable.build"), "s", ""},
      {"tunable.merged_conn_frac",
       ratio(static_cast<double>(in.merged), static_cast<double>(in.total_conns)),
       "ratio", ""},
      {"route.width_search_s", tr.total_s("route.width_search"), "s", ""},
      {"route.probe_pass_s", probe_pass_s, "s", ""},
      {"route.probe_fail_s", probe_fail_s, "s", ""},
      {"route.probes", probes, "count", ""},
      {"route.probe_fail_frac", ratio(probes_failed, probes), "ratio", ""},
      {"route.final_s", tr.total_s("route.final"), "s", ""},
      {"route.calls", route_calls, "count", ""},
      {"route.iterations_per_call", ratio(rd("route.iterations"), route_calls),
       "ratio", ""},
      {"route.heap_pops", heap_pops, "count", ""},
      {"route.nodes_expanded", rd("route.nodes_expanded"), "count", ""},
      {"route.conns_routed", rd("route.conns_routed"), "count", ""},
      {"route.ns_per_heap_pop", ratio(tr.total_s("route.route") * 1e9, heap_pops),
       "ns", ""},
      {"flowcache.mdr_hit_ratio",
       hit_ratio("flowcache.mdr_hits", "flowcache.mdr_misses"), "ratio", ""},
      {"flowcache.probe_hit_ratio",
       hit_ratio("flowcache.probe_hits", "flowcache.probe_misses"), "ratio", ""},
      {"flowcache.final_route_hit_ratio",
       hit_ratio("flowcache.final_route_hits", "flowcache.final_route_misses"),
       "ratio", ""},
      {"rrgcache.hit_ratio", hit_ratio("rrgcache.hits", "rrgcache.misses"),
       "ratio", ""},
      {"artifact_store.disk_writes", pd("flowcache.disk_writes"), "count", ""},
      {"artifact_store.disk_hits", pd("flowcache.disk_hits"), "count", ""},
      {"artifact_store.disk_invalid", pd("flowcache.disk_invalid"), "count", ""},
      {"artifact_store.write_errors", pd("flowcache.disk_write_errors"), "count",
       ""},
      {"artifact_store.replay_s", tr.total_s("artifact_store.replay"), "s", ""},
      {"batch.run_s", batch_run_s, "s", ""},
      {"batch.job_s_p50", median(in.batch_job_s), "s", ""},
      {"batch.job_s_max", job_max, "s", ""},
      {"batch.worker_util",
       ratio(job_sum, static_cast<double>(in.batch_workers) * batch_run_s),
       "ratio", ""},
      {"batch.retries", pd("batch.retries"), "count", ""},
      {"batch.failures", pd("batch.job_failures"), "count", ""},
      {"metrics.s", tr.total_s("metrics"), "s", ""},
      {"verify.s", tr.total_s("verify"), "s", ""},
      {"verify.sat_calls", rd("verify.sat_calls"), "count", ""},
      {"verify.conflicts", rd("verify.conflicts"), "count", ""},
      {"flow.unattributed_s", unattributed, "s", ""},
      {"trace.overhead_frac", in.overhead_frac, "ratio", ""},
  };
  for (Metric& m : out) m.better = layer_better(m.name);
  return out;
}

/// Stage totals under the replica's job spans, largest first — what the
/// workload really stresses.
std::vector<std::pair<std::string, double>> stage_totals(const Tracer& tr) {
  std::map<std::string, double> by_stage;
  for (const auto& span : tr.spans()) {
    if (span.parent < 0) continue;
    if (tr.spans()[static_cast<std::size_t>(span.parent)].name != "job") {
      continue;
    }
    by_stage[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
  }
  std::vector<std::pair<std::string, double>> out(by_stage.begin(),
                                                  by_stage.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

void write_spans(const fs::path& path, const Tracer& tr,
                 const std::vector<Job>& jobs) {
  std::ofstream out(path);
  const auto self = tr.self_ns();
  out << "{\"spans\": [";
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const auto& s = tr.spans()[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i
        << ", \"name\": " << json_string(s.name) << ", \"start_ns\": "
        << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"self_ns\": " << self[i] << ", \"parent\": " << s.parent
        << ", \"job\": "
        << (s.job >= 0 ? json_string(jobs[static_cast<std::size_t>(s.job)].name)
                       : "null")
        << "}";
  }
  out << "\n]}\n";
}

// ---- the run -------------------------------------------------------------------

struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
};

/// Marks a job execution failed when it errored, drifted from the first
/// pass, or disagrees with its pin.
void check_rows(const std::vector<JobRow>& rows,
                const std::vector<JobRow>& first,
                const std::map<std::string, std::string>* pins,
                const char* what, Outcome& out) {
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const JobRow& row = rows[j];
    std::string problem = row.error;
    const std::string fp = row.qor.fingerprint();
    if (problem.empty() && fp != first[j].qor.fingerprint()) {
      problem = "QoR differs from the first pass";
    }
    if (problem.empty() && pins != nullptr) {
      const auto it = pins->find(row.name);
      if (it == pins->end()) {
        problem = "no pin for this job";
      } else if (it->second != fp) {
        problem = "QoR differs from pin (got " + fp + ")";
      }
    }
    ++out.attempted;
    if (!problem.empty()) {
      ++out.failed;
      out.failures.push_back(std::string(what) + " " + row.name + ": " +
                             problem);
    }
  }
}

int run(const Args& args) {
  mmflow::set_log_level(mmflow::LogLevel::Silent);
  const WorkloadSpec* found = find_workload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec spec = args.smoke ? smoke_variant(*found) : *found;
  fs::create_directories(args.work_dir);
  const fs::path store_dir =
      args.work_dir / ("store-" + spec.name + "-" + std::to_string(args.seed));

  std::printf("dcsbench: workload %s, seed %llu, trace %d%s\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace, args.smoke ? " (smoke)" : "");
  const double sentinel_before = calibration_ms();

  // ---- set-up, repeated; the median is setup_s ------------------------------
  constexpr int kSetupReps = 7;
  std::vector<double> setup_times;
  std::vector<Job> jobs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    jobs = make_jobs(spec, args.seed);
    setup_times.push_back(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count());
  }
  const double setup_s = median(setup_times);

  Pins pins;
  if (!args.pins.empty()) pins = read_pins(args.pins);
  // Jobs whose inputs do not depend on the seed share one pin set.
  const PinKey pin_key{spec.name, spec.seed_orders_jobs ? 1 : args.seed};
  const bool pinned = !args.smoke && !args.write_pins && pins.count(pin_key) > 0;
  const auto* job_pins = pinned ? &pins.at(pin_key) : nullptr;
  std::printf("jobs: %zu, pins: %s\n", jobs.size(),
              pinned ? "checked" : "none for this seed (proof checks only)");

  Outcome out;
  std::vector<JobRow> reference;
  if (args.trace == 0) {
    // ---- timed passes -------------------------------------------------------
    std::vector<PassResult> passes;
    const auto start = std::chrono::steady_clock::now();
    for (;;) {
      passes.push_back(run_pass(spec, jobs, store_dir));
      // Hand freed heap back before the next pass, so that every pass
      // starts from the same heap and peak_rss_mb does not depend on how
      // the previous pass's threads left their malloc arenas.
      malloc_trim(0);
      const double elapsed = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (elapsed + passes.back().wall_s > args.seconds) break;
    }
    reference = passes.front().rows;
    std::vector<double> walls, cpus;
    for (const PassResult& pass : passes) {
      check_rows(pass.rows, reference, job_pins, "pass", out);
      walls.push_back(pass.wall_s);
      cpus.push_back(pass.cpu_s);
    }
    std::printf("passes: %zu, pass wall_s:", passes.size());
    for (const double w : walls) std::printf(" %.3f", w);
    std::printf("\n");
    const QorMeans q = qor_means(reference);
    const double ok_frac =
        1.0 - ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted));
    out.metrics = {
        {"wall_s", median(walls), "s", "lower"},
        {"cpu_s", median(cpus), "s", "lower"},
        {"setup_s", setup_s, "s", "lower"},
        {"peak_rss_mb", peak_rss_mb(), "MB", "lower"},
        {"wires_ratio_mean", q.wires_ratio, "ratio", "lower"},
        {"reconfig_speedup_mean", q.speedup, "x", "higher"},
        {"cp_ratio_mean", q.cp_ratio, "ratio", "lower"},
        {"channel_width_mean", q.channel_width, "tracks", "lower"},
        {"ok_frac", ok_frac, "ratio", "higher"},
    };
  } else {
    // ---- traced run ---------------------------------------------------------
    const PassResult ref = run_pass(spec, jobs, store_dir);
    reference = ref.rows;
    check_rows(ref.rows, reference, job_pins, "reference", out);

    Tracer tracer;
    TraceInputs in;
    in.tracer = &tracer;
    in.batch_workers = spec.batch_workers;
    double traced_wall = 0.0;
    if (spec.batch_workers > 0) {
      in.pass_before = read_counters();
      const PassResult traced = run_pass(spec, jobs, store_dir, &tracer);
      in.pass_after = read_counters();
      traced_wall = traced.wall_s;
      check_rows(traced.rows, reference, job_pins, "traced", out);
      for (const auto& span : tracer.spans()) {
        if (span.name == "batch.job") {
          in.batch_job_s.push_back(
              static_cast<double>(span.end_ns - span.start_ns) * 1e-9);
        }
      }
    }
    // The staged replica, on fresh caches like a timed pass.
    mmflow::core::FlowCache cache;
    mmflow::core::RrgCache rrgs;
    const mmflow::core::FlowContext context{&cache, &rrgs};
    std::vector<JobRow> replica;
    in.replica_before = read_counters();
    const auto replica_start = std::chrono::steady_clock::now();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const int id = static_cast<int>(j);
      JobRow row = row_of(jobs[j]);
      const auto start = std::chrono::steady_clock::now();
      try {
        const Tracer::Scope span(&tracer, "job", id);
        const auto experiment =
            staged_experiment(jobs[j], context, tracer, id);
        row.qor = evaluate(*experiment, jobs[j], true, &tracer, id);
        if (!row.qor.proven) row.error = "check_modes did not prove every mode";
      } catch (const std::exception& e) {
        row.error = e.what();
      }
      row.wall_s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
      replica.push_back(std::move(row));
    }
    const double replica_wall = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    replica_start)
                                    .count();
    in.replica_after = read_counters();
    check_rows(replica, reference, job_pins, "replica", out);
    if (spec.batch_workers == 0) traced_wall = replica_wall;

    in.suite_s = setup_s;
    for (const Job& job : jobs) {
      for (const auto& mode : *job.modes) in.luts += mode.num_blocks();
    }
    for (const JobRow& row : reference) {
      in.merged += row.qor.merged_conns;
      in.total_conns += row.qor.total_conns;
    }
    in.overhead_frac = traced_wall / ref.wall_s - 1.0;
    out.metrics = layer_metrics(in);

    std::printf("staged replica vs run_experiment: %s\n",
                out.failed == 0 ? "bit-identical on every job" : "MISMATCH");
    const auto stages = stage_totals(tracer);
    std::printf("stage totals (replica, s):");
    for (const auto& [stage, s] : stages) {
      std::printf(" %s=%.3f", stage.c_str(), s);
    }
    std::printf("\nlargest stage: %s\n",
                stages.empty() ? "none" : stages.front().first.c_str());
    const fs::path spans_path =
        args.work_dir / ("spans-" + spec.name + "-seed" +
                         std::to_string(args.seed) + ".json");
    write_spans(spans_path, tracer, jobs);
    std::printf("spans: %s\n", spans_path.string().c_str());
  }
  const double sentinel_after = calibration_ms();

  print_rows(reference);
  print_suites(reference);
  for (const std::string& failure : out.failures) {
    std::printf("FAILED %s\n", failure.c_str());
  }
  std::printf("host sentinel (calibration kernel, ms): before %.2f, after %.2f\n",
              sentinel_before, sentinel_after);
  for (const Metric& m : out.metrics) {
    std::printf("metric %-36s %.6g %s better=%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better.c_str());
  }

  if (args.write_pins && !args.pins.empty() && out.failed == 0) {
    auto& entry = pins[pin_key];
    entry.clear();
    for (const JobRow& row : reference) entry[row.name] = row.qor.fingerprint();
    write_pins(args.pins, pins);
    std::printf("pinned %zu jobs for %s seed %llu\n", reference.size(),
                spec.name.c_str(), static_cast<unsigned long long>(args.seed));
  }

  std::string line = "{\"correct\": ";
  line += out.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(out.attempted);
  line += ", \"failed\": " + std::to_string(out.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    line += (i == 0 ? "" : ", ") + json_string(m.name) +
            ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcsbench: error: %s\n", e.what());
    return 2;
  }
}
