#pragma once
/// \file bench_json.h
/// Self-contained harness for the perf benches (bench_perf_route,
/// bench_perf_place). Unlike the figure-reproduction benches, these exist to
/// track the *throughput trajectory* of the hot paths, so every run emits a
/// machine-readable JSON report next to the human-readable table:
///
///   {
///     "bench": "bench_perf_route",
///     "cases": [
///       {"name": "...", "reps": 3, "wall_ms_min": ..., "wall_ms_mean": ...,
///        "qor": {...},            // quality-of-result; must be identical
///                                 // across reps and across perf-only changes
///        "perf": {"counters": {...}, "timers_ms": {...}}}
///     ]
///   }
///
/// QoR fields (route iterations, wirelength, final placement cost, ...) are
/// the guard rail: a perf PR must leave them bit-identical for a fixed seed
/// while wall_ms_min drops. The perf-counter block proves *where* the work
/// went (heap pushes, net evaluations, audit dirty nodes, ...).
///
/// Environment knobs:
///   MMFLOW_BENCH_JSON   output path (default: <bench name>.json in cwd)
///   MMFLOW_BENCH_REPS   override the per-case repetition count

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/perf.h"
#include "common/strings.h"

namespace mmflow::bench {

/// One quality-of-result datum; rendered as a JSON number.
struct QorEntry {
  std::string key;
  double value = 0.0;
};

class PerfBench {
 public:
  explicit PerfBench(std::string name) : name_(std::move(name)) {
    if (const char* r = std::getenv("MMFLOW_BENCH_REPS")) {
      try {
        reps_override_ = parse_int(r, "MMFLOW_BENCH_REPS");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        std::exit(2);
      }
    }
  }

  /// Runs `fn` `reps` times (perf counters reset first, aggregated over all
  /// reps) and records min/mean wall time plus the last rep's QoR. Runs are
  /// deterministic, so the QoR is identical across reps by construction.
  void run_case(const std::string& case_name, int reps,
                const std::function<std::vector<QorEntry>()>& fn) {
    if (reps_override_ > 0) reps = reps_override_;

    perf::reset();
    double min_ms = std::numeric_limits<double>::infinity();
    double total_ms = 0.0;
    std::vector<QorEntry> qor;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      qor = fn();
      const auto end = std::chrono::steady_clock::now();
      const double ms =
          std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
              end - start)
              .count();
      min_ms = std::min(min_ms, ms);
      total_ms += ms;
    }

    std::ostringstream perf_json;
    perf::Registry::instance().write_json(perf_json, 6);

    Case c;
    c.name = case_name;
    c.reps = reps;
    c.wall_ms_min = min_ms;
    c.wall_ms_mean = total_ms / reps;
    c.qor = std::move(qor);
    c.perf_json = perf_json.str();
    cases_.push_back(std::move(c));

    std::printf("%-42s %10.2f ms (min of %d)", case_name.c_str(), min_ms, reps);
    for (const auto& q : cases_.back().qor) {
      std::printf("  %s=%g", q.key.c_str(), q.value);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  /// Writes the JSON report; returns a process exit code.
  int finish() {
    std::string path = name_ + ".json";
    if (const char* p = std::getenv("MMFLOW_BENCH_JSON")) path = p;

    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 1;
    }
    // Full round-trip precision: the QoR fields are the bit-identity guard
    // rail, and the stream's default 6 digits would hide a drift in them
    // (and print a count above 10^6 in exponent form).
    os.precision(std::numeric_limits<double>::max_digits10);
    os << "{\n  \"bench\": \"" << name_ << "\",\n  \"cases\": [";
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      const Case& c = cases_[i];
      os << (i == 0 ? "\n" : ",\n");
      os << "    {\n      \"name\": \"" << c.name << "\",\n"
         << "      \"reps\": " << c.reps << ",\n"
         << "      \"wall_ms_min\": " << c.wall_ms_min << ",\n"
         << "      \"wall_ms_mean\": " << c.wall_ms_mean << ",\n"
         << "      \"qor\": {";
      for (std::size_t q = 0; q < c.qor.size(); ++q) {
        os << (q == 0 ? "" : ", ") << '"' << c.qor[q].key
           << "\": " << c.qor[q].value;
      }
      os << "},\n      \"perf\": " << c.perf_json << "\n    }";
    }
    os << "\n  ]\n}\n";
    std::printf("wrote %s\n", path.c_str());
    return 0;
  }

 private:
  struct Case {
    std::string name;
    int reps = 1;
    double wall_ms_min = 0.0;
    double wall_ms_mean = 0.0;
    std::vector<QorEntry> qor;
    std::string perf_json;
  };

  std::string name_;
  int reps_override_ = 0;
  std::vector<Case> cases_;
};

}  // namespace mmflow::bench
