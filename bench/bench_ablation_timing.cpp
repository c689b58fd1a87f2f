/// \file bench_ablation_timing.cpp
/// Extension: timing-driven combined placement ablation. The paper claims
/// the reconfiguration gains come "without significant performance
/// penalties" and uses wire length as the proxy; here we measure the
/// proxy's target directly — the critical path of the routed
/// implementations under the shared delay model — and sweep the
/// `timing_tradeoff` λ of the WireLength engine to quantify what
/// criticality-weighted annealing buys: λ=0 is the paper's pure-wirelength
/// flow (bit-identical to the λ-less annealer), λ>0 blends in the
/// pre-route criticality-weighted timing term.
///
/// JSON rows carry per-mode critical paths next to the wirelength QoR
/// (schema in bench/README.md). The CI smoke runs two tradeoff points and
/// asserts the timing-driven run improves the mean DCS critical path on at
/// least one suite circuit.

#include <vector>

#include "bench_common.h"
#include "core/timing.h"

using namespace mmflow;

int main() {
  set_log_level(LogLevel::Silent);
  const auto config = bench::BenchConfig::from_env();
  bench::print_header("Extension: timing-driven combined placement (DCS vs MDR)",
                      config);

  const std::vector<double> tradeoffs{0.0, 0.5};

  std::printf("%-24s | %-5s | %-3s | %-11s | %-10s | %-9s\n", "circuit",
              "t/off", "W", "DCS CP mean", "CP vs MDR", "WL vs MDR");
  std::printf(
      "-------------------------+-------+-----+-------------+------------+"
      "----------\n");

  std::vector<bench::JsonRow> rows;
  for (const std::string suite : {"RegExp", "FIR", "MCNC"}) {
    const auto benches = bench::build_suite(suite, config);
    for (const auto& b : benches) {
      for (const double tradeoff : tradeoffs) {
        const auto experiment = bench::run_one(
            b, config.flow_options(core::CombinedCost::WireLength, tradeoff),
            config);
        const auto report = core::timing_report(*experiment, b.modes);
        const auto wl = core::wirelength_metrics(*experiment);

        bench::JsonRow row;
        row.name = suite + "/" + b.name;
        row.fields.emplace_back("tradeoff", tradeoff);
        row.fields.emplace_back("width", experiment->region.channel_width);
        row.fields.emplace_back("wl_ratio_mean", wl.mean_ratio());
        row.fields.emplace_back("wl_ratio_max", wl.max_ratio());
        bench::add_timing_fields(row, report);
        rows.push_back(row);

        const auto field = [&](const char* key) {
          for (const auto& [k, v] : row.fields) {
            if (k == std::string(key)) return v;
          }
          return 0.0;
        };
        std::printf("%-24s | %5.2f | %3d | %11.2f | %10.2f | %9.2f\n",
                    row.name.c_str(), tradeoff,
                    experiment->region.channel_width, field("dcs_cp_mean"),
                    report.mean_ratio(), wl.mean_ratio());
      }
    }
  }
  std::printf(
      "\n1.0 = no penalty vs the MDR baseline (always wirelength-driven).\n"
      "tradeoff 0 reproduces the paper's flow; tradeoff 0.5 optimizes the\n"
      "estimated critical path alongside the merged wirelength.\n");
  return bench::write_rows_json("bench_ablation_timing", rows);
}
