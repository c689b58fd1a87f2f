/// \file bench_fig5_reconfig_speedup.cpp
/// Reproduces Fig. 5: reconfiguration speed-up of DCS relative to MDR
/// (bits rewritten on a mode switch), per suite, for both combined-placement
/// cost engines. Paper: 4.6x-5.1x for the typical multi-mode applications,
/// with edge matching and wire-length optimization approximately equal.

#include "bench_common.h"

using namespace mmflow;

int main() {
  set_log_level(LogLevel::Silent);
  const auto config = bench::BenchConfig::from_env();
  bench::print_header("Fig. 5: reconfiguration speed-up of DCS vs MDR",
                      config);

  std::printf("%-8s | %-22s | %-22s\n", "", "DCS-EdgeMatch", "DCS-WireLength");
  std::printf("%-8s | %-22s | %-22s\n", "suite", "speed-up avg [min,max]",
              "speed-up avg [min,max]");
  std::printf("---------+------------------------+----------------------\n");

  for (const std::string suite : {"RegExp", "FIR", "MCNC"}) {
    const auto benches = bench::build_suite(suite, config);
    Summary em;
    Summary wl;
    for (const auto& b : benches) {
      const auto records = bench::run_engines(b, config);
      em.add(records[0].reconfig.dcs_speedup());
      wl.add(records[1].reconfig.dcs_speedup());
    }
    std::printf("%-8s | %-22s | %-22s\n", suite.c_str(),
                bench::summary_str(em).c_str(), bench::summary_str(wl).c_str());
  }
  std::printf(
      "\npaper: speed-up between 4.6x and 5.1x across the suites; the two\n"
      "cost engines achieve approximately the same speed-up. MDR = 1.0x.\n");
  return 0;
}
