#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "apps/suites.h"
#include "core/artifact_store.h"
#include "core/flows.h"
#include "helpers.h"
#include "verify/verify.h"

namespace mmflow {
namespace {

/// Metamorphic relation over the whole flow: whatever placement/routing a
/// suite benchmark gets — any suite, either cost engine — the merged circuit
/// configured for each mode must stay functionally equivalent to that
/// mode's input circuit (docs/VERIFICATION.md). And a warm replay of the
/// same experiment from a persistent ArtifactStore, in a fresh FlowCache,
/// must yield bit-identical verdicts. One case per (suite, engine), so each
/// runs as its own ctest entry (see CMakeLists.txt).
class MetamorphicTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, core::CombinedCost>> {};

TEST_P(MetamorphicTest, VerifiesAndReplaysIdentically) {
  const auto& [suite_name, engine] = GetParam();
  testing::TempDir dir;
  const auto store = std::make_shared<core::ArtifactStore>(dir.path.string());

  apps::SuiteOptions suite_options;
  suite_options.limit_pairs = 1;  // one benchmark per suite keeps this fast
  const auto suite = apps::suite_by_name(suite_name, suite_options);
  ASSERT_FALSE(suite.empty());
  const auto& bench = suite.front();
  core::FlowOptions options;
  options.seed = 7;
  options.anneal.inner_num = 2.0;
  options.cost_engine = engine;

  core::FlowCache cold_cache;
  cold_cache.attach_store(store);
  core::RrgCache rrgs;
  core::FlowContext context;
  context.cache = &cold_cache;
  context.rrgs = &rrgs;
  const auto exp = core::run_experiment(bench.modes, options, context);
  ASSERT_TRUE(exp.tunable.has_value()) << bench.name;
  const auto report = verify::check_modes(*exp.tunable, bench.modes);
  ASSERT_EQ(report.modes.size(), bench.modes.size());
  for (const auto& mode_report : report.modes) {
    EXPECT_TRUE(mode_report.proven)
        << bench.name << " mode " << mode_report.mode << ": "
        << mode_report.detail;
  }

  // Warm replay: fresh in-memory cache, same store. The replayed
  // experiment must verify with bit-identical verdicts.
  core::FlowCache warm_cache;
  warm_cache.attach_store(store);
  core::RrgCache warm_rrgs;
  core::FlowContext warm_context;
  warm_context.cache = &warm_cache;
  warm_context.rrgs = &warm_rrgs;
  const auto warm = core::run_experiment(bench.modes, options, warm_context);
  ASSERT_TRUE(warm.tunable.has_value());
  const auto warm_report = verify::check_modes(*warm.tunable, bench.modes);
  ASSERT_EQ(warm_report.modes.size(), report.modes.size());
  for (std::size_t m = 0; m < report.modes.size(); ++m) {
    EXPECT_EQ(warm_report.modes[m].proven, report.modes[m].proven);
    EXPECT_EQ(warm_report.modes[m].detail, report.modes[m].detail);
    EXPECT_EQ(warm_report.modes[m].cex.has_value(),
              report.modes[m].cex.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suites, MetamorphicTest,
    ::testing::Combine(::testing::Values("regexp", "fir", "mcnc"),
                       ::testing::Values(core::CombinedCost::WireLength,
                                         core::CombinedCost::EdgeMatch)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) == core::CombinedCost::WireLength
                  ? "_WireLength"
                  : "_EdgeMatch");
    });

}  // namespace
}  // namespace mmflow
