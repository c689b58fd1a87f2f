/// Batch flow driver tests: the determinism contract (batched multi-seed
/// results bit-identical to sequential runs), cache-hit equivalence, and the
/// cache hit/miss perf counters.

#include <gtest/gtest.h>

#include <memory>

#include "aig/bridge.h"
#include "common/check.h"
#include "common/perf.h"
#include "core/batch.h"
#include "core/metrics.h"
#include "helpers.h"
#include "techmap/mapper.h"

namespace mmflow::core {
namespace {

/// Generates a pair of structurally similar mode circuits (like the paper's
/// mode pairs): a base random circuit plus a variant sharing most logic.
std::vector<techmap::LutCircuit> similar_mode_pair(int num_gates,
                                                   std::uint64_t seed) {
  Rng rng(seed);
  auto build = [&](bool variant, std::uint64_t vseed) {
    Rng vrng(vseed);
    netlist::Netlist nl(variant ? "modeB" : "modeA");
    std::vector<netlist::SignalId> pool;
    for (int i = 0; i < 6; ++i) {
      pool.push_back(nl.add_input("i" + std::to_string(i)));
    }
    Rng shared(seed * 7919);  // identical gate choices for the common prefix
    for (int g = 0; g < num_gates; ++g) {
      Rng& r = (g < num_gates * 3 / 4) ? shared : vrng;
      const auto a = pool[r.next_below(pool.size())];
      const auto b = pool[r.next_below(pool.size())];
      netlist::SignalId s = 0;
      switch (r.next_below(4)) {
        case 0: s = nl.add_and(a, b); break;
        case 1: s = nl.add_or(a, b); break;
        case 2: s = nl.add_xor(a, b); break;
        case 3: s = nl.add_nand(a, b); break;
      }
      pool.push_back(s);
    }
    for (int i = 0; i < 4; ++i) {
      nl.add_output("o" + std::to_string(i), pool[pool.size() - 1 - i]);
    }
    auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
    mapped.set_name(nl.name());
    return mapped;
  };
  std::vector<techmap::LutCircuit> modes;
  modes.push_back(build(false, rng()));
  modes.push_back(build(true, rng()));
  return modes;
}

FlowOptions fast_options(CombinedCost cost, std::uint64_t seed) {
  FlowOptions options;
  options.cost_engine = cost;
  options.seed = seed;
  options.anneal.inner_num = 2.0;  // keep tests quick
  return options;
}

void expect_same_routing(const route::RouteResult& a,
                         const route::RouteResult& b) {
  ASSERT_EQ(a.success, b.success);
  ASSERT_EQ(a.iterations, b.iterations);
  ASSERT_EQ(a.conns.size(), b.conns.size());
  for (std::size_t c = 0; c < a.conns.size(); ++c) {
    EXPECT_EQ(a.conns[c].net, b.conns[c].net);
    EXPECT_EQ(a.conns[c].conn, b.conns[c].conn);
    EXPECT_EQ(a.conns[c].modes, b.conns[c].modes);
    EXPECT_EQ(a.conns[c].nodes, b.conns[c].nodes);
    EXPECT_EQ(a.conns[c].edges, b.conns[c].edges);
  }
}

/// Bit-for-bit equality of everything QoR-relevant in two experiments:
/// region, width, every placement site, every routed path, the merge.
void expect_same_experiment(const MultiModeExperiment& a,
                            const MultiModeExperiment& b) {
  EXPECT_EQ(a.region.nx, b.region.nx);
  EXPECT_EQ(a.region.ny, b.region.ny);
  EXPECT_EQ(a.region.channel_width, b.region.channel_width);
  EXPECT_EQ(a.min_width, b.min_width);
  ASSERT_EQ(a.mdr.size(), b.mdr.size());
  for (std::size_t m = 0; m < a.mdr.size(); ++m) {
    ASSERT_EQ(a.mdr[m].placement.num_blocks(), b.mdr[m].placement.num_blocks());
    for (std::uint32_t blk = 0; blk < a.mdr[m].placement.num_blocks(); ++blk) {
      EXPECT_EQ(a.mdr[m].placement.site_of(blk), b.mdr[m].placement.site_of(blk))
          << "mode " << m << " block " << blk;
    }
  }
  ASSERT_EQ(a.mdr_routing.size(), b.mdr_routing.size());
  for (std::size_t m = 0; m < a.mdr_routing.size(); ++m) {
    expect_same_routing(a.mdr_routing[m], b.mdr_routing[m]);
  }
  expect_same_routing(a.dcs_routing, b.dcs_routing);
  EXPECT_EQ(a.tlut_site, b.tlut_site);
  EXPECT_EQ(a.tio_site, b.tio_site);
  EXPECT_EQ(a.total_mode_connections, b.total_mode_connections);
  EXPECT_EQ(a.merged_connections, b.merged_connections);

  const auto ma = reconfig_metrics(a, bitstream::MuxEncoding::Binary);
  const auto mb = reconfig_metrics(b, bitstream::MuxEncoding::Binary);
  EXPECT_EQ(ma.mdr_bits, mb.mdr_bits);
  EXPECT_EQ(ma.dcs_bits, mb.dcs_bits);
  EXPECT_EQ(ma.diff_bits, mb.diff_bits);
}

TEST(Batch, SeedSweepExpansion) {
  const auto modes = std::make_shared<const std::vector<techmap::LutCircuit>>(
      similar_mode_pair(40, 5));
  auto base = fast_options(CombinedCost::WireLength, 7);
  const auto jobs = seed_sweep("c", modes, base, 3);
  ASSERT_EQ(jobs.size(), 3u);
  EXPECT_EQ(jobs[0].options.seed, 7u);
  EXPECT_EQ(jobs[1].options.seed, 8u);
  EXPECT_EQ(jobs[2].options.seed, 9u);
  EXPECT_EQ(jobs[0].name, "c/seed7");
  EXPECT_EQ(jobs[2].name, "c/seed9");
  for (const auto& job : jobs) EXPECT_EQ(job.modes.get(), modes.get());

  const auto engines = engine_sweep("c", modes, base);
  ASSERT_EQ(engines.size(), 2u);
  EXPECT_EQ(engines[0].options.cost_engine, CombinedCost::EdgeMatch);
  EXPECT_EQ(engines[1].options.cost_engine, CombinedCost::WireLength);
}

/// The acceptance-criterion test: a parallel multi-seed batch produces
/// bit-identical per-seed results to N independent sequential runs.
TEST(Batch, MultiSeedBatchMatchesSequentialBitForBit) {
  const auto modes = similar_mode_pair(50, 21);
  const auto base = fast_options(CombinedCost::WireLength, 1);
  constexpr int kSeeds = 3;

  // Sequential reference: plain run_experiment, no caching, no threads.
  std::vector<MultiModeExperiment> reference;
  for (int s = 0; s < kSeeds; ++s) {
    auto options = base;
    options.seed = base.seed + static_cast<std::uint64_t>(s);
    reference.push_back(run_experiment(modes, options));
  }

  // Parallel batch with shared RRG + flow cache, at an explicit worker count
  // and at jobs = 0 (one worker per hardware thread).
  for (const int jobs : {kSeeds, 0}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    BatchOptions batch_options;
    batch_options.jobs = jobs;
    BatchDriver driver(batch_options);
    const auto results = driver.run(seed_sweep(
        "c", std::make_shared<const std::vector<techmap::LutCircuit>>(modes),
        base, kSeeds));

    ASSERT_EQ(results.size(), static_cast<std::size_t>(kSeeds));
    for (int s = 0; s < kSeeds; ++s) {
      const BatchResult& result = results[static_cast<std::size_t>(s)];
      ASSERT_TRUE(result.experiment != nullptr) << result.error;
      EXPECT_EQ(result.seed, base.seed + static_cast<std::uint64_t>(s));
      expect_same_experiment(reference[static_cast<std::size_t>(s)],
                             *result.experiment);
    }
  }
}

/// A warm-cache rerun must return the identical experiment and be counted
/// as a hit by the perf registry.
TEST(Batch, CacheHitIsIdenticalToColdRunAndCounted) {
  const auto modes = similar_mode_pair(40, 33);
  const auto options = fast_options(CombinedCost::WireLength, 4);

  BatchDriver driver;
  perf::reset();
  const auto cold = run_experiment(modes, options, driver.context());
  const std::uint64_t hits_after_cold =
      perf::counter_value("flowcache.experiment_hits");
  EXPECT_GT(perf::counter_value("flowcache.experiment_misses"), 0u);

  const auto warm = run_experiment(modes, options, driver.context());
  EXPECT_EQ(perf::counter_value("flowcache.experiment_hits"),
            hits_after_cold + 1);
  expect_same_experiment(cold, warm);

  // And the uncached run agrees too (the cache changed nothing).
  const auto uncached = run_experiment(modes, options);
  expect_same_experiment(uncached, warm);
}

/// Cost-engine comparisons share the engine-independent MDR work: the
/// second engine's run hits the MDR placement cache and its MDR results are
/// bit-identical to the first engine's.
TEST(Batch, EngineComparisonReusesMdrSide) {
  const auto modes = similar_mode_pair(45, 55);
  BatchDriver driver;
  perf::reset();
  const auto em = run_experiment(modes, fast_options(CombinedCost::EdgeMatch, 2),
                                 driver.context());
  EXPECT_EQ(perf::counter_value("flowcache.mdr_hits"), 0u);
  const auto wl = run_experiment(
      modes, fast_options(CombinedCost::WireLength, 2), driver.context());
  EXPECT_GT(perf::counter_value("flowcache.mdr_hits"), 0u);
  EXPECT_GT(perf::counter_value("flowcache.probe_hits"), 0u);

  // Same MDR placements regardless of the (DCS-side) cost engine.
  ASSERT_EQ(em.mdr.size(), wl.mdr.size());
  for (std::size_t m = 0; m < em.mdr.size(); ++m) {
    for (std::uint32_t blk = 0; blk < em.mdr[m].placement.num_blocks(); ++blk) {
      EXPECT_EQ(em.mdr[m].placement.site_of(blk),
                wl.mdr[m].placement.site_of(blk));
    }
  }
  const auto wl_metrics = wirelength_metrics(em);
  const auto wl_metrics2 = wirelength_metrics(wl);
  EXPECT_EQ(wl_metrics.mdr, wl_metrics2.mdr);
}

TEST(Batch, RrgCacheSharesGraphs) {
  perf::reset();
  RrgCache cache;
  arch::ArchSpec spec;
  spec.nx = 4;
  spec.ny = 4;
  spec.channel_width = 6;
  const auto a = cache.get(spec);
  const auto b = cache.get(spec);
  EXPECT_EQ(a.get(), b.get());  // one shared immutable graph
  spec.channel_width = 8;
  const auto c = cache.get(spec);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(perf::counter_value("rrgcache.hits"), 1u);
  EXPECT_EQ(perf::counter_value("rrgcache.misses"), 2u);
}

TEST(Batch, JobFailureIsCapturedNotPropagated) {
  // An unroutable configuration: max_channel_width too small to ever route.
  const auto modes = similar_mode_pair(50, 77);
  auto bad = fast_options(CombinedCost::WireLength, 1);
  bad.max_channel_width = 1;
  auto good = fast_options(CombinedCost::WireLength, 1);

  const auto shared =
      std::make_shared<const std::vector<techmap::LutCircuit>>(modes);
  std::vector<BatchJob> jobs;
  jobs.push_back(BatchJob{"bad", shared, bad});
  jobs.push_back(BatchJob{"good", shared, good});

  BatchOptions batch_options;
  batch_options.jobs = 2;
  BatchDriver driver(batch_options);
  const auto results = driver.run(jobs);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].experiment, nullptr);
  EXPECT_FALSE(results[0].error.empty());
  ASSERT_TRUE(results[1].experiment != nullptr) << results[1].error;
  EXPECT_TRUE(results[1].experiment->dcs_routing.success);
}

TEST(Batch, NegativeJobsOrTimeoutIsPrecondition) {
  BatchOptions negative_jobs;
  negative_jobs.jobs = -2;
  EXPECT_THROW(BatchDriver{negative_jobs}, PreconditionError);
  BatchOptions negative_timeout;
  negative_timeout.job_timeout_ms = -1;
  EXPECT_THROW(BatchDriver{negative_timeout}, PreconditionError);
}

/// Structural hashes: sensitive to content, insensitive to copies.
TEST(Batch, FlowHashesAreStructural) {
  const auto modes_a = similar_mode_pair(40, 91);
  const auto modes_b = modes_a;                      // deep copy
  const auto modes_c = similar_mode_pair(40, 92);    // different content
  EXPECT_EQ(hash_modes(modes_a), hash_modes(modes_b));
  EXPECT_NE(hash_modes(modes_a), hash_modes(modes_c));

  const auto options = FlowOptions{};
  auto tweaked = options;
  tweaked.router.astar_fac = options.router.astar_fac + 0.1;
  EXPECT_NE(hash_flow_options(options), hash_flow_options(tweaked));
  // Seed and engine live in the FlowKey, not the options hash.
  auto reseeded = options;
  reseeded.seed = options.seed + 1;
  reseeded.cost_engine = CombinedCost::EdgeMatch;
  EXPECT_EQ(hash_flow_options(options), hash_flow_options(reseeded));
  // The mux encoding only selects how a finished experiment's bits are
  // counted; no flow stage reads it, so both encodings share one entry.
  auto one_hot = options;
  one_hot.encoding = bitstream::MuxEncoding::OneHot;
  EXPECT_EQ(hash_flow_options(options), hash_flow_options(one_hot));
}

}  // namespace
}  // namespace mmflow::core
