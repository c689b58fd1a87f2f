/// Fault-tolerance tests (docs/ROBUSTNESS.md): cooperative
/// cancellation/timeouts, artifact-store degradation on real corrupt entries
/// healing to bit-identical QoR, sweeps that resume from the artifact store,
/// and BLIF front-end robustness against corrupted input.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/bridge.h"
#include "apps/mcnc/mcnc.h"
#include "common/cancel.h"
#include "common/check.h"
#include "common/perf.h"
#include "common/rng.h"
#include "core/artifact_store.h"
#include "core/batch.h"
#include "core/metrics.h"
#include "helpers.h"
#include "tune/knobs.h"
#include "tune/tuner.h"
#include "netlist/blif.h"
#include "techmap/mapper.h"

namespace mmflow {
namespace {

namespace fs = std::filesystem;

using testing::TempDir;
using testing::truncate_file;

std::uint64_t counter(const char* name) { return perf::counter_value(name); }

/// Small structurally similar mode pair (same recipe as test_batch.cpp).
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
    Rng shared(seed * 7919);
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

core::FlowOptions fast_options(std::uint64_t seed) {
  core::FlowOptions options;
  options.cost_engine = core::CombinedCost::WireLength;
  options.seed = seed;
  options.anneal.inner_num = 2.0;  // keep tests quick
  return options;
}

/// Bit-level QoR equality: region, placements, routing and reconfiguration
/// metrics (the fields the chaos determinism criterion is stated over).
void expect_same_experiment(const core::MultiModeExperiment& a,
                            const core::MultiModeExperiment& b) {
  EXPECT_EQ(a.region.nx, b.region.nx);
  EXPECT_EQ(a.region.ny, b.region.ny);
  EXPECT_EQ(a.region.channel_width, b.region.channel_width);
  EXPECT_EQ(a.min_width, b.min_width);
  ASSERT_EQ(a.mdr.size(), b.mdr.size());
  for (std::size_t m = 0; m < a.mdr.size(); ++m) {
    ASSERT_EQ(a.mdr[m].placement.num_blocks(), b.mdr[m].placement.num_blocks());
    for (std::uint32_t blk = 0; blk < a.mdr[m].placement.num_blocks(); ++blk) {
      EXPECT_EQ(a.mdr[m].placement.site_of(blk),
                b.mdr[m].placement.site_of(blk));
    }
  }
  EXPECT_EQ(a.merged_connections, b.merged_connections);
  EXPECT_EQ(a.total_mode_connections, b.total_mode_connections);
  const auto ma = core::reconfig_metrics(a, bitstream::MuxEncoding::Binary);
  const auto mb = core::reconfig_metrics(b, bitstream::MuxEncoding::Binary);
  EXPECT_EQ(ma.mdr_bits, mb.mdr_bits);
  EXPECT_EQ(ma.dcs_bits, mb.dcs_bits);
  EXPECT_EQ(ma.diff_bits, mb.diff_bits);
}

/// Corrupts the first two experiment entries of a warm store, in filename
/// order, the way a real disk can: the first is truncated to 10 bytes, and
/// the second becomes an empty directory of the same name, so its read is
/// invalid and its rewrite fails (rename cannot replace a directory).
/// Returns the truncated entry.
fs::path corrupt_two_experiment_entries(const fs::path& root) {
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(root / "experiments")) {
    if (entry.path().extension() == ".bin") entries.push_back(entry.path());
  }
  std::sort(entries.begin(), entries.end());
  EXPECT_GE(entries.size(), 2u) << "store under " << root << " is not warm";
  if (entries.size() < 2) return {};
  truncate_file(entries[0], 10);
  fs::remove(entries[1]);
  fs::create_directory(entries[1]);
  return entries[0];
}

// ---------------------------------------------------------------- cancel --

TEST(Cancel, TokenLifecycle) {
  CancelToken token;
  EXPECT_NO_THROW(token.poll());
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.poll(), CancelledError);

  CancelToken timed;
  timed.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_TRUE(timed.expired());
  EXPECT_THROW(timed.poll(), TimeoutError);

  // Cancellation wins when both apply.
  timed.cancel();
  EXPECT_THROW(timed.poll(), CancelledError);

  // Null-token idiom used at every poll point.
  EXPECT_NO_THROW(poll_cancel(nullptr));
}

TEST(Cancel, ChildSeesParentTrip) {
  CancelToken parent;
  CancelToken child(&parent);
  EXPECT_NO_THROW(child.poll());
  parent.cancel();
  EXPECT_TRUE(child.cancelled());
  EXPECT_THROW(child.poll(), CancelledError);

  CancelToken parent2;
  CancelToken child2(&parent2);
  parent2.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1));
  EXPECT_THROW(child2.poll(), TimeoutError);
}

// ----------------------------------------------------- store degradation --

/// Every entry of a warm persistent cache truncated: each load is a counted
/// invalid miss, the flow recomputes, and the QoR is bit-identical.
TEST(Robustness, TruncatedStoreHealsBitIdentically) {
  TempDir dir;
  const auto modes = similar_mode_pair(40, 11);
  const auto options = fast_options(3);

  core::FlowCache cold_cache;
  cold_cache.attach_store(std::make_shared<core::ArtifactStore>(dir.path));
  core::FlowContext cold_ctx;
  cold_ctx.cache = &cold_cache;
  const auto cold = core::run_experiment(modes, options, cold_ctx);

  int truncated = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    if (entry.path().extension() == ".bin") {
      truncate_file(entry.path(), 10);
      ++truncated;
    }
  }
  ASSERT_GT(truncated, 0);

  // Fresh "process": every load goes to disk, and every entry is invalid.
  core::FlowCache warm_cache;
  warm_cache.attach_store(std::make_shared<core::ArtifactStore>(dir.path));
  core::FlowContext warm_ctx;
  warm_ctx.cache = &warm_cache;
  const auto invalid_before = counter("flowcache.disk_invalid");
  const auto hits_before = counter("flowcache.disk_hits");
  const auto warm = core::run_experiment(modes, options, warm_ctx);
  EXPECT_GT(counter("flowcache.disk_invalid"), invalid_before);
  EXPECT_EQ(counter("flowcache.disk_hits"), hits_before);
  expect_same_experiment(cold, warm);
}

// ---------------------------------------------------- timeouts and cancel --

/// A per-job deadline lands as a reported TimedOut outcome; the batch still
/// returns a slot for every job instead of aborting the sweep.
TEST(Robustness, JobTimeoutIsReportedNotFatal) {
  const auto modes = similar_mode_pair(60, 23);
  core::BatchOptions batch_options;
  batch_options.job_timeout_ms = 1;  // annealing takes far longer than 1 ms
  core::BatchDriver driver(batch_options);
  const auto timeouts_before = counter("batch.timeouts");
  const auto results = driver.run(core::seed_sweep(
      "slow", std::make_shared<const std::vector<techmap::LutCircuit>>(modes),
      fast_options(1), 2));
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_EQ(result.experiment, nullptr);
    EXPECT_EQ(result.outcome.status, core::JobStatus::TimedOut);
    EXPECT_EQ(result.outcome.error_kind, "timeout");
  }
  EXPECT_GE(counter("batch.timeouts"), timeouts_before + 2);
}

/// A pre-tripped batch-wide token cancels every job at its first poll, and
/// nothing is written to the store.
TEST(Robustness, CancellationLeavesNoPartialCacheWrites) {
  TempDir dir;
  const auto modes = similar_mode_pair(40, 29);
  CancelToken stop;
  stop.cancel();
  core::BatchOptions batch_options;
  batch_options.cancel = &stop;
  batch_options.cache_dir = dir.path.string();
  core::BatchDriver driver(batch_options);
  const auto writes_before = counter("flowcache.disk_writes");
  const auto cancelled_before = counter("batch.cancelled");
  const auto results = driver.run(core::seed_sweep(
      "stop", std::make_shared<const std::vector<techmap::LutCircuit>>(modes),
      fast_options(1), 2));
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_EQ(result.experiment, nullptr);
    EXPECT_EQ(result.outcome.status, core::JobStatus::Cancelled);
    EXPECT_EQ(result.outcome.error_kind, "cancelled");
  }
  EXPECT_EQ(counter("batch.cancelled"), cancelled_before + 2);
  EXPECT_EQ(counter("flowcache.disk_writes"), writes_before);
  core::ArtifactStore store(dir.path);
  EXPECT_EQ(store.size(), 0u);  // no partial artifacts
}

/// Broken cache directory (path occupied by a file): the sweep completes
/// with correct results, write failures land in the counter.
TEST(Robustness, BrokenCacheDirDegradesGracefully) {
  TempDir dir;
  const fs::path bogus = dir.path / "not_a_directory";
  std::ofstream(bogus) << "occupied";

  const auto modes = similar_mode_pair(40, 31);
  const auto options = fast_options(9);
  const auto clean = core::run_experiment(modes, options);

  core::BatchOptions batch_options;
  batch_options.cache_dir = bogus.string();
  core::BatchDriver driver(batch_options);
  const auto errors_before = counter("flowcache.disk_write_errors");
  const auto results = driver.run(core::seed_sweep(
      "broken",
      std::make_shared<const std::vector<techmap::LutCircuit>>(modes), options,
      1));
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].experiment != nullptr) << results[0].error;
  EXPECT_EQ(results[0].outcome.status, core::JobStatus::Ok);
  EXPECT_GT(counter("flowcache.disk_write_errors"), errors_before);
  expect_same_experiment(clean, *results[0].experiment);
}

// ---------------------------------------------------------------- resume --

TEST(Robustness, RerunOnSameCacheDirMatchesUninterruptedRun) {
  TempDir dir;
  const auto modes = similar_mode_pair(40, 37);
  const auto shared =
      std::make_shared<const std::vector<techmap::LutCircuit>>(modes);
  const auto base = fast_options(1);

  // Reference: an uninterrupted 4-seed sweep with no cache at all.
  core::BatchDriver plain;
  const auto reference = plain.run(core::seed_sweep("r", shared, base, 4));

  core::BatchOptions batch_options;
  batch_options.cache_dir = dir.path.string();
  // "First process": completes only the first two seeds, then dies.
  {
    core::BatchDriver driver(batch_options);
    const auto partial = driver.run(core::seed_sweep("r", shared, base, 2));
    ASSERT_TRUE(partial[0].experiment && partial[1].experiment);
  }

  // "Second process": reruns the full 4-seed sweep on the same dir.
  core::BatchDriver driver(batch_options);
  const auto hits_before = counter("flowcache.disk_hits");
  const auto results = driver.run(core::seed_sweep("r", shared, base, 4));

  ASSERT_EQ(results.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    ASSERT_TRUE(results[s].experiment != nullptr) << results[s].error;
    EXPECT_EQ(results[s].outcome.status, core::JobStatus::Ok);
    expect_same_experiment(*reference[s].experiment, *results[s].experiment);
  }
  // Seeds 1 and 2 replayed from the store, not recomputed.
  EXPECT_GT(counter("flowcache.disk_hits"), hits_before);
}

// ------------------------------------------------------------------ blif --

TEST(BlifRobustness, ErrorsCarrySourceAndLine) {
  const std::string text =
      ".model top\n"
      ".inputs a b\n"
      ".outputs y\n"
      ".names a b y\n"
      "11 2\n"  // '2' is not a valid output bit
      ".end\n";
  try {
    (void)netlist::parse_blif(text, "top.blif");
    FAIL() << "expected BlifParseError";
  } catch (const netlist::BlifParseError& e) {
    EXPECT_EQ(e.source(), "top.blif");
    EXPECT_EQ(e.line(), 5);
    EXPECT_NE(std::string(e.what()).find("top.blif:5:"), std::string::npos);
  }
}

TEST(BlifRobustness, DuplicateDefinitionIsLocatedParseError) {
  const std::string text =
      ".model top\n"
      ".inputs a b\n"
      ".outputs y z\n"
      ".names a b y\n"
      "11 1\n"
      ".names a y\n"  // redefines input 'a'
      "1 1\n"
      ".names b z\n"
      "1 1\n"
      ".end\n";
  try {
    (void)netlist::parse_blif(text);
    FAIL() << "expected BlifParseError";
  } catch (const netlist::BlifParseError& e) {
    EXPECT_EQ(e.line(), 6);
    EXPECT_NE(std::string(e.what()).find("already defined"), std::string::npos);
  }
}

TEST(BlifRobustness, UnreadableFileIsParseErrorNamingThePath) {
  try {
    (void)netlist::read_blif_file("/nonexistent/nope.blif");
    FAIL() << "expected BlifParseError";
  } catch (const netlist::BlifParseError& e) {
    EXPECT_EQ(e.source(), "/nonexistent/nope.blif");
    EXPECT_EQ(e.line(), 0);  // whole-file problem
  }
}

/// Corruption sweep: no truncation or byte garbling of a valid BLIF may
/// escape the parser as anything but a (located) ParseError — in particular
/// never a precondition/invariant abort from the netlist builder.
TEST(BlifRobustness, CorruptedInputsNeverEscapeAsNonParseErrors) {
  apps::mcnc::SyntheticSpec spec;
  spec.num_gates = 60;
  spec.num_registers = 4;
  spec.seed = 3;
  const std::string good = netlist::write_blif(apps::mcnc::synthetic_circuit(spec));
  ASSERT_NO_THROW((void)netlist::parse_blif(good));

  auto expect_parse_or_ok = [](const std::string& text, const char* label) {
    try {
      (void)netlist::parse_blif(text, label);
    } catch (const ParseError&) {
      // expected failure mode (BlifParseError is a ParseError)
    } catch (const std::exception& e) {
      FAIL() << label << ": leaked non-ParseError: " << e.what();
    }
  };

  // Truncations at every 7th byte (covers mid-token, mid-line, mid-cube).
  for (std::size_t cut = 0; cut < good.size(); cut += 7) {
    expect_parse_or_ok(good.substr(0, cut),
                       ("truncate@" + std::to_string(cut)).c_str());
  }
  // Byte garbling: overwrite one byte with hostile characters.
  Rng rng(99);
  for (const char evil : {'\0', '2', '~', '.', ' ', '\\'}) {
    for (int i = 0; i < 40; ++i) {
      std::string bad = good;
      bad[rng.next_below(bad.size())] = evil;
      expect_parse_or_ok(bad, "garble");
    }
  }
  // Structured corruption: duplicated and deleted logical lines.
  const auto nl_pos = good.find('\n', good.find(".names"));
  ASSERT_NE(nl_pos, std::string::npos);
  std::string doubled = good;
  doubled.insert(nl_pos + 1, good.substr(good.find(".names"),
                                         nl_pos + 1 - good.find(".names")));
  expect_parse_or_ok(doubled, "doubled-names");
}


// ------------------------------------------------------------- tune chaos --

/// Chaos criterion for the autotuner: a tune rerun on a warm cache dir with
/// a truncated entry and an entry that cannot be rewritten must produce the
/// *same front bits* as the clean run — a bad read is a counted miss that
/// recomputes and a failed rewrite a counted write error, so the tuner's
/// determinism contract survives the store's degradation path end to end
/// (docs/TUNING.md).
TEST(Robustness, ChaosTuneMatchesCleanFrontBitIdentically) {
  const std::vector<tune::TuneBenchmark> benchmarks{tune::TuneBenchmark{
      "chaos", std::make_shared<const std::vector<techmap::LutCircuit>>(
                   similar_mode_pair(40, 61))}};
  TempDir dir;
  tune::TuneOptions options;
  options.seed = 9;
  options.budget = 4;
  options.base = fast_options(1);
  options.space = tune::KnobSpace::from_spec(
      "astar_fac=1.0:1.6,align_discount=0.1:1.0", "test");
  options.batch.cache_dir = dir.path.string();

  // The clean tune warms the store, then two of its entries go bad.
  const auto clean = tune::tune(benchmarks, options);
  ASSERT_FALSE(clean.front.empty());
  const fs::path truncated = corrupt_two_experiment_entries(dir.path);
  ASSERT_FALSE(truncated.empty());

  // Chaos rerun on the same directory: both bad entries are invalid reads
  // that recompute, and the directory-occupied one fails its rewrite; the
  // store degrades both to counters. Jobs > 1 so the recomputes run on
  // worker threads.
  tune::TuneOptions chaos_options = options;
  chaos_options.batch.jobs = 2;
  const auto invalid_before = counter("flowcache.disk_invalid");
  const auto errors_before = counter("flowcache.disk_write_errors");
  const auto chaos = tune::tune(benchmarks, chaos_options);
  EXPECT_GE(counter("flowcache.disk_invalid"), invalid_before + 2);
  EXPECT_GE(counter("flowcache.disk_write_errors"), errors_before + 1);
  EXPECT_GT(fs::file_size(truncated), 10u);  // rewritten whole

  ASSERT_EQ(clean.front.size(), chaos.front.size());
  for (std::size_t i = 0; i < clean.front.size(); ++i) {
    EXPECT_EQ(clean.front[i].index, chaos.front[i].index);
    EXPECT_EQ(clean.front[i].knob_values, chaos.front[i].knob_values);
    EXPECT_EQ(clean.front[i].objectives, chaos.front[i].objectives);
  }
  ASSERT_EQ(clean.trials.size(), chaos.trials.size());
  for (std::size_t i = 0; i < clean.trials.size(); ++i) {
    EXPECT_EQ(clean.trials[i].index, chaos.trials[i].index);
    EXPECT_EQ(clean.trials[i].ok, chaos.trials[i].ok);
    EXPECT_EQ(clean.trials[i].objectives, chaos.trials[i].objectives);
  }
}

}  // namespace
}  // namespace mmflow
