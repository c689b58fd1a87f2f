/// ArtifactStore tests: the persistent flow cache's determinism contract (a
/// warm second "process" — a fresh FlowCache over the same directory —
/// reproduces a cold run bit-identically while skipping the cached work)
/// and its failure contract (truncated/garbled/mismatched entries and
/// unwritable directories degrade to counted cache misses, never aborts).
/// Also pins the canonical cache-key hashes (satellite of the same PR: a
/// float canonicalization bug here would silently split on-disk keys).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aig/bridge.h"
#include "common/check.h"
#include "common/perf.h"
#include "core/artifact_store.h"
#include "core/batch.h"
#include "core/metrics.h"
#include "helpers.h"
#include "netlist/netlist.h"
#include "techmap/mapper.h"

namespace mmflow::core {
namespace {

namespace fs = std::filesystem;
using testing::only_entry;
using testing::TempDir;
using testing::truncate_file;

std::uint64_t counter(const char* name) { return perf::counter_value(name); }

void flip_byte(const fs::path& path, std::uint64_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0xFF);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
}

FlowKey sample_key() {
  FlowKey key;
  key.netlist = 0x1111;
  key.arch = 0x2222;
  key.options = 0x3333;
  key.seed = 4;
  key.engine = 5;
  key.width = 6;
  key.variant = 0x7777;
  return key;
}

/// A small hand-built experiment (no flow run behind it): enough payload
/// for the entry-level failure paths.
MultiModeExperiment sample_experiment() {
  route::RouteProblem problem;
  problem.num_modes = 1;
  route::RouteNet net;
  net.name = "n0";
  net.source_node = 3;
  net.conns.push_back(route::RouteConn{7, 1});
  problem.nets.push_back(net);
  route::RouteResult result;
  result.success = true;
  result.iterations = 2;
  route::RoutedConn conn;
  conn.net = 0;
  conn.conn = 0;
  conn.modes = 1;
  conn.nodes = {3, 5, 7};
  conn.edges = {1, 2};
  result.conns.push_back(conn);
  MultiModeExperiment experiment;
  experiment.min_width = 6;
  experiment.mdr_problems = {problem};
  experiment.mdr_routing = {result};
  experiment.dcs_problem = problem;
  experiment.dcs_routing = result;
  experiment.total_mode_connections = 1;
  return experiment;
}

/// A pair of structurally similar small mode circuits (fast to place/route;
/// same construction style as tests/test_batch.cpp).
std::vector<techmap::LutCircuit> two_modes(int num_gates, std::uint64_t seed) {
  auto build = [&](bool variant) {
    netlist::Netlist nl(variant ? "modeB" : "modeA");
    std::vector<netlist::SignalId> pool;
    for (int i = 0; i < 5; ++i) {
      pool.push_back(nl.add_input("i" + std::to_string(i)));
    }
    Rng shared(seed * 7919);
    Rng own(seed * 104729 + (variant ? 1 : 0));
    for (int g = 0; g < num_gates; ++g) {
      Rng& r = (g < num_gates * 3 / 4) ? shared : own;
      const auto a = pool[r.next_below(pool.size())];
      const auto b = pool[r.next_below(pool.size())];
      switch (r.next_below(3)) {
        case 0: pool.push_back(nl.add_and(a, b)); break;
        case 1: pool.push_back(nl.add_or(a, b)); break;
        default: pool.push_back(nl.add_xor(a, b)); break;
      }
    }
    for (int i = 0; i < 3; ++i) {
      nl.add_output("o" + std::to_string(i), pool[pool.size() - 1 - i]);
    }
    auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
    mapped.set_name(nl.name());
    return mapped;
  };
  return {build(false), build(true)};
}

FlowOptions fast_options(CombinedCost cost, std::uint64_t seed) {
  FlowOptions options;
  options.cost_engine = cost;
  options.seed = seed;
  options.anneal.inner_num = 2.0;
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

/// Bit-for-bit equality of everything QoR-relevant, including the metrics
/// derived from the reconstructed Tunable circuit.
void expect_same_experiment(const MultiModeExperiment& a,
                            const MultiModeExperiment& b) {
  EXPECT_EQ(a.region, b.region);
  EXPECT_EQ(a.min_width, b.min_width);
  ASSERT_EQ(a.mdr.size(), b.mdr.size());
  for (std::size_t m = 0; m < a.mdr.size(); ++m) {
    ASSERT_EQ(a.mdr[m].placement.num_blocks(), b.mdr[m].placement.num_blocks());
    for (std::uint32_t blk = 0; blk < a.mdr[m].placement.num_blocks(); ++blk) {
      EXPECT_EQ(a.mdr[m].placement.site_of(blk),
                b.mdr[m].placement.site_of(blk));
    }
    EXPECT_EQ(a.mdr[m].netlist.num_blocks(), b.mdr[m].netlist.num_blocks());
    EXPECT_EQ(a.mdr[m].netlist.num_nets(), b.mdr[m].netlist.num_nets());
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

  ASSERT_EQ(a.tunable.has_value(), b.tunable.has_value());
  if (a.tunable.has_value()) {
    EXPECT_EQ(a.tunable->num_tluts(), b.tunable->num_tluts());
    EXPECT_EQ(a.tunable->num_tios(), b.tunable->num_tios());
    EXPECT_EQ(a.tunable->parameterized_lut_bit_count(),
              b.tunable->parameterized_lut_bit_count());
  }
  const auto ma = reconfig_metrics(a, bitstream::MuxEncoding::Binary);
  const auto mb = reconfig_metrics(b, bitstream::MuxEncoding::Binary);
  EXPECT_EQ(ma.mdr_bits, mb.mdr_bits);
  EXPECT_EQ(ma.dcs_bits, mb.dcs_bits);
  EXPECT_EQ(ma.diff_bits, mb.diff_bits);
}

// ---- canonical cache-key hashing (satellite regression tests) ---------------

TEST(CanonicalHash, NegativeZeroNormalizes) {
  EXPECT_EQ(canonical_f64_bits(-0.0), canonical_f64_bits(0.0));
  EXPECT_EQ(canonical_f64_bits(0.0), 0u);

  // -0.0 in any hashed float knob must address the same entry as +0.0
  // (they compare equal and run the identical flow).
  FlowOptions plus;
  FlowOptions minus;
  plus.timing_tradeoff = 0.0;
  minus.timing_tradeoff = -0.0;
  EXPECT_EQ(hash_flow_options(plus), hash_flow_options(minus));
  plus.anneal.exit_t_fraction = 0.0;
  minus.anneal.exit_t_fraction = -0.0;
  EXPECT_EQ(hash_flow_options(plus), hash_flow_options(minus));
}

TEST(CanonicalHash, NanIsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(canonical_f64_bits(nan), PreconditionError);
  FlowOptions options;
  options.area_slack = nan;
  EXPECT_THROW(hash_flow_options(options), PreconditionError);
}

TEST(CanonicalHash, PinnedValuesForNormalInputs) {
  // Golden values captured from the current implementation: the on-disk
  // store addresses entries by these hashes, so any drift silently orphans
  // every existing cache (and -0.0/NaN canonicalization must not move the
  // hash of normal inputs). Update only on a deliberate key break: a
  // format break (together with ArtifactStore::kFormatVersion), a change
  // of what a width probe returns (together with flows.cpp's
  // kWidthSearchVersion), or a change of which knobs are hashed (the last
  // move: RouterOptions::seed was deleted and FlowOptions::encoding, which
  // no flow stage reads, left the hash).
  EXPECT_EQ(hash_flow_options(FlowOptions{}), 0xbe859088b884d032ULL);

  FlowOptions fast;
  fast.anneal.inner_num = 2.0;
  EXPECT_EQ(hash_flow_options(fast), 0xec3c6792d7094c5eULL);

  FlowOptions tweaked;
  tweaked.area_slack = 1.5;
  tweaked.width_slack = 1.3;
  tweaked.max_channel_width = 64;
  EXPECT_EQ(hash_flow_options(tweaked), 0xbf778977bc441acdULL);

  EXPECT_EQ(FlowKeyHash{}(sample_key()), 0x88fffb80f3863542ULL);
}

// ---- entry-level failure paths ----------------------------------------------

TEST(ArtifactStore, ExperimentEntryRoundtrip) {
  TempDir dir;
  ArtifactStore store(dir.path);
  const auto key = sample_key();

  const auto misses = counter("flowcache.disk_misses");
  EXPECT_FALSE(store.load_experiment(key).has_value());
  EXPECT_EQ(counter("flowcache.disk_misses"), misses + 1);

  const auto writes = counter("flowcache.disk_writes");
  EXPECT_TRUE(store.save_experiment(key, sample_experiment()));
  EXPECT_EQ(counter("flowcache.disk_writes"), writes + 1);

  const auto hits = counter("flowcache.disk_hits");
  const auto loaded = store.load_experiment(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(counter("flowcache.disk_hits"), hits + 1);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(loaded->min_width, 6);
  ASSERT_EQ(loaded->mdr_problems.size(), 1u);
  EXPECT_EQ(loaded->mdr_problems[0].nets[0].name, "n0");
  EXPECT_EQ(loaded->mdr_problems[0].nets[0].source_node, 3u);
  ASSERT_EQ(loaded->mdr_routing.size(), 1u);
  expect_same_routing(loaded->mdr_routing[0],
                      sample_experiment().mdr_routing[0]);
  expect_same_routing(loaded->dcs_routing, sample_experiment().dcs_routing);
}

TEST(ArtifactStore, TruncatedEntryIsInvalidNotFatal) {
  TempDir dir;
  ArtifactStore store(dir.path);
  const auto key = sample_key();
  ASSERT_TRUE(store.save_experiment(key, sample_experiment()));
  const auto path = only_entry(dir.path / "experiments");
  truncate_file(path, fs::file_size(path) / 2);

  const auto invalid = counter("flowcache.disk_invalid");
  EXPECT_FALSE(store.load_experiment(key).has_value());
  EXPECT_EQ(counter("flowcache.disk_invalid"), invalid + 1);

  // Recomputation rewrites the entry; the store recovers.
  ASSERT_TRUE(store.save_experiment(key, sample_experiment()));
  EXPECT_TRUE(store.load_experiment(key).has_value());
}

TEST(ArtifactStore, WrongFormatVersionIsInvalid) {
  TempDir dir;
  ArtifactStore store(dir.path);
  const auto key = sample_key();
  ASSERT_TRUE(store.save_experiment(key, sample_experiment()));
  flip_byte(only_entry(dir.path / "experiments"), 4);  // format version field

  const auto invalid = counter("flowcache.disk_invalid");
  EXPECT_FALSE(store.load_experiment(key).has_value());
  EXPECT_EQ(counter("flowcache.disk_invalid"), invalid + 1);
}

TEST(ArtifactStore, WrongSchemaHashIsInvalid) {
  TempDir dir;
  ArtifactStore store(dir.path);
  const auto key = sample_key();
  ASSERT_TRUE(store.save_experiment(key, sample_experiment()));
  flip_byte(only_entry(dir.path / "experiments"), 8);  // schema hash field

  const auto invalid = counter("flowcache.disk_invalid");
  EXPECT_FALSE(store.load_experiment(key).has_value());
  EXPECT_EQ(counter("flowcache.disk_invalid"), invalid + 1);
}

TEST(ArtifactStore, GarbledPayloadFailsChecksum) {
  TempDir dir;
  ArtifactStore store(dir.path);
  const auto key = sample_key();
  ASSERT_TRUE(store.save_experiment(key, sample_experiment()));
  const auto path = only_entry(dir.path / "experiments");
  flip_byte(path, fs::file_size(path) - 1);  // last payload byte

  const auto invalid = counter("flowcache.disk_invalid");
  EXPECT_FALSE(store.load_experiment(key).has_value());
  EXPECT_EQ(counter("flowcache.disk_invalid"), invalid + 1);
}

TEST(ArtifactStore, KeyMismatchIsInvalid) {
  TempDir dir;
  ArtifactStore store(dir.path);
  const auto key = sample_key();
  FlowKey other = key;
  other.seed = 999;
  ASSERT_TRUE(store.save_experiment(key, sample_experiment()));
  const auto key_file = only_entry(dir.path / "experiments");
  ASSERT_TRUE(store.save_experiment(other, sample_experiment()));
  // Overwrite `other`'s entry with `key`'s bytes: the full key embedded in
  // the header must reject the imposter even though the filename matches.
  fs::path other_file;
  for (const auto& entry : fs::directory_iterator(dir.path / "experiments")) {
    if (entry.path() != key_file) other_file = entry.path();
  }
  ASSERT_FALSE(other_file.empty());
  fs::copy_file(key_file, other_file, fs::copy_options::overwrite_existing);

  const auto invalid = counter("flowcache.disk_invalid");
  EXPECT_FALSE(store.load_experiment(other).has_value());
  EXPECT_EQ(counter("flowcache.disk_invalid"), invalid + 1);
}

TEST(ArtifactStore, UnwritableRootDegradesGracefully) {
  // Root path is an existing regular file: directories cannot be created,
  // writes fail, reads miss — and nothing throws (the flow must complete
  // with a broken cache dir; also covers read-only directories, which
  // cannot be simulated reliably when the suite runs as root).
  TempDir dir;
  const fs::path bogus = dir.path / "not_a_directory";
  std::ofstream(bogus) << "occupied";

  ArtifactStore store(bogus);
  const auto key = sample_key();
  const auto errors = counter("flowcache.disk_write_errors");
  EXPECT_FALSE(store.save_experiment(key, sample_experiment()));
  EXPECT_GE(counter("flowcache.disk_write_errors"), errors + 1);
  EXPECT_FALSE(store.load_experiment(key).has_value());
  EXPECT_EQ(store.size(), 0u);

  // Through the FlowCache the broken store is equally invisible: lookups
  // miss, stores still land in memory.
  FlowCache cache;
  cache.attach_store(std::make_shared<ArtifactStore>(bogus));
  EXPECT_EQ(cache.find_experiment(key), nullptr);
  EXPECT_NE(cache.store_experiment(key, sample_experiment()), nullptr);
  EXPECT_NE(cache.find_experiment(key), nullptr);
}

TEST(ArtifactStore, ConcurrentWritersToOneKeyLandWholeEntries) {
  TempDir dir;
  ArtifactStore store(dir.path);
  const auto key = sample_key();
  const auto experiment = sample_experiment();

  std::vector<std::thread> writers;
  writers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    writers.emplace_back([&store, &key, &experiment] {
      for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(store.save_experiment(key, experiment));
      }
    });
  }
  for (auto& w : writers) w.join();

  // Whoever won, the committed entry is whole and valid (atomic renames,
  // identical bytes) and no tmp files leak.
  const auto loaded = store.load_experiment(key);
  ASSERT_TRUE(loaded.has_value());
  expect_same_routing(loaded->dcs_routing, experiment.dcs_routing);
  for (const auto& entry : fs::directory_iterator(dir.path / "experiments")) {
    EXPECT_EQ(entry.path().extension(), ".bin")
        << "leftover tmp file " << entry.path();
  }
}

// ---- whole-flow persistence (the determinism contract) ----------------------

TEST(ArtifactStore, WarmProcessReproducesColdRunBitIdentically) {
  TempDir dir;
  const auto modes = two_modes(30, 11);
  const auto options = fast_options(CombinedCost::WireLength, 3);

  // "Process" 1: cold — computes everything, writes the experiment behind.
  std::shared_ptr<const MultiModeExperiment> cold;
  const auto writes = counter("flowcache.disk_writes");
  {
    FlowCache cache;
    RrgCache rrgs;
    cache.attach_store(std::make_shared<ArtifactStore>(dir.path));
    cold = run_experiment_shared(modes, options, FlowContext{&cache, &rrgs});
  }
  EXPECT_EQ(counter("flowcache.disk_writes"), writes + 1);

  // "Process" 2: a fresh cache over the same directory — the whole
  // experiment must come back from disk, bit-identical.
  const auto hits = counter("flowcache.disk_hits");
  FlowCache cache;
  RrgCache rrgs;
  cache.attach_store(std::make_shared<ArtifactStore>(dir.path));
  const auto warm =
      run_experiment_shared(modes, options, FlowContext{&cache, &rrgs});
  EXPECT_GT(counter("flowcache.disk_hits"), hits);
  expect_same_experiment(*cold, *warm);
}

TEST(ArtifactStore, EngineSweepInALaterProcessRecomputesMdrSideIdentically) {
  TempDir dir;
  const auto modes = two_modes(30, 12);

  std::shared_ptr<const MultiModeExperiment> first;
  {
    FlowCache cache;
    RrgCache rrgs;
    cache.attach_store(std::make_shared<ArtifactStore>(dir.path));
    first = run_experiment_shared(modes,
                                  fast_options(CombinedCost::WireLength, 3),
                                  FlowContext{&cache, &rrgs});
  }

  // A fresh "process" running the *other* engine has nothing on disk to
  // read — the store keeps whole experiments only — so it recomputes the
  // MDR side, which must come out bit-identical, and writes exactly its
  // own experiment entry.
  const auto hits = counter("flowcache.disk_hits");
  const auto writes = counter("flowcache.disk_writes");
  FlowCache cache;
  RrgCache rrgs;
  cache.attach_store(std::make_shared<ArtifactStore>(dir.path));
  const auto second = run_experiment_shared(
      modes, fast_options(CombinedCost::EdgeMatch, 3),
      FlowContext{&cache, &rrgs});
  EXPECT_EQ(counter("flowcache.disk_hits"), hits);
  EXPECT_EQ(counter("flowcache.disk_writes"), writes + 1);
  EXPECT_EQ(ArtifactStore(dir.path).size(), 2u);

  ASSERT_EQ(first->mdr.size(), second->mdr.size());
  for (std::size_t m = 0; m < first->mdr.size(); ++m) {
    ASSERT_EQ(first->mdr[m].placement.num_blocks(),
              second->mdr[m].placement.num_blocks());
    for (std::uint32_t blk = 0; blk < first->mdr[m].placement.num_blocks();
         ++blk) {
      EXPECT_EQ(first->mdr[m].placement.site_of(blk),
                second->mdr[m].placement.site_of(blk));
    }
  }
  ASSERT_EQ(first->mdr_routing.size(), second->mdr_routing.size());
  for (std::size_t m = 0; m < first->mdr_routing.size(); ++m) {
    expect_same_routing(first->mdr_routing[m], second->mdr_routing[m]);
  }
}

TEST(ArtifactStore, CorruptExperimentEntryRecomputesAndHeals) {
  TempDir dir;
  const auto modes = two_modes(25, 13);
  const auto options = fast_options(CombinedCost::WireLength, 5);

  std::shared_ptr<const MultiModeExperiment> cold;
  {
    FlowCache cache;
    RrgCache rrgs;
    cache.attach_store(std::make_shared<ArtifactStore>(dir.path));
    cold = run_experiment_shared(modes, options, FlowContext{&cache, &rrgs});
  }
  const auto entry = only_entry(dir.path / "experiments");
  truncate_file(entry, fs::file_size(entry) / 3);

  // Warm run over the corrupted entry: invalid -> recompute -> rewrite.
  const auto invalid = counter("flowcache.disk_invalid");
  std::shared_ptr<const MultiModeExperiment> warm;
  {
    FlowCache cache;
    RrgCache rrgs;
    cache.attach_store(std::make_shared<ArtifactStore>(dir.path));
    warm = run_experiment_shared(modes, options, FlowContext{&cache, &rrgs});
  }
  EXPECT_GT(counter("flowcache.disk_invalid"), invalid);
  expect_same_experiment(*cold, *warm);

  // The rewrite healed the entry: a third fresh cache loads it from disk.
  const auto hits = counter("flowcache.disk_hits");
  FlowCache cache;
  RrgCache rrgs;
  cache.attach_store(std::make_shared<ArtifactStore>(dir.path));
  const auto healed =
      run_experiment_shared(modes, options, FlowContext{&cache, &rrgs});
  EXPECT_GT(counter("flowcache.disk_hits"), hits);
  expect_same_experiment(*cold, *healed);
}

TEST(ArtifactStore, BatchDriverSharesOneStoreAcrossWorkers) {
  TempDir dir;
  const auto modes = std::make_shared<const std::vector<techmap::LutCircuit>>(
      two_modes(25, 14));
  auto base = fast_options(CombinedCost::WireLength, 21);

  BatchOptions batch_options;
  batch_options.jobs = 2;
  batch_options.cache_dir = dir.path.string();

  std::vector<BatchResult> cold;
  {
    BatchDriver driver(batch_options);
    cold = driver.run(seed_sweep("store", modes, base, 2));
  }
  ASSERT_EQ(cold.size(), 2u);
  for (const auto& result : cold) {
    ASSERT_TRUE(result.experiment != nullptr) << result.error;
  }
  // One entry per finished job: the sub-experiment artifacts stay in memory.
  EXPECT_EQ(ArtifactStore(dir.path).size(), 2u);

  // A second driver (fresh process's worth of state) over the same
  // directory replays both seeds from disk, bit-identically.
  const auto hits = counter("flowcache.disk_hits");
  BatchDriver driver(batch_options);
  const auto warm = driver.run(seed_sweep("store", modes, base, 2));
  EXPECT_GT(counter("flowcache.disk_hits"), hits);
  ASSERT_EQ(warm.size(), 2u);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    ASSERT_TRUE(warm[i].experiment != nullptr) << warm[i].error;
    expect_same_experiment(*cold[i].experiment, *warm[i].experiment);
  }
}

}  // namespace
}  // namespace mmflow::core
