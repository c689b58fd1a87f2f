/// Autotuner tests (docs/TUNING.md): Pareto-dominance property battery
/// (strict partial order, minimal insertion-order-invariant fronts), the
/// seeded low-discrepancy sampler, the knob space and objective-set
/// parsers, and the tuner's determinism contract — bit-identical trial
/// schedules and fronts across jobs values and across a kill + rerun on the
/// same cache dir.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/perf.h"
#include "common/rng.h"
#include "helpers.h"
#include "techmap/lutcircuit.h"
#include "tune/knobs.h"
#include "tune/pareto.h"
#include "tune/sampler.h"
#include "tune/tuner.h"

// The shared mode-pair recipe (same as test_batch/test_robustness).
#include "aig/bridge.h"
#include "netlist/netlist.h"
#include "techmap/mapper.h"

namespace mmflow {
namespace {

namespace fs = std::filesystem;

using testing::TempDir;

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

/// A cheap tune setup: tiny mode pair, fast flow, and a knob space that
/// does not touch the annealing effort (so every trial stays quick).
std::vector<tune::TuneBenchmark> tiny_benchmarks(std::uint64_t seed) {
  return {tune::TuneBenchmark{
      "tiny", std::make_shared<const std::vector<techmap::LutCircuit>>(
                  similar_mode_pair(40, seed))}};
}

tune::TuneOptions fast_tune_options() {
  tune::TuneOptions options;
  options.seed = 5;
  options.budget = 4;
  options.base.anneal.inner_num = 2.0;
  options.space = tune::KnobSpace::from_spec(
      "astar_fac=1.0:1.6,align_discount=0.1:1.0", "test");
  return options;
}

/// Everything the determinism contract covers: schedule identity plus
/// bit-identical knob values and objectives. wall_ms is explicitly exempt.
void expect_same_trials(const std::vector<tune::TuneTrial>& a,
                        const std::vector<tune::TuneTrial>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << "trial " << i;
    EXPECT_EQ(a[i].rung, b[i].rung) << "trial " << i;
    EXPECT_EQ(a[i].ok, b[i].ok) << "trial " << i;
    EXPECT_EQ(a[i].knob_values, b[i].knob_values) << "trial " << i;
    EXPECT_EQ(a[i].objectives, b[i].objectives) << "trial " << i;
  }
}

// ------------------------------------------------ dominance & Pareto set --

/// Random objective vector with coordinates drawn from a small grid, so
/// ties and dominance both occur often.
std::vector<double> random_point(Rng& rng, std::size_t dims) {
  std::vector<double> point(dims);
  for (double& v : point) v = static_cast<double>(rng.next_below(8));
  return point;
}

TEST(Pareto, DominanceIsAStrictPartialOrder) {
  Rng rng(123);
  for (int dims = 1; dims <= 4; ++dims) {
    for (int iteration = 0; iteration < 400; ++iteration) {
      const auto a = random_point(rng, dims);
      const auto b = random_point(rng, dims);
      const auto c = random_point(rng, dims);
      // Irreflexive.
      EXPECT_FALSE(tune::dominates(a, a));
      // Asymmetric.
      EXPECT_FALSE(tune::dominates(a, b) && tune::dominates(b, a));
      // Transitive.
      if (tune::dominates(a, b) && tune::dominates(b, c)) {
        EXPECT_TRUE(tune::dominates(a, c));
      }
    }
  }
}

TEST(Pareto, FrontIsMinimalAndComplete) {
  Rng rng(321);
  for (int iteration = 0; iteration < 200; ++iteration) {
    const std::size_t dims = 2 + rng.next_below(3);
    std::vector<tune::ParetoPoint> inserted;
    tune::ParetoSet set(dims);
    for (std::uint64_t tag = 0; tag < 24; ++tag) {
      tune::ParetoPoint point{random_point(rng, dims), tag};
      inserted.push_back(point);
      set.add(std::move(point));
    }
    const auto front = set.points();
    ASSERT_FALSE(front.empty());
    // Minimal: no member dominates (or equals) another.
    for (const auto& a : front) {
      for (const auto& b : front) {
        if (a.tag == b.tag) continue;
        EXPECT_FALSE(tune::dominates(a.objectives, b.objectives));
        EXPECT_NE(a.objectives, b.objectives);
      }
    }
    // Complete: every insertion is dominated by or equal to a member.
    for (const auto& point : inserted) {
      const bool covered = std::any_of(
          front.begin(), front.end(), [&point](const tune::ParetoPoint& m) {
            return m.objectives == point.objectives ||
                   tune::dominates(m.objectives, point.objectives);
          });
      EXPECT_TRUE(covered);
    }
  }
}

TEST(Pareto, FrontIsInsertionOrderInvariant) {
  Rng rng(55);
  for (int iteration = 0; iteration < 100; ++iteration) {
    const std::size_t dims = 2 + rng.next_below(3);
    std::vector<tune::ParetoPoint> points;
    for (std::uint64_t tag = 0; tag < 16; ++tag) {
      points.push_back({random_point(rng, dims), tag});
    }
    tune::ParetoSet forward(dims);
    for (const auto& p : points) forward.add(p);

    // A seeded shuffle (Fisher-Yates on a copy).
    std::vector<tune::ParetoPoint> shuffled = points;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
    }
    tune::ParetoSet backward(dims);
    for (const auto& p : shuffled) backward.add(p);

    const auto a = forward.points();
    const auto b = backward.points();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].tag, b[i].tag);
      EXPECT_EQ(a[i].objectives, b[i].objectives);
    }
  }
}

TEST(Pareto, EqualVectorsKeepTheLowestTag) {
  tune::ParetoSet set(2);
  EXPECT_TRUE(set.add({{1.0, 2.0}, 7}));
  EXPECT_FALSE(set.add({{1.0, 2.0}, 9}));  // higher tag loses
  EXPECT_TRUE(set.add({{1.0, 2.0}, 3}));   // lower tag takes over
  const auto front = set.points();
  ASSERT_EQ(front.size(), 1u);
  EXPECT_EQ(front[0].tag, 3u);
}

TEST(Pareto, RejectsNonFiniteObjectives) {
  tune::ParetoSet set(2);
  EXPECT_THROW(set.add({{1.0, std::nan("")}, 0}), PreconditionError);
  EXPECT_THROW(set.add({{1.0, INFINITY}, 0}), PreconditionError);
  EXPECT_THROW(set.add({{1.0}, 0}), PreconditionError);  // wrong dims
}

// ----------------------------------------------------------------- sampler --

TEST(Sampler, PointsAreInUnitRangeAndSeedDeterministic) {
  const tune::KnobSampler a(4, 42);
  const tune::KnobSampler b(4, 42);
  const tune::KnobSampler other(4, 43);
  bool any_difference = false;
  for (std::uint64_t t = 0; t < 200; ++t) {
    const auto pa = a.unit_point(t);
    ASSERT_EQ(pa.size(), 4u);
    for (const double v : pa) {
      EXPECT_GE(v, 0.0);
      EXPECT_LT(v, 1.0);
    }
    EXPECT_EQ(pa, b.unit_point(t));  // pure function of (dims, seed, t)
    if (pa != other.unit_point(t)) any_difference = true;
  }
  EXPECT_TRUE(any_difference);  // the rotation actually depends on the seed
}

TEST(Sampler, LowDiscrepancyBeatsDegenerateClustering) {
  // Coarse sanity: 64 points over [0,1)^2 should hit most of a 4x4 grid —
  // a lattice that collapsed to a line or point would not.
  const tune::KnobSampler sampler(2, 1);
  std::vector<bool> cell(16, false);
  for (std::uint64_t t = 0; t < 64; ++t) {
    const auto p = sampler.unit_point(t);
    const int cx = std::min(3, static_cast<int>(p[0] * 4));
    const int cy = std::min(3, static_cast<int>(p[1] * 4));
    cell[static_cast<std::size_t>(cy * 4 + cx)] = true;
  }
  EXPECT_GE(std::count(cell.begin(), cell.end(), true), 12);
}

// -------------------------------------------------- knob space & parsing --

TEST(KnobSpace, DefaultsApplyRoundTrip) {
  const auto space = tune::KnobSpace::defaults();
  ASSERT_GT(space.size(), 0u);
  const std::vector<double> lo_corner(space.size(), 0.0);
  const std::vector<double> hi_corner(space.size(), 1.0);
  const auto lo = space.values(lo_corner);
  const auto hi = space.values(hi_corner);
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_DOUBLE_EQ(lo[i], space.knobs()[i].lo);
    EXPECT_DOUBLE_EQ(hi[i], space.knobs()[i].hi);
  }
  core::FlowOptions base;
  const auto applied = space.apply(base, hi_corner);
  EXPECT_DOUBLE_EQ(applied.anneal.inner_num, 20.0);  // registry hi
  // The baseline's coordinates read back the base options unchanged.
  const auto baseline = space.baseline_values(base);
  EXPECT_DOUBLE_EQ(baseline[0], base.anneal.inner_num);
}

TEST(KnobSpace, LogScaleInterpolatesGeometrically) {
  const auto space =
      tune::KnobSpace::from_spec("inner_num=2:32:log", "test");
  ASSERT_EQ(space.size(), 1u);
  EXPECT_DOUBLE_EQ(space.values({0.0})[0], 2.0);
  EXPECT_NEAR(space.values({0.5})[0], 8.0, 1e-9);  // geometric midpoint
  EXPECT_NEAR(space.values({1.0})[0], 32.0, 1e-9);
}

TEST(KnobSpace, RejectsUnknownKnobNamingTheRegistry) {
  try {
    (void)tune::KnobSpace::from_spec("no_such_knob=1:2", "--tune-knobs");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("no_such_knob"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("--tune-knobs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("inner_num"), std::string::npos);
  }
}

TEST(Objectives, ParseValidatesNamesAndWalltime) {
  const auto set = tune::ObjectiveSet::parse("frames,wirelength", "--tune-objectives");
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set.names[0], "frames");
  EXPECT_EQ(set.names[1], "wirelength");
  EXPECT_THROW((void)tune::ObjectiveSet::parse("bogus", "t"), PreconditionError);
  EXPECT_THROW((void)tune::ObjectiveSet::parse("frames,frames", "t"),
               PreconditionError);
  EXPECT_THROW((void)tune::ObjectiveSet::parse("", "t"), PreconditionError);
  try {
    (void)tune::ObjectiveSet::parse("walltime", "--tune-objectives");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("non-deterministic"),
              std::string::npos);
  }
}

// ------------------------------------------------------------ tuner runs --

TEST(Tuner, ScheduleAndFrontAreJobsInvariant) {
  const auto benchmarks = tiny_benchmarks(41);
  auto options = fast_tune_options();

  options.batch.jobs = 1;
  const auto sequential = tune::tune(benchmarks, options);
  options.batch.jobs = 4;
  const auto parallel = tune::tune(benchmarks, options);

  expect_same_trials(sequential.trials, parallel.trials);
  expect_same_trials(sequential.front, parallel.front);
  EXPECT_EQ(sequential.rungs, 3);  // budget 4 -> cohorts 4, 2, 1
  EXPECT_FALSE(sequential.front.empty());
  // Every front point is no worse than the baseline everywhere it ties and
  // strictly better somewhere — guaranteed because the baseline competes.
  for (const auto& point : sequential.front) {
    if (point.index == sequential.baseline.index) continue;
    EXPECT_FALSE(tune::dominates(sequential.baseline.objectives,
                                 point.objectives));
  }
}

/// Sum of the per-rung `tune.rung<N>.disk_hits` counters.
std::uint64_t rung_disk_hits(int rungs) {
  std::uint64_t sum = 0;
  for (int rung = 0; rung < rungs; ++rung) {
    sum += perf::counter_value("tune.rung" + std::to_string(rung) +
                               ".disk_hits");
  }
  return sum;
}

TEST(Tuner, ResumeAfterKillMatchesUninterruptedRunBitIdentically) {
  const auto benchmarks = tiny_benchmarks(43);

  // Reference: uninterrupted, no persistence.
  const auto reference = tune::tune(benchmarks, fast_tune_options());

  // "First process": a full tune persists every experiment.
  TempDir dir;
  auto options = fast_tune_options();
  options.batch.cache_dir = dir.path.string();
  (void)tune::tune(benchmarks, options);

  // The kill: every other whole-experiment entry never got written.
  std::vector<fs::path> entries;
  for (const auto& entry : fs::directory_iterator(dir.path / "experiments")) {
    entries.push_back(entry.path());
  }
  std::sort(entries.begin(), entries.end());
  ASSERT_GE(entries.size(), 2u);
  std::uint64_t deleted = 0;
  for (std::size_t i = 0; i < entries.size(); i += 2, ++deleted) {
    fs::remove(entries[i]);
  }

  // "Second process": a fresh tune on the same dir.
  const std::uint64_t hits_before = perf::counter_value("flowcache.disk_hits");
  const std::uint64_t writes_before =
      perf::counter_value("flowcache.disk_writes");
  const std::uint64_t rung_hits_before = rung_disk_hits(reference.rungs);
  const auto resumed = tune::tune(benchmarks, options);
  const std::uint64_t hits = perf::counter_value("flowcache.disk_hits") -
                             hits_before;

  expect_same_trials(reference.trials, resumed.trials);
  expect_same_trials(reference.front, resumed.front);
  // Surviving experiments loaded; exactly the deleted ones recomputed and
  // rewritten.
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(perf::counter_value("flowcache.disk_writes") - writes_before,
            deleted);
  // The per-rung splits add up to this tune's disk hits, not the process's.
  EXPECT_EQ(rung_disk_hits(reference.rungs) - rung_hits_before, hits);

  // A different tune on the same dir reuses only identical experiments, so
  // it matches its own uncached run.
  auto other = fast_tune_options();
  other.seed = options.seed + 1;
  const auto other_reference = tune::tune(benchmarks, other);
  other.batch.cache_dir = dir.path.string();
  const auto other_cached = tune::tune(benchmarks, other);
  expect_same_trials(other_reference.trials, other_cached.trials);
  expect_same_trials(other_reference.front, other_cached.front);
}

TEST(Tuner, ValidatesItsPreconditions) {
  const auto benchmarks = tiny_benchmarks(53);
  auto options = fast_tune_options();
  options.budget = 0;
  EXPECT_THROW((void)tune::tune(benchmarks, options), PreconditionError);
  EXPECT_THROW((void)tune::tune({}, fast_tune_options()), PreconditionError);
}

}  // namespace
}  // namespace mmflow
