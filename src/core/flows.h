#pragma once
/// \file flows.h
/// The two end-to-end multi-mode implementation flows the paper compares
/// (Fig. 2):
///  * **MDR** (Modular Dynamic Reconfiguration): every mode is placed and
///    routed separately in the shared reconfigurable region; a mode switch
///    rewrites the whole region.
///  * **DCS** (the paper's flow): map every mode, place all modes together
///    (combined placement, §III-A), merge co-located LUTs into a Tunable
///    circuit, refine with TPlace, route with TRoute, and emit a
///    parameterized configuration whose mode-dependent bits are the only
///    ones rewritten on a switch.
///
/// Region protocol (§IV-B): one device serves both flows — the square logic
/// array is sized 20% above the largest mode, and the channel width is 20%
/// above the minimum at which *every* implementation (each MDR mode and the
/// DCS Tunable circuit) routes. Using the same region for both flows keeps
/// the bit-count comparison fair.
///
/// ## Flow-level caching (PR 2)
///
/// `run_experiment` is a pure function of (modes, options): identical inputs
/// produce bit-identical outputs. The caching layer below exploits that
/// purity. A `FlowContext` carries two optional caches:
///  * `FlowCache` — memoizes flow artifacts under a `FlowKey`
///    (netlist hash, arch hash, options hash, seed, engine, width), at four
///    granularities: whole experiments, the engine-independent MDR bundle
///    (per-mode placements + route specs), per-width MDR routability probes,
///    and the final-width MDR routings. The sub-experiment entries are what
///    make cost-engine comparisons within one process cheap: the MDR side
///    of an EdgeMatch run is bit-identical to the MDR side of a WireLength
///    run, so the second engine reuses it instead of re-annealing and
///    re-routing.
///  * `RrgCache` — shares immutable `arch::RoutingGraph` instances across
///    runs (keyed by the full ArchSpec, including channel width). One batch
///    of seed restarts probes the same widths over and over; the graph is
///    built once per width.
///
/// Since PR 5 a `FlowCache` can additionally persist whole experiments
/// across processes: an attached `core::ArtifactStore` (see
/// core/artifact_store.h and docs/CACHING.md) makes experiment misses read
/// through to content-addressed on-disk entries and writes freshly computed
/// experiments behind, so a warm second process reproduces a cold first
/// process's QoR bit-identically while skipping the finished jobs. The
/// three sub-experiment granularities stay in memory: a later process that
/// runs the other engine or λ of a stored circuit recomputes them.
///
/// **Determinism contract**: every cached value is the output of a
/// deterministic function of its key, so a cache hit returns exactly the
/// bytes a recomputation would produce. Batched/parallel runs therefore
/// yield bit-identical per-seed results to sequential runs — the batch
/// tests assert this. The only thing scheduling can change is *who* pays
/// for a miss (and hence the hit/miss counter split), never a result.
///
/// **Ownership & thread-safety**: caches own their entries and hand out
/// `shared_ptr<const T>` — callers may hold values after the cache is
/// cleared, and entries are immutable after insertion. All cache methods are
/// mutex-guarded and safe to call from concurrent flow jobs; insertion is
/// first-writer-wins (`store_*` returns the canonical entry, which equals
/// any concurrently computed duplicate by the determinism contract).
/// `FlowContext` itself is a non-owning view; the pointed-to caches must
/// outlive every `run_experiment` call using it.

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "arch/rrg.h"
#include "bitstream/config_model.h"
#include "core/combined_place.h"
#include "route/router.h"
#include "tunable/tunable_circuit.h"

namespace mmflow::core {

class ArtifactStore;  // core/artifact_store.h — on-disk persistence layer

/// Channel-width-independent routing problem (sink/source sites instead of
/// RRG node ids), instantiated per candidate W during the search.
struct SiteRouteSpec {
  struct Conn {
    arch::Site sink;
    route::ModeMask modes = 1;
  };
  struct Net {
    std::string name;
    arch::Site source;
    std::vector<Conn> conns;
  };
  int num_modes = 1;
  std::vector<Net> nets;

  [[nodiscard]] route::RouteProblem instantiate(
      const arch::RoutingGraph& rrg) const;
};

struct FlowOptions {
  CombinedCost cost_engine = CombinedCost::WireLength;
  std::uint64_t seed = 1;
  double area_slack = 1.2;        ///< paper: square area 20% above minimum
  double width_slack = 1.2;       ///< paper: channel width 20% above minimum
  /// Mux encoding for the bit counts of a finished experiment
  /// (`core::reconfig_metrics`). No flow stage reads it, so it is not part
  /// of `hash_flow_options`.
  bitstream::MuxEncoding encoding = bitstream::MuxEncoding::Binary;
  place::AnnealOptions anneal;    ///< shared by all SA runs
  route::RouterOptions router;
  int max_channel_width = 128;
  /// EdgeMatch freezes topology before geometry, so its Tunable circuit is
  /// re-placed from scratch by TPlace (the paper's pipeline). WireLength
  /// keeps the combined placement's positions as they are.
  bool tplace_from_scratch_for_edgematch = true;
  /// Timing-driven combined placement: λ in [0, 1] blending the WireLength
  /// engine's merged-wirelength objective with a criticality-weighted
  /// pre-route timing term (see place/timing_model.h). A value outside
  /// [0, 1], or NaN, throws PreconditionError before any work. Only the DCS
  /// side is timing-driven — the MDR baseline stays wirelength-driven so
  /// core::timing_report ratios measure the DCS gain against the paper's
  /// fixed reference flow. 0 (the default) is bit-identical to the λ-less
  /// flow, including the cached-flow hash.
  double timing_tradeoff = 0.0;
  /// Must be 1. The flow copies it into `RouterOptions::jobs`, which
  /// `route::route` rejects unless it is 1. The field exists only so the
  /// frozen benchmark replica under dcsbench/ compiles; it is not hashed.
  int route_jobs = 1;
  /// Optional cooperative cancellation/deadline token, polled at annealer
  /// temperature epochs and PathFinder iterations throughout the flow (the
  /// batch driver plants per-job deadline tokens here — see core/batch.h).
  /// Execution-only: a token never changes the bits a *completed* flow
  /// produces, and a tripped token unwinds by exception before any
  /// cache/store write, so it is excluded from `hash_flow_options` and
  /// every `FlowKey`. Not owned; may be null.
  const CancelToken* cancel = nullptr;
};

/// One mode's MDR implementation.
struct ModeImpl {
  place::PlaceNetlist netlist;
  place::LutPlaceMapping mapping;
  place::Placement placement;
  SiteRouteSpec route_spec;
};

/// Everything produced for one multi-mode circuit: both flows on one region.
struct MultiModeExperiment {
  arch::ArchSpec region;                     ///< final device (incl. W)
  int min_width = 0;                         ///< W_min found by the search

  // MDR.
  std::vector<ModeImpl> mdr;
  std::vector<route::RouteResult> mdr_routing;      ///< per mode
  std::vector<route::RouteProblem> mdr_problems;    ///< per mode (final W)

  // DCS.
  std::optional<tunable::TunableCircuit> tunable;
  std::vector<arch::Site> tlut_site;
  std::vector<arch::Site> tio_site;
  SiteRouteSpec dcs_route_spec;
  route::RouteProblem dcs_problem;                  ///< final W
  route::RouteResult dcs_routing;

  // Merge statistics.
  std::size_t total_mode_connections = 0;
  std::size_t merged_connections = 0;
};

// ---- flow-level caching -----------------------------------------------------

/// Stable 64-bit structural hash of the mode circuits (FNV-1a over every
/// block, truth table, connection and name). Two mode lists hash equal iff a
/// flow run cannot distinguish them.
[[nodiscard]] std::uint64_t hash_modes(
    const std::vector<techmap::LutCircuit>& modes);

/// Stable hash of a full ArchSpec (including channel width).
[[nodiscard]] std::uint64_t hash_arch(const arch::ArchSpec& spec);

/// Stable hash of the flow knobs that influence results, *excluding* the
/// seed and the cost engine — those are separate `FlowKey` fields so that
/// engine-independent artifacts can share entries across engines.
/// Floating-point knobs are hashed through `canonical_f64_bits`, so
/// semantically equal options always hash equal (a hard requirement once
/// keys address on-disk entries); NaN knobs are rejected.
[[nodiscard]] std::uint64_t hash_flow_options(const FlowOptions& options);

/// Canonical IEEE-754 bit pattern used wherever a double enters a cache key
/// (`hash_flow_options` fields, `FlowKey::variant`): -0.0 normalizes to
/// +0.0 — the two compare equal, so they must never address distinct
/// on-disk entries — and NaN throws (no flow knob has a meaningful NaN
/// value, and NaN != NaN would make the key unusable).
[[nodiscard]] std::uint64_t canonical_f64_bits(double value);

/// Cache key for one flow artifact. `engine` is `1 + CombinedCost` for
/// engine-specific entries and 0 for engine-independent ones (the MDR side);
/// `width` is the channel width for per-width entries and -1 for
/// width-independent ones; `variant` is the bit pattern of
/// `timing_tradeoff` for λ-dependent entries (whole experiments) and 0 for
/// λ-independent ones — like `engine`, it lives in the key rather than the
/// options hash so the MDR bundle, width probes and final MDR routes are
/// shared across λ values (a tradeoff sweep pays for the baseline once).
struct FlowKey {
  std::uint64_t netlist = 0;   ///< hash_modes of the input circuits
  std::uint64_t arch = 0;      ///< hash_arch of the base region
  std::uint64_t options = 0;   ///< hash_flow_options
  std::uint64_t seed = 0;      ///< FlowOptions::seed
  std::uint32_t engine = 0;    ///< 0 = engine-independent, else 1+CombinedCost
  std::int32_t width = -1;     ///< -1 = width-independent
  std::uint64_t variant = 0;   ///< 0 = λ-independent, else timing_tradeoff bits

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

struct FlowKeyHash {
  [[nodiscard]] std::size_t operator()(const FlowKey& key) const noexcept;
};

/// The whole-experiment `FlowKey` that `run_experiment_shared` files
/// `(modes, options)` under — exposed so code outside the flow can address
/// its cache entries (the benchmark's traced flow replica,
/// dcsbench/src/trace.cpp, looks results up with it). Dominated by
/// `hash_modes`, so hoist it out of per-seed loops where possible.
[[nodiscard]] FlowKey experiment_key(
    const std::vector<techmap::LutCircuit>& modes, const FlowOptions& options);

/// The final-width MDR routings (problems + results), cached as one unit.
struct MdrFinalRoutes {
  std::vector<route::RouteProblem> problems;
  std::vector<route::RouteResult> routings;
};

/// Memoizes flow artifacts (see the file comment for the determinism,
/// ownership and thread-safety contracts). Every lookup bumps a
/// `flowcache.<kind>_hits` / `flowcache.<kind>_misses` perf counter.
///
/// With an `ArtifactStore` attached (see `attach_store`), whole experiments
/// form a two-level hierarchy: a memory miss in `find_experiment` reads
/// through to the on-disk store (`flowcache.disk_hits`; loaded entries are
/// promoted into memory), and `store_experiment` of a freshly computed
/// experiment writes behind to disk (`flowcache.disk_writes`) — so a later
/// process starts warm. All disk failure modes degrade to misses; see
/// core/artifact_store.h. The MDR bundle, probe and final-route maps are
/// memory-only.
class FlowCache {
 public:
  /// Attaches (or, with nullptr, detaches) the persistence layer for whole
  /// experiments. Not thread-safe against concurrent lookups — attach
  /// before handing the cache to flow jobs. The store may be shared by
  /// several caches.
  void attach_store(std::shared_ptr<ArtifactStore> store);

  std::shared_ptr<const MultiModeExperiment> find_experiment(
      const FlowKey& key);
  /// Insert-if-absent; returns the canonical stored entry.
  std::shared_ptr<const MultiModeExperiment> store_experiment(
      const FlowKey& key, MultiModeExperiment experiment);

  /// Returns the MDR bundle for `key`, computing it at most once even under
  /// concurrency: the first caller runs `compute`; callers arriving while
  /// that computation is in flight block on it and share its result instead
  /// of duplicating the anneal (the expensive half of an experiment) — so a
  /// parallel engine sweep really does pay for the MDR baseline once.
  /// Waiters count as `flowcache.mdr_hits`; an exception from `compute`
  /// propagates to the computing caller and every waiter.
  std::shared_ptr<const std::vector<ModeImpl>> mdr_or_compute(
      const FlowKey& key,
      const std::function<std::vector<ModeImpl>()>& compute);

  /// Routability of the MDR implementations at `key.width`.
  std::optional<bool> find_probe(const FlowKey& key);
  bool store_probe(const FlowKey& key, bool routable);

  std::shared_ptr<const MdrFinalRoutes> find_mdr_routes(const FlowKey& key);
  std::shared_ptr<const MdrFinalRoutes> store_mdr_routes(const FlowKey& key,
                                                         MdrFinalRoutes routes);

  /// Total in-memory entries across all four maps (experiments, MDR
  /// bundles, probes, final MDR routes).
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::unordered_map<FlowKey, std::shared_ptr<const MultiModeExperiment>,
                     FlowKeyHash>
      experiments_;
  std::unordered_map<FlowKey, std::shared_ptr<const std::vector<ModeImpl>>,
                     FlowKeyHash>
      mdr_;
  /// In-flight MDR computations (see mdr_or_compute): waiters share the
  /// computing caller's future instead of recomputing.
  std::unordered_map<
      FlowKey,
      std::shared_future<std::shared_ptr<const std::vector<ModeImpl>>>,
      FlowKeyHash>
      mdr_inflight_;
  std::unordered_map<FlowKey, bool, FlowKeyHash> probes_;
  std::unordered_map<FlowKey, std::shared_ptr<const MdrFinalRoutes>,
                     FlowKeyHash>
      mdr_routes_;
  /// Optional on-disk second level for `experiments_`
  /// (core/artifact_store.h); null = memory only, the pre-PR 5 behaviour.
  std::shared_ptr<ArtifactStore> store_;
};

/// Shares immutable routing resource graphs across runs, keyed by the full
/// ArchSpec (exact field equality — unlike the FlowCache's content hashes,
/// no hash collision can ever substitute a wrong graph). Thread-safe;
/// entries live until `clear()` (callers keep their shared_ptr past that).
/// Bumps `rrgcache.hits` / `rrgcache.misses`.
class RrgCache {
 public:
  /// Returns the graph for `spec`, building it on first use.
  std::shared_ptr<const arch::RoutingGraph> get(const arch::ArchSpec& spec);

  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  struct SpecHash {
    std::size_t operator()(const arch::ArchSpec& spec) const {
      return static_cast<std::size_t>(hash_arch(spec));
    }
  };
  mutable std::mutex mutex_;
  std::unordered_map<arch::ArchSpec,
                     std::shared_ptr<const arch::RoutingGraph>, SpecHash>
      by_arch_;
};

/// Non-owning bundle of the caches a flow run may consult. Either pointer
/// may be null (that cache is simply skipped); the default context disables
/// all caching, which reproduces the uncached PR 1 behaviour exactly.
struct FlowContext {
  FlowCache* cache = nullptr;
  RrgCache* rrgs = nullptr;
};

// ---- the flows --------------------------------------------------------------

/// Runs both flows on one region. The input LutCircuits are the mapped mode
/// circuits ("the MDR tool flow is followed up until the technology
/// mapping"); they are never mutated and no copy is taken. Throws if the
/// circuits cannot be routed within options.max_channel_width.
///
/// Re-entrant: safe to call concurrently from several threads (the batch
/// driver does), including with a shared `context` — see the caching
/// contracts in the file comment.
///
/// The `_shared` form is the zero-copy entry point: on a cache hit it hands
/// out the cache's own (immutable) entry, and on a miss the freshly
/// computed experiment is moved — never copied — into the result. The
/// by-value forms copy once out of it and exist for call sites that want a
/// mutable or independently owned experiment.
[[nodiscard]] std::shared_ptr<const MultiModeExperiment> run_experiment_shared(
    const std::vector<techmap::LutCircuit>& modes, const FlowOptions& options,
    const FlowContext& context);

[[nodiscard]] MultiModeExperiment run_experiment(
    const std::vector<techmap::LutCircuit>& modes, const FlowOptions& options,
    const FlowContext& context);

[[nodiscard]] MultiModeExperiment run_experiment(
    const std::vector<techmap::LutCircuit>& modes,
    const FlowOptions& options = {});

/// Builds the per-mode LUT region configurations (truth bits + FF select per
/// site) for the MDR implementations.
[[nodiscard]] std::vector<bitstream::LutRegionConfig> mdr_lut_configs(
    const MultiModeExperiment& experiment,
    const std::vector<techmap::LutCircuit>& modes);

/// Builds the per-mode LUT region configurations for the DCS implementation.
[[nodiscard]] std::vector<bitstream::LutRegionConfig> dcs_lut_configs(
    const MultiModeExperiment& experiment);

}  // namespace mmflow::core
