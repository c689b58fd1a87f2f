#include "core/flows.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/log.h"
#include "common/perf.h"
#include "core/artifact_store.h"

namespace mmflow::core {

using arch::ArchSpec;
using arch::DeviceGrid;
using arch::RoutingGraph;
using arch::Site;

route::RouteProblem SiteRouteSpec::instantiate(const RoutingGraph& rrg) const {
  route::RouteProblem out;
  out.num_modes = num_modes;
  out.nets.reserve(nets.size());
  for (const Net& net : nets) {
    route::RouteNet rn;
    rn.name = net.name;
    rn.source_node = rrg.source_of(net.source);
    rn.conns.reserve(net.conns.size());
    for (const Conn& conn : net.conns) {
      rn.conns.push_back(route::RouteConn{rrg.sink_of(conn.sink), conn.modes});
    }
    out.nets.push_back(std::move(rn));
  }
  return out;
}

// ---- hashing ----------------------------------------------------------------

namespace {

/// Byte-wise FNV-1a accumulator; every field is serialized through it so the
/// hash is a function of values only, never of memory layout or padding.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(canonical_f64_bits(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
};

/// Version of the width search's probe semantics, mixed into every options
/// hash. Bump it whenever a probe's outcome may differ from the one an
/// older binary stored, so that binary's store entries become clean misses.
/// 1: probes give up on hopeless congestion (route::RouteMode::Probe).
constexpr std::uint64_t kWidthSearchVersion = 1;

}  // namespace

std::uint64_t canonical_f64_bits(double value) {
  MMFLOW_REQUIRE_MSG(!std::isnan(value),
                     "NaN cannot enter a flow cache key (it compares unequal "
                     "to itself, so the entry could never be found again)");
  if (value == 0.0) value = 0.0;  // collapse -0.0: the two compare equal
  return std::bit_cast<std::uint64_t>(value);
}

std::uint64_t hash_modes(const std::vector<techmap::LutCircuit>& modes) {
  Fnv fnv;
  fnv.u64(modes.size());
  for (const auto& mode : modes) {
    fnv.i64(mode.k());
    fnv.str(mode.name());
    fnv.u64(mode.num_pis());
    for (const auto& pi : mode.pi_names()) fnv.str(pi);
    fnv.u64(mode.num_blocks());
    for (const auto& block : mode.blocks()) {
      fnv.str(block.name);
      fnv.u64(block.inputs.size());
      for (const auto& ref : block.inputs) {
        fnv.byte(static_cast<std::uint8_t>(ref.kind));
        fnv.u64(ref.index);
      }
      fnv.u64(block.truth);
      fnv.byte(block.has_ff ? 1 : 0);
      fnv.byte(block.ff_init ? 1 : 0);
    }
    fnv.u64(mode.num_pos());
    for (const auto& po : mode.pos()) {
      fnv.str(po.name);
      fnv.byte(static_cast<std::uint8_t>(po.driver.kind));
      fnv.u64(po.driver.index);
    }
  }
  return fnv.h;
}

std::uint64_t hash_arch(const arch::ArchSpec& spec) {
  Fnv fnv;
  fnv.i64(spec.nx);
  fnv.i64(spec.ny);
  fnv.i64(spec.channel_width);
  fnv.i64(spec.k);
  fnv.i64(spec.io_capacity);
  fnv.byte(static_cast<std::uint8_t>(spec.switch_box));
  return fnv.h;
}

std::uint64_t hash_flow_options(const FlowOptions& options) {
  Fnv fnv;
  fnv.u64(kWidthSearchVersion);
  fnv.f64(options.area_slack);
  fnv.f64(options.width_slack);
  fnv.f64(options.anneal.inner_num);
  fnv.f64(options.anneal.init_t_factor);
  fnv.f64(options.anneal.exit_t_fraction);
  const route::RouterOptions& r = options.router;
  fnv.i64(r.max_iterations);
  fnv.i64(r.split_conflicted_after);
  fnv.f64(r.first_iter_pres_fac);
  fnv.f64(r.pres_fac_mult);
  fnv.f64(r.max_pres_fac);
  fnv.f64(r.hist_fac);
  fnv.f64(r.share_discount);
  fnv.f64(r.align_discount);
  fnv.f64(r.astar_fac);
  fnv.i64(options.max_channel_width);
  fnv.byte(options.tplace_from_scratch_for_edgematch ? 1 : 0);
  // timing_tradeoff is deliberately NOT hashed here: it rides in
  // FlowKey::variant (whole-experiment entries only), so the λ-independent
  // MDR artifacts share cache entries across a tradeoff sweep and every
  // hash is bit-identical to the ones produced before the knob existed.
  // route_jobs and RouterOptions::jobs are not hashed: both must be 1.
  // encoding is not hashed either: no flow stage reads it (it only selects
  // the metric encoding applied to a finished experiment), so two encodings
  // of one experiment share one entry.
  return fnv.h;
}

std::size_t FlowKeyHash::operator()(const FlowKey& key) const noexcept {
  Fnv fnv;
  fnv.u64(key.netlist);
  fnv.u64(key.arch);
  fnv.u64(key.options);
  fnv.u64(key.seed);
  fnv.u64(key.engine);
  fnv.i64(key.width);
  fnv.u64(key.variant);
  return static_cast<std::size_t>(fnv.h);
}

// ---- FlowCache --------------------------------------------------------------

void FlowCache::attach_store(std::shared_ptr<ArtifactStore> store) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_ = std::move(store);
}

std::shared_ptr<const MultiModeExperiment> FlowCache::find_experiment(
    const FlowKey& key) {
  std::shared_ptr<ArtifactStore> store;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = experiments_.find(key);
    if (it != experiments_.end()) {
      MMFLOW_PERF_ADD("flowcache.experiment_hits", 1);
      return it->second;
    }
    MMFLOW_PERF_ADD("flowcache.experiment_misses", 1);
    store = store_;
  }
  if (store == nullptr) return nullptr;
  // Disk read-through outside the lock (I/O + deserialization must not
  // serialize other keys' lookups); concurrent loads of the same key race
  // benignly — identical bytes, first promotion into memory wins.
  auto loaded = store->load_experiment(key);
  if (!loaded.has_value()) return nullptr;
  auto value = std::make_shared<const MultiModeExperiment>(std::move(*loaded));
  const std::lock_guard<std::mutex> lock(mutex_);
  return experiments_.try_emplace(key, std::move(value)).first->second;
}

std::shared_ptr<const MultiModeExperiment> FlowCache::store_experiment(
    const FlowKey& key, MultiModeExperiment experiment) {
  auto value =
      std::make_shared<const MultiModeExperiment>(std::move(experiment));
  std::shared_ptr<ArtifactStore> store;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = experiments_.try_emplace(key, value);
    if (!inserted) return it->second;  // already cached (and persisted)
    store = store_;
  }
  // Write-behind: only the canonical first writer persists the entry.
  if (store != nullptr) store->save_experiment(key, *value);
  return value;
}

std::shared_ptr<const std::vector<ModeImpl>> FlowCache::mdr_or_compute(
    const FlowKey& key,
    const std::function<std::vector<ModeImpl>()>& compute) {
  std::shared_future<std::shared_ptr<const std::vector<ModeImpl>>> waiting;
  std::promise<std::shared_ptr<const std::vector<ModeImpl>>> promise;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = mdr_.find(key);
    if (it != mdr_.end()) {
      MMFLOW_PERF_ADD("flowcache.mdr_hits", 1);
      return it->second;
    }
    const auto inflight = mdr_inflight_.find(key);
    if (inflight != mdr_inflight_.end()) {
      waiting = inflight->second;
    } else {
      MMFLOW_PERF_ADD("flowcache.mdr_misses", 1);
      mdr_inflight_.emplace(key, promise.get_future().share());
    }
  }
  if (waiting.valid()) {
    // Another worker is annealing this bundle right now; wait and share
    // its result instead of duplicating the work.
    MMFLOW_PERF_ADD("flowcache.mdr_hits", 1);
    return waiting.get();
  }
  std::shared_ptr<const std::vector<ModeImpl>> value;
  try {
    value = std::make_shared<const std::vector<ModeImpl>>(compute());
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      mdr_inflight_.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    mdr_.try_emplace(key, value);
    mdr_inflight_.erase(key);
  }
  promise.set_value(value);
  return value;
}

std::optional<bool> FlowCache::find_probe(const FlowKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = probes_.find(key);
  if (it == probes_.end()) {
    MMFLOW_PERF_ADD("flowcache.probe_misses", 1);
    return std::nullopt;
  }
  MMFLOW_PERF_ADD("flowcache.probe_hits", 1);
  return it->second;
}

bool FlowCache::store_probe(const FlowKey& key, bool routable) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return probes_.try_emplace(key, routable).first->second;
}

std::shared_ptr<const MdrFinalRoutes> FlowCache::find_mdr_routes(
    const FlowKey& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = mdr_routes_.find(key);
  if (it == mdr_routes_.end()) {
    MMFLOW_PERF_ADD("flowcache.final_route_misses", 1);
    return nullptr;
  }
  MMFLOW_PERF_ADD("flowcache.final_route_hits", 1);
  return it->second;
}

std::shared_ptr<const MdrFinalRoutes> FlowCache::store_mdr_routes(
    const FlowKey& key, MdrFinalRoutes routes) {
  auto value = std::make_shared<const MdrFinalRoutes>(std::move(routes));
  const std::lock_guard<std::mutex> lock(mutex_);
  return mdr_routes_.try_emplace(key, std::move(value)).first->second;
}

std::size_t FlowCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return experiments_.size() + mdr_.size() + probes_.size() +
         mdr_routes_.size();
}

void FlowCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  experiments_.clear();
  mdr_.clear();
  probes_.clear();
  mdr_routes_.clear();
}

// ---- RrgCache ---------------------------------------------------------------

std::shared_ptr<const RoutingGraph> RrgCache::get(const ArchSpec& spec) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_arch_.find(spec);
    if (it != by_arch_.end()) {
      MMFLOW_PERF_ADD("rrgcache.hits", 1);
      return it->second;
    }
  }
  // Build outside the lock: graph construction is the expensive part and
  // other widths' lookups should not serialize behind it. A concurrent
  // duplicate build of the same spec is resolved first-writer-wins.
  MMFLOW_PERF_ADD("rrgcache.misses", 1);
  auto built = std::make_shared<const RoutingGraph>(spec);
  const std::lock_guard<std::mutex> lock(mutex_);
  return by_arch_.try_emplace(spec, std::move(built)).first->second;
}

std::size_t RrgCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return by_arch_.size();
}

void RrgCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  by_arch_.clear();
}

// ---- run_experiment ---------------------------------------------------------

namespace {

/// Routing spec of one placed mode (single-mode problem for MDR).
SiteRouteSpec mdr_route_spec(const place::PlaceNetlist& netlist,
                             const place::Placement& placement) {
  SiteRouteSpec spec;
  spec.num_modes = 1;
  for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
    const auto& net = netlist.nets()[n];
    SiteRouteSpec::Net out;
    out.name = "n" + std::to_string(n);
    out.source = placement.site_of(net.driver);
    for (const auto sink : net.sinks) {
      out.conns.push_back(SiteRouteSpec::Conn{placement.site_of(sink), 1});
    }
    spec.nets.push_back(std::move(out));
  }
  return spec;
}

/// Routing spec of the Tunable circuit: one net per tunable source endpoint,
/// one connection per Tunable connection with its activation mask.
SiteRouteSpec dcs_route_spec_from(const tunable::TunableCircuit& tc,
                                  const std::vector<Site>& tlut_site,
                                  const std::vector<Site>& tio_site) {
  SiteRouteSpec spec;
  spec.num_modes = tc.num_modes();
  auto site_of = [&](tunable::TRef r) {
    return r.kind == tunable::TRef::Kind::Tlut ? tlut_site[r.index]
                                               : tio_site[r.index];
  };
  for (const auto& net : tc.nets()) {
    SiteRouteSpec::Net out;
    out.name = (net.source.kind == tunable::TRef::Kind::Tlut ? "tlut" : "tio") +
               std::to_string(net.source.index);
    out.source = site_of(net.source);
    for (const auto c : net.conns) {
      const auto& conn = tc.conns()[c];
      out.conns.push_back(
          SiteRouteSpec::Conn{site_of(conn.sink),
                              static_cast<route::ModeMask>(conn.activation)});
    }
    spec.nets.push_back(std::move(out));
  }
  return spec;
}

/// Places the merged Tunable circuit with TPlace from scratch (EdgeMatch
/// pipeline: topology is fixed, geometry is re-optimized).
void tplace_from_scratch(const tunable::TunableCircuit& tc,
                         const DeviceGrid& grid, std::uint64_t seed,
                         const place::AnnealOptions& anneal,
                         const CancelToken* cancel,
                         std::vector<Site>* tlut_site,
                         std::vector<Site>* tio_site) {
  // Lower the Tunable circuit to a PlaceNetlist: TLUTs are logic blocks,
  // TIOs are IO blocks, tunable nets are the placement nets.
  place::PlaceNetlist pn;
  for (std::uint32_t t = 0; t < tc.num_tluts(); ++t) {
    pn.add_block(place::PlaceBlock::Type::Clb, "tlut" + std::to_string(t));
  }
  const auto tio_base = static_cast<std::uint32_t>(pn.num_blocks());
  for (std::uint32_t t = 0; t < tc.num_tios(); ++t) {
    pn.add_block(place::PlaceBlock::Type::Io, "tio" + std::to_string(t));
  }
  auto block_of = [&](tunable::TRef r) {
    return r.kind == tunable::TRef::Kind::Tlut ? r.index : tio_base + r.index;
  };
  for (const auto& net : tc.nets()) {
    place::PlaceNet out;
    out.driver = block_of(net.source);
    for (const auto c : net.conns) {
      out.sinks.push_back(block_of(tc.conns()[c].sink));
    }
    std::sort(out.sinks.begin(), out.sinks.end());
    out.sinks.erase(std::unique(out.sinks.begin(), out.sinks.end()),
                    out.sinks.end());
    if (!out.sinks.empty()) pn.add_net(std::move(out));
  }

  place::PlacerOptions options;
  options.seed = seed;
  options.anneal = anneal;
  options.cancel = cancel;
  const place::Placement placed = place::place(pn, grid, options);

  tlut_site->resize(tc.num_tluts());
  tio_site->resize(tc.num_tios());
  for (std::uint32_t t = 0; t < tc.num_tluts(); ++t) {
    (*tlut_site)[t] = placed.site_of(t);
  }
  for (std::uint32_t t = 0; t < tc.num_tios(); ++t) {
    (*tio_site)[t] = placed.site_of(tio_base + t);
  }
}

}  // namespace

namespace {

/// The uncached pipeline body. `base_key` carries the (netlist, arch,
/// options, seed) identity for the *sub-experiment* caches when
/// `context.cache` is set; the whole-experiment cache is the callers'
/// business (run_experiment_shared).
MultiModeExperiment compute_experiment(
    const std::vector<techmap::LutCircuit>& modes, const FlowOptions& options,
    const FlowContext& context, const ArchSpec& base, const FlowKey& base_key) {
  MMFLOW_PERF_SCOPE("flow.experiment");
  MMFLOW_PERF_ADD("flow.experiments", 1);
  const int num_modes = static_cast<int>(modes.size());
  const DeviceGrid grid(base);
  FlowCache* const cache = context.cache;

  // route_jobs rides into every route call below, where route() rejects
  // any value but 1.
  route::RouterOptions router = options.router;
  router.jobs = options.route_jobs;
  // The cancel token rides the same way: execution-only, so it reaches every
  // long loop (annealers below, PathFinder here) without touching any key.
  router.cancel = options.cancel;

  // Shared immutable RRGs when a cache is provided, locally built otherwise.
  auto rrg_for = [&](const ArchSpec& spec) -> std::shared_ptr<const RoutingGraph> {
    if (context.rrgs != nullptr) return context.rrgs->get(spec);
    return std::make_shared<const RoutingGraph>(spec);
  };

  MultiModeExperiment exp;

  // ---- MDR: place every mode separately ------------------------------------
  {
    MMFLOW_PERF_SCOPE("flow.mdr_place");
    auto compute_mdr = [&] {
      std::vector<ModeImpl> mdr;
      for (int m = 0; m < num_modes; ++m) {
        ModeImpl impl{place::PlaceNetlist{}, {}, place::Placement(grid, 0), {}};
        impl.netlist = place::to_place_netlist(
            modes[static_cast<std::size_t>(m)], &impl.mapping);
        place::PlacerOptions popt;
        popt.seed = options.seed * 1000003u + static_cast<std::uint64_t>(m);
        popt.anneal = options.anneal;
        popt.cancel = options.cancel;
        impl.placement = place::place(impl.netlist, grid, popt);
        impl.route_spec = mdr_route_spec(impl.netlist, impl.placement);
        mdr.push_back(std::move(impl));
      }
      return mdr;
    };
    if (cache != nullptr) {
      exp.mdr = *cache->mdr_or_compute(base_key, compute_mdr);
    } else {
      exp.mdr = compute_mdr();
    }
  }

  // ---- DCS: combined placement, merge, TPlace ------------------------------
  CombinedPlaceOptions cp_options;
  cp_options.cost = options.cost_engine;
  cp_options.seed = options.seed * 6364136223846793005ULL + 1;
  cp_options.anneal = options.anneal;
  cp_options.timing_tradeoff = options.timing_tradeoff;
  cp_options.cancel = options.cancel;
  const CombinedPlacement combined = combined_place(modes, grid, cp_options);
  ExtractedMerge merge = extract_merge(combined, grid);

  exp.tunable.emplace(modes, merge.assignment);
  exp.tlut_site = std::move(merge.tlut_site);
  exp.tio_site = std::move(merge.tio_site);
  exp.total_mode_connections = exp.tunable->total_mode_connections();
  exp.merged_connections = exp.tunable->num_merged_connections();

  if (options.cost_engine == CombinedCost::EdgeMatch &&
      options.tplace_from_scratch_for_edgematch) {
    MMFLOW_PERF_SCOPE("flow.tplace");
    tplace_from_scratch(*exp.tunable, grid,
                        options.seed * 2862933555777941757ULL + 3,
                        options.anneal, options.cancel, &exp.tlut_site,
                        &exp.tio_site);
  }
  exp.dcs_route_spec =
      dcs_route_spec_from(*exp.tunable, exp.tlut_site, exp.tio_site);

  // ---- channel width: smallest W at which every implementation routes ------
  // The MDR probe outcome at a given width is engine-independent, so it is
  // cached under (base_key, width) and reused by the other engine's search.
  auto all_route = [&](int width) {
    ArchSpec spec = base;
    spec.channel_width = width;
    std::shared_ptr<const RoutingGraph> rrg_sp;  // built lazily: a cached
                                                 // MDR probe may answer
                                                 // "unroutable" without one
    auto rrg = [&]() -> const RoutingGraph& {
      if (rrg_sp == nullptr) rrg_sp = rrg_for(spec);
      return *rrg_sp;
    };
    bool mdr_ok = true;
    FlowKey probe_key = base_key;
    probe_key.width = width;
    std::optional<bool> cached_probe;
    if (cache != nullptr) cached_probe = cache->find_probe(probe_key);
    if (cached_probe.has_value()) {
      mdr_ok = *cached_probe;
    } else {
      for (const auto& impl : exp.mdr) {
        if (!route::route(rrg(), impl.route_spec.instantiate(rrg()), router,
                          route::RouteMode::Probe)
                 .success) {
          mdr_ok = false;
          break;
        }
      }
      if (cache != nullptr) cache->store_probe(probe_key, mdr_ok);
    }
    if (!mdr_ok) return false;
    return route::route(rrg(), exp.dcs_route_spec.instantiate(rrg()), router,
                        route::RouteMode::Probe)
        .success;
  };
  {
    MMFLOW_PERF_SCOPE("flow.width_search");
    exp.min_width =
        route::search_min_width(all_route, options.max_channel_width);
  }
  const int hi = exp.min_width;

  // ---- final implementation with relaxed routing ----------------------------
  MMFLOW_PERF_SCOPE("flow.final_route");
  exp.region = base;
  exp.region.channel_width = std::max(
      hi, static_cast<int>(std::ceil(hi * options.width_slack)));
  const std::shared_ptr<const RoutingGraph> rrg_sp = rrg_for(exp.region);
  const RoutingGraph& rrg = *rrg_sp;
  FlowKey final_key = base_key;
  final_key.width = exp.region.channel_width;
  std::shared_ptr<const MdrFinalRoutes> cached_final;
  if (cache != nullptr) cached_final = cache->find_mdr_routes(final_key);
  if (cached_final != nullptr) {
    exp.mdr_problems = cached_final->problems;
    exp.mdr_routing = cached_final->routings;
  } else {
    for (const auto& impl : exp.mdr) {
      exp.mdr_problems.push_back(impl.route_spec.instantiate(rrg));
      exp.mdr_routing.push_back(
          route::route(rrg, exp.mdr_problems.back(), router));
      MMFLOW_CHECK_MSG(exp.mdr_routing.back().success,
                       "MDR mode unroutable at relaxed width");
    }
    if (cache != nullptr) {
      cache->store_mdr_routes(final_key,
                              MdrFinalRoutes{exp.mdr_problems, exp.mdr_routing});
    }
  }
  exp.dcs_problem = exp.dcs_route_spec.instantiate(rrg);
  exp.dcs_routing = route::route(rrg, exp.dcs_problem, router);
  MMFLOW_CHECK_MSG(exp.dcs_routing.success,
                   "DCS circuit unroutable at relaxed width");
  return exp;
}

/// Region sizing: the square logic array fits the largest mode with the
/// paper's area head-room. Cheap enough to recompute per call. Every flow
/// entry (`run_experiment*`, `experiment_key`) passes through here first,
/// so this is also where the flow inputs are validated.
ArchSpec base_region(const std::vector<techmap::LutCircuit>& modes,
                     const FlowOptions& options) {
  MMFLOW_REQUIRE(!modes.empty() && modes.size() <= 32);
  // The annealer would clamp a non-positive effort to one move per
  // temperature and silently return an unannealed placement.
  MMFLOW_REQUIRE_MSG(options.anneal.inner_num > 0.0,
                     "annealing effort inner_num must be > 0, got "
                         << options.anneal.inner_num);
  // combined_place checks λ as well, but only after the MDR side has run;
  // an out-of-range λ must fail before any work, under either engine.
  MMFLOW_REQUIRE_MSG(
      options.timing_tradeoff >= 0.0 && options.timing_tradeoff <= 1.0,
      "timing_tradeoff must be in [0, 1], got " << options.timing_tradeoff);
  int max_clbs = 0;
  int max_ios = 0;
  for (const auto& mode : modes) {
    max_clbs = std::max<int>(max_clbs, static_cast<int>(mode.num_blocks()));
    max_ios = std::max<int>(
        max_ios, static_cast<int>(mode.num_pis() + mode.num_pos()));
  }
  return arch::size_device(max_clbs, max_ios, options.area_slack, 2,
                           modes[0].k());
}

/// Whole-experiment key against a precomputed base region; the single point
/// of truth the public `experiment_key` and `run_experiment_shared` share
/// (dcsbench/src/trace.cpp looks up with one what the other filed).
FlowKey experiment_key_for(const ArchSpec& base,
                           const std::vector<techmap::LutCircuit>& modes,
                           const FlowOptions& options) {
  FlowKey key;
  key.netlist = hash_modes(modes);
  key.arch = hash_arch(base);
  key.options = hash_flow_options(options);
  key.seed = options.seed;
  key.engine = 1u + static_cast<std::uint32_t>(options.cost_engine);
  // Canonical bits, not raw bits: λ = -0.0 must address the λ = 0.0 entry
  // (they run the identical flow), on disk as much as in memory.
  key.variant = canonical_f64_bits(options.timing_tradeoff);
  return key;
}

}  // namespace

FlowKey experiment_key(const std::vector<techmap::LutCircuit>& modes,
                       const FlowOptions& options) {
  return experiment_key_for(base_region(modes, options), modes, options);
}

std::shared_ptr<const MultiModeExperiment> run_experiment_shared(
    const std::vector<techmap::LutCircuit>& modes, const FlowOptions& options,
    const FlowContext& context) {
  const ArchSpec base = base_region(modes, options);

  // `base_key` identifies the engine-independent MDR artifacts; `exp_key`
  // adds the cost engine (and λ variant) and identifies the whole
  // experiment.
  FlowCache* const cache = context.cache;
  FlowKey base_key;
  FlowKey exp_key;
  if (cache != nullptr) {
    exp_key = experiment_key_for(base, modes, options);
    base_key = exp_key;
    base_key.engine = 0;
    base_key.variant = 0;
  }
  if (cache != nullptr) {
    if (auto hit = cache->find_experiment(exp_key)) return hit;
  }

  MultiModeExperiment exp =
      compute_experiment(modes, options, context, base, base_key);
  if (cache != nullptr) {
    return cache->store_experiment(exp_key, std::move(exp));
  }
  return std::make_shared<const MultiModeExperiment>(std::move(exp));
}

MultiModeExperiment run_experiment(const std::vector<techmap::LutCircuit>& modes,
                                   const FlowOptions& options) {
  return run_experiment(modes, options, FlowContext{});
}

MultiModeExperiment run_experiment(const std::vector<techmap::LutCircuit>& modes,
                                   const FlowOptions& options,
                                   const FlowContext& context) {
  if (context.cache == nullptr) {
    // No whole-experiment cache to feed: skip the shared wrapper and its
    // copy-out so the plain path costs exactly what it did uncached.
    return compute_experiment(modes, options, context,
                              base_region(modes, options), FlowKey{});
  }
  return *run_experiment_shared(modes, options, context);
}

std::vector<bitstream::LutRegionConfig> mdr_lut_configs(
    const MultiModeExperiment& experiment,
    const std::vector<techmap::LutCircuit>& modes) {
  const DeviceGrid grid(experiment.region);
  std::vector<bitstream::LutRegionConfig> configs;
  for (std::size_t m = 0; m < modes.size(); ++m) {
    bitstream::LutRegionConfig config(grid.num_clb_sites());
    const auto& impl = experiment.mdr[m];
    for (std::uint32_t lut = 0; lut < modes[m].num_blocks(); ++lut) {
      const Site s = impl.placement.site_of(impl.mapping.lut_block(lut));
      const auto& block = modes[m].blocks()[lut];
      config.set_site(grid.clb_index(s.x, s.y), block.truth, block.has_ff);
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

std::vector<bitstream::LutRegionConfig> dcs_lut_configs(
    const MultiModeExperiment& experiment) {
  MMFLOW_REQUIRE(experiment.tunable.has_value());
  const auto& tc = *experiment.tunable;
  const DeviceGrid grid(experiment.region);
  std::vector<bitstream::LutRegionConfig> configs;
  for (int m = 0; m < tc.num_modes(); ++m) {
    bitstream::LutRegionConfig config(grid.num_clb_sites());
    for (std::uint32_t t = 0; t < tc.num_tluts(); ++t) {
      const Site s = experiment.tlut_site[t];
      config.set_site(grid.clb_index(s.x, s.y), tc.mode_truth(t, m),
                      tc.mode_uses_ff(t, m));
    }
    configs.push_back(std::move(config));
  }
  return configs;
}

}  // namespace mmflow::core
