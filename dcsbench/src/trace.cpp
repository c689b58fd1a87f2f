#include "trace.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/perf.h"
#include "core/combined_place.h"
#include "place/placer.h"
#include "route/router.h"

namespace dcsbench {

namespace core = mmflow::core;
namespace place = mmflow::place;
namespace route = mmflow::route;
namespace arch = mmflow::arch;
namespace tunable = mmflow::tunable;

// ---- Tracer ------------------------------------------------------------------

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(std::string name, int job) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), now_ns(), -1, parent, job});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int id, std::string_view rename) {
  MMFLOW_CHECK(!open_.empty() && open_.back() == id);
  open_.pop_back();
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  if (!rename.empty()) span.name = rename;
}

int Tracer::add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                int parent, int job) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, job});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<std::int64_t> Tracer::self_ns() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans_[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    out[i] = spans_[i].end_ns - spans_[i].start_ns - covered;
  }
  return out;
}

double Tracer::total_s(std::string_view name) const {
  std::int64_t total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.end_ns - span.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, int job)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->begin(std::move(name), job);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->end(id_, rename_);
}

// ---- counters ----------------------------------------------------------------

Counters read_counters() {
  Counters out;
  for (const auto& [name, value] :
       mmflow::perf::Registry::instance().counters()) {
    out.emplace(name, value);
  }
  return out;
}

std::uint64_t delta(const Counters& before, const Counters& after,
                    const std::string& name) {
  const auto b = before.find(name);
  const auto a = after.find(name);
  const std::uint64_t from = b == before.end() ? 0 : b->second;
  const std::uint64_t to = a == after.end() ? 0 : a->second;
  return to - from;
}

// ---- the staged replica ------------------------------------------------------
//
// Mirrors core::run_experiment_shared / compute_experiment (src/core/flows.cpp)
// call for call: same seeds, same cache keys and lookups, same width-search
// callback. The private helpers it needs (region sizing, route specs, the
// TPlace lowering) are re-stated here from their public building blocks.

namespace {

arch::ArchSpec base_region(const std::vector<mmflow::techmap::LutCircuit>& modes,
                           const core::FlowOptions& options) {
  int max_clbs = 0;
  int max_ios = 0;
  for (const auto& mode : modes) {
    max_clbs = std::max<int>(max_clbs, static_cast<int>(mode.num_blocks()));
    max_ios = std::max<int>(max_ios,
                            static_cast<int>(mode.num_pis() + mode.num_pos()));
  }
  return arch::size_device(max_clbs, max_ios, options.area_slack, 2,
                           modes[0].k());
}

core::SiteRouteSpec mdr_route_spec(const place::PlaceNetlist& netlist,
                                   const place::Placement& placement) {
  core::SiteRouteSpec spec;
  spec.num_modes = 1;
  for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
    const auto& net = netlist.nets()[n];
    core::SiteRouteSpec::Net out;
    out.name = "n" + std::to_string(n);
    out.source = placement.site_of(net.driver);
    for (const auto sink : net.sinks) {
      out.conns.push_back(core::SiteRouteSpec::Conn{placement.site_of(sink), 1});
    }
    spec.nets.push_back(std::move(out));
  }
  return spec;
}

core::SiteRouteSpec dcs_route_spec(const tunable::TunableCircuit& tc,
                                   const std::vector<arch::Site>& tlut_site,
                                   const std::vector<arch::Site>& tio_site) {
  core::SiteRouteSpec spec;
  spec.num_modes = tc.num_modes();
  auto site_of = [&](tunable::TRef r) {
    return r.kind == tunable::TRef::Kind::Tlut ? tlut_site[r.index]
                                               : tio_site[r.index];
  };
  for (const auto& net : tc.nets()) {
    core::SiteRouteSpec::Net out;
    out.name = (net.source.kind == tunable::TRef::Kind::Tlut ? "tlut" : "tio") +
               std::to_string(net.source.index);
    out.source = site_of(net.source);
    for (const auto c : net.conns) {
      const auto& conn = tc.conns()[c];
      out.conns.push_back(core::SiteRouteSpec::Conn{
          site_of(conn.sink), static_cast<route::ModeMask>(conn.activation)});
    }
    spec.nets.push_back(std::move(out));
  }
  return spec;
}

/// TPlace from scratch: the Tunable circuit lowered to a PlaceNetlist (TLUTs
/// as logic blocks, TIOs as IO blocks, tunable nets as placement nets).
void tplace(const tunable::TunableCircuit& tc, const arch::DeviceGrid& grid,
            std::uint64_t seed, const core::FlowOptions& options,
            std::vector<arch::Site>* tlut_site,
            std::vector<arch::Site>* tio_site) {
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
  place::PlacerOptions popt;
  popt.seed = seed;
  popt.anneal = options.anneal;
  popt.cancel = options.cancel;
  const place::Placement placed = place::place(pn, grid, popt);
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

std::shared_ptr<const core::MultiModeExperiment> staged_experiment(
    const Job& job, const core::FlowContext& context, Tracer& tracer,
    int job_id) {
  const auto& modes = *job.modes;
  const core::FlowOptions& options = job.options;
  Tracer* const tr = &tracer;
  MMFLOW_REQUIRE(context.cache != nullptr && context.rrgs != nullptr);
  core::FlowCache& cache = *context.cache;

  const arch::ArchSpec base = base_region(modes, options);
  const core::FlowKey exp_key = core::experiment_key(modes, options);
  core::FlowKey base_key = exp_key;
  base_key.engine = 0;
  base_key.variant = 0;
  if (auto hit = cache.find_experiment(exp_key)) return hit;

  const int num_modes = static_cast<int>(modes.size());
  const arch::DeviceGrid grid(base);
  route::RouterOptions router = options.router;
  router.jobs = options.route_jobs;
  router.cancel = options.cancel;
  auto rrg_for = [&](const arch::ArchSpec& spec) {
    const Tracer::Scope span(tr, "arch.rrg", job_id);
    return context.rrgs->get(spec);
  };
  auto routed = [&](const arch::RoutingGraph& rrg,
                    const route::RouteProblem& problem) {
    const Tracer::Scope span(tr, "route.route", job_id);
    return route::route(rrg, problem, router);
  };

  core::MultiModeExperiment exp;

  // ---- MDR: every mode placed on its own --------------------------------------
  {
    const Tracer::Scope span(tr, "place.mdr", job_id);
    auto compute_mdr = [&] {
      std::vector<core::ModeImpl> mdr;
      for (int m = 0; m < num_modes; ++m) {
        core::ModeImpl impl{place::PlaceNetlist{}, {}, place::Placement(grid, 0),
                            {}};
        {
          const Tracer::Scope lower(tr, "place.to_place_netlist", job_id);
          impl.netlist = place::to_place_netlist(
              modes[static_cast<std::size_t>(m)], &impl.mapping);
        }
        place::PlacerOptions popt;
        popt.seed = options.seed * 1000003u + static_cast<std::uint64_t>(m);
        popt.anneal = options.anneal;
        popt.cancel = options.cancel;
        {
          const Tracer::Scope anneal(tr, "place.place", job_id);
          impl.placement = place::place(impl.netlist, grid, popt);
        }
        impl.route_spec = mdr_route_spec(impl.netlist, impl.placement);
        mdr.push_back(std::move(impl));
      }
      return mdr;
    };
    exp.mdr = *cache.mdr_or_compute(base_key, compute_mdr);
  }

  // ---- DCS: combined placement, merge, Tunable circuit, TPlace ---------------
  core::CombinedPlaceOptions cp_options;
  cp_options.cost = options.cost_engine;
  cp_options.seed = options.seed * 6364136223846793005ULL + 1;
  cp_options.anneal = options.anneal;
  cp_options.timing_tradeoff = options.timing_tradeoff;
  cp_options.cancel = options.cancel;
  std::optional<core::CombinedPlacement> combined;
  {
    const Tracer::Scope span(tr,
                             options.cost_engine == core::CombinedCost::EdgeMatch
                                 ? "combined_place.edgematch"
                                 : "combined_place.wirelength",
                             job_id);
    combined.emplace(core::combined_place(modes, grid, cp_options));
  }
  std::optional<core::ExtractedMerge> merge;
  {
    const Tracer::Scope span(tr, "combined_place.extract_merge", job_id);
    merge.emplace(core::extract_merge(*combined, grid));
  }
  {
    const Tracer::Scope span(tr, "tunable.build", job_id);
    exp.tunable.emplace(modes, merge->assignment);
  }
  exp.tlut_site = std::move(merge->tlut_site);
  exp.tio_site = std::move(merge->tio_site);
  exp.total_mode_connections = exp.tunable->total_mode_connections();
  exp.merged_connections = exp.tunable->num_merged_connections();
  if (options.cost_engine == core::CombinedCost::EdgeMatch &&
      options.tplace_from_scratch_for_edgematch) {
    const Tracer::Scope span(tr, "place.tplace", job_id);
    tplace(*exp.tunable, grid, options.seed * 2862933555777941757ULL + 3,
           options, &exp.tlut_site, &exp.tio_site);
  }
  exp.dcs_route_spec = dcs_route_spec(*exp.tunable, exp.tlut_site, exp.tio_site);

  // ---- width search: smallest W at which every implementation routes --------
  auto all_route = [&](int width) {
    Tracer::Scope probe(tr, "route.probe", job_id);
    arch::ArchSpec spec = base;
    spec.channel_width = width;
    std::shared_ptr<const arch::RoutingGraph> rrg_sp;
    auto rrg = [&]() -> const arch::RoutingGraph& {
      if (rrg_sp == nullptr) rrg_sp = rrg_for(spec);
      return *rrg_sp;
    };
    bool ok = true;
    core::FlowKey probe_key = base_key;
    probe_key.width = width;
    const std::optional<bool> cached = cache.find_probe(probe_key);
    if (cached.has_value()) {
      ok = *cached;
    } else {
      for (const auto& impl : exp.mdr) {
        if (!routed(rrg(), impl.route_spec.instantiate(rrg())).success) {
          ok = false;
          break;
        }
      }
      cache.store_probe(probe_key, ok);
    }
    if (ok) ok = routed(rrg(), exp.dcs_route_spec.instantiate(rrg())).success;
    probe.rename(ok ? "route.probe_pass" : "route.probe_fail");
    return ok;
  };
  {
    const Tracer::Scope span(tr, "route.width_search", job_id);
    exp.min_width = route::search_min_width(all_route, options.max_channel_width);
  }
  const int hi = exp.min_width;

  // ---- final implementation with relaxed routing -----------------------------
  {
    const Tracer::Scope span(tr, "route.final", job_id);
    exp.region = base;
    exp.region.channel_width = std::max(
        hi, static_cast<int>(std::ceil(hi * options.width_slack)));
    const auto rrg_sp = rrg_for(exp.region);
    const arch::RoutingGraph& rrg = *rrg_sp;
    core::FlowKey final_key = base_key;
    final_key.width = exp.region.channel_width;
    if (const auto cached = cache.find_mdr_routes(final_key)) {
      exp.mdr_problems = cached->problems;
      exp.mdr_routing = cached->routings;
    } else {
      for (const auto& impl : exp.mdr) {
        exp.mdr_problems.push_back(impl.route_spec.instantiate(rrg));
        exp.mdr_routing.push_back(routed(rrg, exp.mdr_problems.back()));
        MMFLOW_CHECK_MSG(exp.mdr_routing.back().success,
                         "MDR mode unroutable at relaxed width");
      }
      cache.store_mdr_routes(
          final_key, core::MdrFinalRoutes{exp.mdr_problems, exp.mdr_routing});
    }
    exp.dcs_problem = exp.dcs_route_spec.instantiate(rrg);
    exp.dcs_routing = routed(rrg, exp.dcs_problem);
    MMFLOW_CHECK_MSG(exp.dcs_routing.success,
                     "DCS circuit unroutable at relaxed width");
  }
  return cache.store_experiment(exp_key, std::move(exp));
}

}  // namespace dcsbench
