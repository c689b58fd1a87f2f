#include "tune/knobs.h"

#include <cmath>

#include "common/check.h"

namespace mmflow::tune {

namespace {

/// The registry: every searchable flow option with its curated default
/// range. Ranges are deliberately conservative — wide enough that the
/// search can find better QoR points than the paper's hand-chosen defaults,
/// narrow enough that no sampled configuration is structurally broken
/// (e.g. area_slack always leaves room for the largest mode).
const std::vector<Knob>& registry() {
  static const std::vector<Knob> knobs = {
      {"inner_num", 2.0, 20.0, true,
       [](core::FlowOptions& o, double v) { o.anneal.inner_num = v; },
       [](const core::FlowOptions& o) { return o.anneal.inner_num; }},
      {"init_t_factor", 5.0, 40.0, true,
       [](core::FlowOptions& o, double v) { o.anneal.init_t_factor = v; },
       [](const core::FlowOptions& o) { return o.anneal.init_t_factor; }},
      {"exit_t_fraction", 0.001, 0.05, true,
       [](core::FlowOptions& o, double v) { o.anneal.exit_t_fraction = v; },
       [](const core::FlowOptions& o) { return o.anneal.exit_t_fraction; }},
      {"timing_tradeoff", 0.0, 0.9, false,
       [](core::FlowOptions& o, double v) { o.timing_tradeoff = v; },
       [](const core::FlowOptions& o) { return o.timing_tradeoff; }},
      {"area_slack", 1.05, 1.5, false,
       [](core::FlowOptions& o, double v) { o.area_slack = v; },
       [](const core::FlowOptions& o) { return o.area_slack; }},
      {"width_slack", 1.05, 1.5, false,
       [](core::FlowOptions& o, double v) { o.width_slack = v; },
       [](const core::FlowOptions& o) { return o.width_slack; }},
      {"astar_fac", 1.0, 1.6, false,
       [](core::FlowOptions& o, double v) { o.router.astar_fac = v; },
       [](const core::FlowOptions& o) { return o.router.astar_fac; }},
      {"pres_fac_mult", 1.2, 2.5, false,
       [](core::FlowOptions& o, double v) { o.router.pres_fac_mult = v; },
       [](const core::FlowOptions& o) { return o.router.pres_fac_mult; }},
      {"first_iter_pres_fac", 0.1, 2.0, true,
       [](core::FlowOptions& o, double v) { o.router.first_iter_pres_fac = v; },
       [](const core::FlowOptions& o) { return o.router.first_iter_pres_fac; }},
      {"hist_fac", 0.1, 1.0, false,
       [](core::FlowOptions& o, double v) { o.router.hist_fac = v; },
       [](const core::FlowOptions& o) { return o.router.hist_fac; }},
      {"share_discount", 0.01, 0.5, true,
       [](core::FlowOptions& o, double v) { o.router.share_discount = v; },
       [](const core::FlowOptions& o) { return o.router.share_discount; }},
      {"align_discount", 0.1, 1.0, false,
       [](core::FlowOptions& o, double v) { o.router.align_discount = v; },
       [](const core::FlowOptions& o) { return o.router.align_discount; }},
  };
  return knobs;
}

const Knob* find_knob(const std::string& name) {
  for (const Knob& knob : registry()) {
    if (knob.name == name) return &knob;
  }
  return nullptr;
}

}  // namespace

KnobSpace KnobSpace::defaults() {
  KnobSpace space;
  // The curated subset: the knobs with the strongest, best-understood QoR
  // leverage. The full registry stays reachable via from_spec.
  for (const char* name :
       {"inner_num", "timing_tradeoff", "area_slack", "width_slack",
        "astar_fac", "align_discount"}) {
    space.knobs_.push_back(*find_knob(name));
  }
  return space;
}

KnobSpace KnobSpace::from_spec(std::string_view spec, std::string_view what) {
  KnobSpace space;
  for (const KnobRangeSpec& range : parse_knob_ranges(spec, what)) {
    const Knob* registered = find_knob(range.name);
    if (registered == nullptr) {
      std::string names;
      for (const auto& name : registry_names()) {
        if (!names.empty()) names += ", ";
        names += name;
      }
      throw PreconditionError(std::string(what) + ": unknown knob '" +
                              range.name + "' (known knobs: " + names + ")");
    }
    Knob knob = *registered;
    knob.lo = range.lo;
    knob.hi = range.hi;
    knob.log_scale = range.log_scale;
    space.knobs_.push_back(knob);
  }
  return space;
}

std::vector<std::string> KnobSpace::registry_names() {
  std::vector<std::string> names;
  names.reserve(registry().size());
  for (const Knob& knob : registry()) names.push_back(knob.name);
  return names;
}

std::vector<double> KnobSpace::values(const std::vector<double>& unit) const {
  MMFLOW_REQUIRE_MSG(unit.size() == knobs_.size(),
                     "unit point has " << unit.size() << " coordinates for "
                                       << knobs_.size() << " knobs");
  std::vector<double> out(knobs_.size());
  for (std::size_t i = 0; i < knobs_.size(); ++i) {
    const Knob& knob = knobs_[i];
    const double u = unit[i];
    MMFLOW_REQUIRE_MSG(u >= 0.0 && u <= 1.0,
                       "unit coordinate " << u << " for knob " << knob.name);
    out[i] = knob.log_scale
                 ? std::exp(std::log(knob.lo) +
                            u * (std::log(knob.hi) - std::log(knob.lo)))
                 : knob.lo + u * (knob.hi - knob.lo);
  }
  return out;
}

core::FlowOptions KnobSpace::apply(const core::FlowOptions& base,
                                   const std::vector<double>& unit) const {
  core::FlowOptions options = base;
  const std::vector<double> concrete = values(unit);
  for (std::size_t i = 0; i < knobs_.size(); ++i) {
    knobs_[i].apply(options, concrete[i]);
  }
  return options;
}

std::vector<double> KnobSpace::baseline_values(
    const core::FlowOptions& base) const {
  std::vector<double> out(knobs_.size());
  for (std::size_t i = 0; i < knobs_.size(); ++i) out[i] = knobs_[i].get(base);
  return out;
}

}  // namespace mmflow::tune
