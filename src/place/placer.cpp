#include "place/placer.h"

#include <algorithm>
#include <cmath>

#include "common/log.h"
#include "common/perf.h"
#include "common/stats.h"

namespace mmflow::place {

namespace {

/// Bounding box of a net under a placement.
struct Bb {
  int xmin = 0, xmax = 0, ymin = 0, ymax = 0;
};

Bb net_bb(const PlaceNet& net, const Placement& placement) {
  const arch::Site& d = placement.site_of(net.driver);
  Bb bb{d.x, d.x, d.y, d.y};
  for (const auto s : net.sinks) {
    const arch::Site& site = placement.site_of(s);
    bb.xmin = std::min<int>(bb.xmin, site.x);
    bb.xmax = std::max<int>(bb.xmax, site.x);
    bb.ymin = std::min<int>(bb.ymin, site.y);
    bb.ymax = std::max<int>(bb.ymax, site.y);
  }
  return bb;
}

double net_cost(const PlaceNet& net, const Placement& placement) {
  const Bb bb = net_bb(net, placement);
  return hpwl_cost(bb.xmin, bb.xmax, bb.ymin, bb.ymax, net.num_terminals());
}

}  // namespace

Placement::Placement(const arch::DeviceGrid& grid, std::size_t num_blocks)
    : grid_(grid),
      site_of_block_(num_blocks),
      placed_(num_blocks, false),
      clb_occupant_(static_cast<std::size_t>(grid.num_clb_sites()), -1),
      pad_occupant_(static_cast<std::size_t>(grid.num_pad_sites()), -1) {}

void Placement::assign(std::uint32_t block, const arch::Site& site) {
  MMFLOW_REQUIRE(block < site_of_block_.size());
  MMFLOW_REQUIRE(!placed_[block]);
  auto& occupant = site.type == arch::Site::Type::Clb
                       ? clb_occupant_[static_cast<std::size_t>(
                             grid_.clb_index(site.x, site.y))]
                       : pad_occupant_[static_cast<std::size_t>(
                             grid_.pad_index(site))];
  MMFLOW_REQUIRE_MSG(occupant < 0, "site already occupied");
  occupant = static_cast<std::int32_t>(block);
  site_of_block_[block] = site;
  placed_[block] = true;
}

void Placement::unassign(std::uint32_t block) {
  MMFLOW_REQUIRE(block < site_of_block_.size());
  MMFLOW_REQUIRE(placed_[block]);
  const arch::Site site = site_of_block_[block];
  auto& occupant = site.type == arch::Site::Type::Clb
                       ? clb_occupant_[static_cast<std::size_t>(
                             grid_.clb_index(site.x, site.y))]
                       : pad_occupant_[static_cast<std::size_t>(
                             grid_.pad_index(site))];
  MMFLOW_CHECK(occupant == static_cast<std::int32_t>(block));
  occupant = -1;
  placed_[block] = false;
}

void Placement::validate(const PlaceNetlist& netlist) const {
  MMFLOW_CHECK(netlist.num_blocks() == site_of_block_.size());
  for (std::uint32_t b = 0; b < site_of_block_.size(); ++b) {
    MMFLOW_CHECK_MSG(placed_[b], "block " << b << " unplaced");
    const arch::Site& site = site_of_block_[b];
    const bool is_clb = netlist.blocks()[b].type == PlaceBlock::Type::Clb;
    MMFLOW_CHECK(site.type ==
                 (is_clb ? arch::Site::Type::Clb : arch::Site::Type::Pad));
    if (is_clb) {
      MMFLOW_CHECK(clb_occupant_[static_cast<std::size_t>(
                       grid_.clb_index(site.x, site.y))] ==
                   static_cast<std::int32_t>(b));
    } else {
      MMFLOW_CHECK(pad_occupant_[static_cast<std::size_t>(
                       grid_.pad_index(site))] ==
                   static_cast<std::int32_t>(b));
    }
  }
}

double placement_cost(const PlaceNetlist& netlist, const Placement& placement) {
  double cost = 0.0;
  for (const auto& net : netlist.nets()) cost += net_cost(net, placement);
  return cost;
}

Placement random_placement(const PlaceNetlist& netlist,
                           const arch::DeviceGrid& grid, Rng& rng) {
  const std::size_t num_clbs = netlist.num_clbs();
  const std::size_t num_ios = netlist.num_ios();
  MMFLOW_REQUIRE_MSG(num_clbs <= static_cast<std::size_t>(grid.num_clb_sites()),
                     "device too small: " << num_clbs << " CLBs > "
                                          << grid.num_clb_sites() << " sites");
  MMFLOW_REQUIRE_MSG(num_ios <= static_cast<std::size_t>(grid.num_pad_sites()),
                     "device too small for IOs");

  std::vector<int> clb_sites(static_cast<std::size_t>(grid.num_clb_sites()));
  std::vector<int> pad_sites(static_cast<std::size_t>(grid.num_pad_sites()));
  for (std::size_t i = 0; i < clb_sites.size(); ++i) clb_sites[i] = static_cast<int>(i);
  for (std::size_t i = 0; i < pad_sites.size(); ++i) pad_sites[i] = static_cast<int>(i);
  shuffle(clb_sites, rng);
  shuffle(pad_sites, rng);

  Placement placement(grid, netlist.num_blocks());
  std::size_t next_clb = 0;
  std::size_t next_pad = 0;
  for (std::uint32_t b = 0; b < netlist.num_blocks(); ++b) {
    if (netlist.blocks()[b].type == PlaceBlock::Type::Clb) {
      placement.assign(b, grid.clb_site(clb_sites[next_clb++]));
    } else {
      placement.assign(b, grid.pad_site(pad_sites[next_pad++]));
    }
  }
  return placement;
}

namespace {

/// Incremental SA engine over the bounding-box wirelength objective. The
/// engine keeps the per-net cost decomposition and a block→site mirror; a
/// proposed move is staged in the mirror and only the nets touching the
/// moved block(s) are re-evaluated against it — so rejected moves never
/// touch the placement, and accepted moves commit the already-computed
/// costs instead of re-evaluating them. Net fanouts in mapped LUT circuits
/// are small, so recomputing an affected net from scratch is cheap and,
/// unlike VPR's incremental bounding boxes, trivially correct.
class Sa {
 public:
  Sa(const PlaceNetlist& netlist, const arch::DeviceGrid& grid,
     const Placement& placement, Rng rng)
      : netlist_(netlist),
        grid_(grid),
        rng_(rng),
        sites_(netlist.num_blocks()),
        net_epoch_(netlist.num_nets(), 0),
        term_offset_(netlist.num_nets() + 1, 0),
        net_cost_(netlist.num_nets(), 0.0) {
    netlist_.build_block_nets();
    clb_occ_.assign(static_cast<std::size_t>(grid.num_clb_sites()), -1);
    pad_occ_.assign(static_cast<std::size_t>(grid.num_pad_sites()), -1);
    for (std::uint32_t b = 0; b < netlist_.num_blocks(); ++b) {
      const arch::Site site = placement.site_of(b);
      sites_[b] = site;
      if (site.type == arch::Site::Type::Clb) {
        clb_occ_[static_cast<std::size_t>(grid_.clb_index(site.x, site.y))] =
            static_cast<std::int32_t>(b);
      } else {
        pad_occ_[static_cast<std::size_t>(grid_.pad_index(site))] =
            static_cast<std::int32_t>(b);
      }
    }
    for (std::uint32_t n = 0; n < netlist_.num_nets(); ++n) {
      const PlaceNet& net = netlist_.nets()[n];
      term_offset_[n] = static_cast<std::uint32_t>(term_ids_.size());
      term_ids_.push_back(net.driver);
      term_ids_.insert(term_ids_.end(), net.sinks.begin(), net.sinks.end());
    }
    term_offset_[netlist_.num_nets()] =
        static_cast<std::uint32_t>(term_ids_.size());
    for (std::uint32_t n = 0; n < netlist_.num_nets(); ++n) {
      net_cost_[n] = staged_cost(n);
      cost_ += net_cost_[n];
    }
  }

  [[nodiscard]] double cost() const { return cost_; }

  /// Rebuilds the Placement from the annealed site mirror (the annealing
  /// loop never touches the Placement's occupancy bookkeeping).
  [[nodiscard]] Placement take_placement() {
    Placement out(grid_, netlist_.num_blocks());
    for (std::uint32_t b = 0; b < netlist_.num_blocks(); ++b) {
      out.assign(b, sites_[b]);
    }
    return out;
  }

  /// Proposes one swap; returns the delta. Accepting is the caller's call.
  /// The placement is only mutated when the move is accepted.
  bool try_move(int range_limit, double temperature, double* delta_out) {
    ++moves_proposed_;
    // Pick a random placed block, then a target site of the same type within
    // the range limit window centred on it.
    const auto block =
        static_cast<std::uint32_t>(rng_.next_below(netlist_.num_blocks()));
    const arch::Site from = sites_[block];
    const bool is_clb = netlist_.blocks()[block].type == PlaceBlock::Type::Clb;

    arch::Site to;
    if (is_clb) {
      const auto& spec = grid_.spec();
      const int xlo = std::max(1, from.x - range_limit);
      const int xhi = std::min(spec.nx, from.x + range_limit);
      const int ylo = std::max(1, from.y - range_limit);
      const int yhi = std::min(spec.ny, from.y + range_limit);
      const int x = static_cast<int>(rng_.next_int(xlo, xhi));
      const int y = static_cast<int>(rng_.next_int(ylo, yhi));
      to = arch::Site{arch::Site::Type::Clb, static_cast<std::int16_t>(x),
                      static_cast<std::int16_t>(y), 0};
      if (to == from) return false;
    } else {
      // Pads: choose a random pad position within range limit along the
      // perimeter coordinates (Chebyshev window like CLBs), random subsite.
      const int max_tries = 4;
      bool found = false;
      for (int t = 0; t < max_tries && !found; ++t) {
        const int index =
            static_cast<int>(rng_.next_below(
                static_cast<std::uint64_t>(grid_.num_pad_sites())));
        to = grid_.pad_site(index);
        if (std::abs(to.x - from.x) <= range_limit &&
            std::abs(to.y - from.y) <= range_limit && !(to == from)) {
          found = true;
        }
      }
      if (!found) return false;
    }

    const int from_idx = is_clb ? grid_.clb_index(from.x, from.y)
                                : grid_.pad_index(from);
    const int to_idx = is_clb ? grid_.clb_index(to.x, to.y)
                              : grid_.pad_index(to);
    std::vector<std::int32_t>& occ = is_clb ? clb_occ_ : pad_occ_;
    const std::int32_t other = occ[static_cast<std::size_t>(to_idx)];

    // Collect affected nets (dedup via epoch stamps).
    affected_.clear();
    auto mark_nets = [&](std::uint32_t b) {
      auto [begin, end] = netlist_.nets_of_block(b);
      for (const auto* it = begin; it != end; ++it) {
        const std::uint32_t n = *it;
        if (net_epoch_[n] != epoch_) {
          net_epoch_[n] = epoch_;
          affected_.push_back(n);
        }
      }
    };
    ++epoch_;
    mark_nets(block);
    if (other >= 0) mark_nets(static_cast<std::uint32_t>(other));

    // What-if evaluation: stage the candidate positions in the site mirror
    // (the placement itself stays untouched until the move is accepted) and
    // evaluate the affected nets against it.
    sites_[block] = to;
    if (other >= 0) sites_[static_cast<std::uint32_t>(other)] = from;

    double old_cost = 0.0;
    for (const auto n : affected_) old_cost += net_cost_[n];
    new_cost_.clear();
    double new_cost = 0.0;
    for (const auto n : affected_) {
      const double c = staged_cost(n);
      new_cost_.push_back(c);
      new_cost += c;
    }
    net_evals_ += affected_.size();
    const double delta = new_cost - old_cost;

    const bool accept =
        delta <= 0.0 ||
        (temperature > 0.0 && rng_.next_double() < std::exp(-delta / temperature));
    if (accept) {
      ++moves_accepted_;
      occ[static_cast<std::size_t>(to_idx)] = static_cast<std::int32_t>(block);
      occ[static_cast<std::size_t>(from_idx)] = other;
      for (std::size_t i = 0; i < affected_.size(); ++i) {
        net_cost_[affected_[i]] = new_cost_[i];
      }
      cost_ += delta;
    } else {
      // Unstage.
      sites_[block] = from;
      if (other >= 0) sites_[static_cast<std::uint32_t>(other)] = to;
    }
    if (delta_out != nullptr) *delta_out = delta;
    return accept;
  }

  /// Flushes accumulated per-anneal tallies into the perf registry.
  void flush_perf() {
    MMFLOW_PERF_ADD("place.moves_proposed", moves_proposed_);
    MMFLOW_PERF_ADD("place.moves_accepted", moves_accepted_);
    MMFLOW_PERF_ADD("place.net_evals", net_evals_);
    moves_proposed_ = 0;
    moves_accepted_ = 0;
    net_evals_ = 0;
  }

 private:
  /// q(fanout)·HPWL of net `n` at the staged site mirror.
  [[nodiscard]] double staged_cost(std::uint32_t n) const {
    const std::uint32_t* t = term_ids_.data() + term_offset_[n];
    const std::uint32_t* tend = term_ids_.data() + term_offset_[n + 1];
    const std::size_t terminals = static_cast<std::size_t>(tend - t);
    const arch::Site& d = sites_[*t];  // driver
    int xmin = d.x, xmax = d.x, ymin = d.y, ymax = d.y;
    for (++t; t != tend; ++t) {
      const arch::Site& site = sites_[*t];
      xmin = std::min<int>(xmin, site.x);
      xmax = std::max<int>(xmax, site.x);
      ymin = std::min<int>(ymin, site.y);
      ymax = std::max<int>(ymax, site.y);
    }
    return hpwl_cost(xmin, xmax, ymin, ymax, terminals);
  }

  const PlaceNetlist& netlist_;
  const arch::DeviceGrid& grid_;
  Rng rng_;
  std::vector<arch::Site> sites_;  ///< block→site mirror for evaluation
  std::vector<std::int32_t> clb_occ_;  ///< CLB-site occupancy mirror
  std::vector<std::int32_t> pad_occ_;  ///< pad-site occupancy mirror
  std::vector<std::uint32_t> affected_;
  std::vector<std::uint64_t> net_epoch_;
  std::uint64_t epoch_ = 0;

  /// Net terminals flattened driver first, then sinks in order: the move
  /// evaluation walks the terminals of a handful of nets, and chasing each
  /// net's sink vector separately dominates it.
  std::vector<std::uint32_t> term_offset_;
  std::vector<std::uint32_t> term_ids_;
  std::vector<double> net_cost_;  ///< committed cost per net
  double cost_ = 0.0;
  std::vector<double> new_cost_;  ///< affected nets' staged costs

  std::uint64_t moves_proposed_ = 0;
  std::uint64_t moves_accepted_ = 0;
  std::uint64_t net_evals_ = 0;
};

}  // namespace

Placement place(const PlaceNetlist& netlist, const arch::DeviceGrid& grid,
                const PlacerOptions& options, PlacerStats* stats) {
  Rng init_rng(options.seed ^ 0x517cc1b727220a95ULL);
  const Placement initial = random_placement(netlist, grid, init_rng);

  MMFLOW_PERF_SCOPE("place.total");
  MMFLOW_PERF_ADD("place.calls", 1);
  Rng rng(options.seed);
  Sa sa(netlist, grid, initial, rng.fork());

  const int max_range = std::max(grid.spec().nx, grid.spec().ny) + 2;
  AnnealSchedule schedule(options.anneal, netlist.num_blocks(), max_range);

  PlacerStats local_stats;
  local_stats.initial_cost = sa.cost();

  if (netlist.num_nets() == 0 || netlist.num_blocks() <= 1) {
    if (stats != nullptr) {
      local_stats.final_cost = sa.cost();
      *stats = local_stats;
    }
    sa.flush_perf();
    return sa.take_placement();
  }

  // Initial temperature: VPR uses 20x the stddev of the cost deltas over
  // num_blocks probing moves (all accepted at T = infinity; here: huge T).
  Summary probe;
  const auto probes = static_cast<std::int64_t>(netlist.num_blocks());
  for (std::int64_t i = 0; i < probes; ++i) {
    double delta = 0.0;
    (void)sa.try_move(max_range, 1e30, &delta);
    probe.add(delta);
  }
  schedule.set_initial_temperature(options.anneal.init_t_factor *
                                   probe.stddev());

  // Main annealing loop.
  while (true) {
    poll_cancel(options.cancel);
    std::int64_t accepted = 0;
    const std::int64_t moves = schedule.moves_per_temperature();
    for (std::int64_t i = 0; i < moves; ++i) {
      accepted += sa.try_move(schedule.range_limit(), schedule.temperature(),
                              nullptr)
                      ? 1
                      : 0;
    }
    local_stats.moves_attempted += moves;
    local_stats.moves_accepted += accepted;

    const double r = static_cast<double>(accepted) / static_cast<double>(moves);
    if (schedule.should_stop(sa.cost(), netlist.num_nets())) {
      if (schedule.temperature() > 0.0) {
        // Final quench at T = 0 (VPR does one zero-temperature pass).
        std::int64_t quench_accepted = 0;
        for (std::int64_t i = 0; i < moves; ++i) {
          quench_accepted += sa.try_move(schedule.range_limit(), 0.0, nullptr);
        }
        local_stats.moves_attempted += moves;
        local_stats.moves_accepted += quench_accepted;
      }
      break;
    }
    schedule.step(r);
  }

  local_stats.final_cost = sa.cost();
  if (stats != nullptr) *stats = local_stats;
  MMFLOW_DEBUG("place: cost " << local_stats.initial_cost << " -> "
                              << local_stats.final_cost);
  sa.flush_perf();
  Placement result = sa.take_placement();
  result.validate(netlist);
  return result;
}

}  // namespace mmflow::place
