#include "place/timing_model.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace mmflow::place {

DelayLookup::DelayLookup(const TimingModel& model, const arch::ArchSpec& spec) {
  // Site coordinates span 0..nx+1 and 0..ny+1 (pads sit on the perimeter),
  // so the largest Manhattan distance on the device is (nx+1) + (ny+1).
  const int max_dist = (spec.nx + 1) + (spec.ny + 1);
  table_.resize(static_cast<std::size_t>(max_dist) + 1);
  for (int d = 0; d <= max_dist; ++d) {
    table_[static_cast<std::size_t>(d)] =
        connection_delay(model, static_cast<std::size_t>(d));
  }
}

// ---- PlaceTimingGraph -------------------------------------------------------

PlaceTimingGraph::PlaceTimingGraph(const PlaceNetlist& netlist,
                                   const TimingModel& model,
                                   const arch::ArchSpec& spec)
    : netlist_(netlist), model_(model), delays_(model, spec) {
  const std::size_t num_blocks = netlist.num_blocks();
  const std::size_t num_nets = netlist.num_nets();

  is_comb_.assign(num_blocks, 0);
  std::size_t comb_total = 0;
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    const PlaceBlock& block = netlist.blocks()[b];
    is_comb_[b] =
        block.type == PlaceBlock::Type::Clb && !block.registered ? 1 : 0;
    comb_total += is_comb_[b];
  }

  // Criticality slots: one per (net, sink), in net/sink-list order.
  crit_offset_.assign(num_nets + 1, 0);
  std::size_t slots = 0;
  for (std::uint32_t n = 0; n < num_nets; ++n) {
    crit_offset_[n] = static_cast<std::uint32_t>(slots);
    slots += netlist.nets()[n].sinks.size();
  }
  crit_offset_[num_nets] = static_cast<std::uint32_t>(slots);
  crit_.assign(slots, 0.0);

  // Fanin CSR (incoming connections per block) and driven-net CSR.
  std::vector<std::uint32_t> fanin_count(num_blocks, 0);
  std::vector<std::uint32_t> driven_count(num_blocks, 0);
  for (const auto& net : netlist.nets()) {
    ++driven_count[net.driver];
    for (const auto s : net.sinks) ++fanin_count[s];
  }
  fanin_offset_.assign(num_blocks + 1, 0);
  driven_offset_.assign(num_blocks + 1, 0);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    fanin_offset_[b + 1] = fanin_offset_[b] + fanin_count[b];
    driven_offset_[b + 1] = driven_offset_[b] + driven_count[b];
  }
  fanin_.resize(slots);
  driven_nets_.resize(num_nets);
  std::vector<std::uint32_t> fanin_cursor(fanin_offset_.begin(),
                                          fanin_offset_.end() - 1);
  std::vector<std::uint32_t> driven_cursor(driven_offset_.begin(),
                                           driven_offset_.end() - 1);
  for (std::uint32_t n = 0; n < num_nets; ++n) {
    const PlaceNet& net = netlist.nets()[n];
    driven_nets_[driven_cursor[net.driver]++] = n;
    for (std::uint32_t i = 0; i < net.sinks.size(); ++i) {
      fanin_[fanin_cursor[net.sinks[i]]++] =
          Fanin{net.driver, crit_offset_[n] + i};
    }
  }

  // Combinational evaluation order (Kahn over comb→comb connections; the
  // worklist is consumed in discovery order, so the order is deterministic).
  std::vector<std::uint32_t> indegree(num_blocks, 0);
  for (const auto& net : netlist.nets()) {
    if (!is_comb_[net.driver]) continue;
    for (const auto s : net.sinks) {
      if (is_comb_[s]) ++indegree[s];
    }
  }
  topo_.reserve(comb_total);
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    if (is_comb_[b] && indegree[b] == 0) topo_.push_back(b);
  }
  for (std::size_t head = 0; head < topo_.size(); ++head) {
    const std::uint32_t b = topo_[head];
    for (std::uint32_t d = driven_offset_[b]; d < driven_offset_[b + 1]; ++d) {
      for (const auto s : netlist.nets()[driven_nets_[d]].sinks) {
        if (is_comb_[s] && --indegree[s] == 0) topo_.push_back(s);
      }
    }
  }
  MMFLOW_REQUIRE_MSG(topo_.size() == comb_total,
                     "combinational cycle in placement netlist — "
                     "timing-driven placement needs every loop broken by a "
                     "registered block");

  arrival_.assign(num_blocks, 0.0);
  required_.assign(num_blocks, 0.0);
}

void PlaceTimingGraph::update(const arch::Site* sites) {
  const std::size_t num_blocks = netlist_.num_blocks();
  constexpr double kInf = std::numeric_limits<double>::infinity();

  // Latest input arrival of a block under the current positions. Sources
  // (Io drivers, registered blocks) keep output arrival 0.
  auto input_arrival = [&](std::uint32_t b) {
    double latest = 0.0;
    const arch::Site sb = sites[b];
    for (std::uint32_t f = fanin_offset_[b]; f < fanin_offset_[b + 1]; ++f) {
      const Fanin& in = fanin_[f];
      latest = std::max(
          latest, arrival_[in.driver] + delays_.delay(sites[in.driver], sb));
    }
    return latest;
  };

  // Forward pass: combinational blocks in topological order, then end-point
  // capture times (registered blocks capture after their LUT, Io directly).
  std::fill(arrival_.begin(), arrival_.end(), 0.0);
  for (const auto b : topo_) {
    arrival_[b] = input_arrival(b) + model_.lut_delay;
  }
  critical_ = 0.0;
  for (std::uint32_t b = 0; b < num_blocks; ++b) {
    if (is_comb_[b] || fanin_offset_[b] == fanin_offset_[b + 1]) continue;
    const double capture = netlist_.blocks()[b].type == PlaceBlock::Type::Clb
                               ? input_arrival(b) + model_.lut_delay
                               : input_arrival(b);
    critical_ = std::max(critical_, capture);
  }

  // Required time at a sink's *input*: end points by the critical path
  // (minus the capture LUT for registered blocks), combinational sinks by
  // their own output requirement minus their LUT delay.
  auto required_in = [&](std::uint32_t s) {
    if (is_comb_[s]) return required_[s] - model_.lut_delay;
    return netlist_.blocks()[s].type == PlaceBlock::Type::Clb
               ? critical_ - model_.lut_delay
               : critical_;
  };

  // Backward pass over combinational blocks (reverse topological order);
  // blocks driving nothing keep +inf and zero out their fanin criticality.
  std::fill(required_.begin(), required_.end(), kInf);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const std::uint32_t b = *it;
    const arch::Site sb = sites[b];
    double req = kInf;
    for (std::uint32_t d = driven_offset_[b]; d < driven_offset_[b + 1]; ++d) {
      const PlaceNet& net = netlist_.nets()[driven_nets_[d]];
      for (const auto s : net.sinks) {
        req = std::min(req, required_in(s) - delays_.delay(sb, sites[s]));
      }
    }
    required_[b] = req;
  }

  // Criticality of every connection: 1 on the critical path, 0 with a full
  // critical path of slack (or no downstream end point).
  if (critical_ <= 0.0) {
    std::fill(crit_.begin(), crit_.end(), 0.0);
    return;
  }
  for (std::uint32_t n = 0; n < netlist_.num_nets(); ++n) {
    const PlaceNet& net = netlist_.nets()[n];
    const arch::Site sd = sites[net.driver];
    for (std::uint32_t i = 0; i < net.sinks.size(); ++i) {
      const std::uint32_t s = net.sinks[i];
      const double slack = required_in(s) - delays_.delay(sd, sites[s]) -
                           arrival_[net.driver];
      crit_[crit_offset_[n] + i] =
          std::clamp(1.0 - slack / critical_, 0.0, 1.0);
    }
  }
}

double PlaceTimingGraph::net_timing_cost(std::uint32_t net,
                                         const arch::Site* sites) const {
  const PlaceNet& n = netlist_.nets()[net];
  const arch::Site sd = sites[n.driver];
  const double* crit = crit_.data() + crit_offset_[net];
  double cost = 0.0;
  for (std::uint32_t i = 0; i < n.sinks.size(); ++i) {
    cost += crit[i] * delays_.delay(sd, sites[n.sinks[i]]);
  }
  return cost;
}

}  // namespace mmflow::place
