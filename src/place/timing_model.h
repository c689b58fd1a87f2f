#pragma once
/// \file timing_model.h
/// The delay model shared by post-route timing analysis (core/timing) and
/// the pre-route timing analysis that drives timing-driven combined
/// placement (core/combined_place.cpp): the connection-delay estimator
/// `DelayLookup` and the criticality analyzer `PlaceTimingGraph`.
///
/// This is the *single* definition of the delay constants and of the
/// connection-delay formula. The post-route report evaluates the formula on
/// the actual routed wire count of a connection; the pre-route estimator
/// evaluates the same formula on the Manhattan distance between the
/// endpoint sites (on this architecture every wire segment spans exactly one
/// logic block, so distance is the wire count of a detour-free route). The
/// two views can therefore never drift apart: improving an estimated delay
/// improves the reported one.
///
/// The struct lives in mmflow::place — the lowest layer that needs it — and
/// is re-exported as core::TimingModel by core/timing.h for the public
/// reporting API.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/arch.h"
#include "place/placenet.h"

namespace mmflow::place {

/// Unit-delay model of the architecture (see core/timing.h for the
/// reporting context): one LUT delay per logic block, one wire delay per
/// routed unit-length segment, one pin delay per connection-block hop.
struct TimingModel {
  double lut_delay = 1.0;   ///< logic block delay
  double wire_delay = 0.5;  ///< per wire segment (unit-length)
  double pin_delay = 0.2;   ///< OPIN/IPIN connection-block delay
};

/// Delay of one connection that crosses `wires` wire segments: two
/// connection-block pin hops plus the segments. Shared by the post-route
/// report (actual routed wire count) and the pre-route estimator (Manhattan
/// distance as the wire count).
[[nodiscard]] inline double connection_delay(const TimingModel& model,
                                             std::size_t wires) {
  return 2.0 * model.pin_delay +
         model.wire_delay * static_cast<double>(wires);
}

/// Pre-route connection-delay estimator: a distance-indexed lookup table
/// over `connection_delay`, precomputed once per device so the annealer hot
/// path pays one subtract/add and one load per delay query.
class DelayLookup {
 public:
  DelayLookup(const TimingModel& model, const arch::ArchSpec& spec);

  /// Estimated delay of a connection from site `a` to site `b`.
  [[nodiscard]] double delay(const arch::Site& a, const arch::Site& b) const {
    return table_[static_cast<std::size_t>(arch::DeviceGrid::manhattan(a, b))];
  }

 private:
  std::vector<double> table_;  ///< indexed by Manhattan distance
};

/// Pre-route static timing over a `PlaceNetlist`: forward arrival and
/// backward required passes with distance-estimated connection delays,
/// exposing per-connection criticalities in [0, 1].
///
/// Timing start points are Io blocks that drive nets and `registered` Clb
/// blocks (their output launches at the clock edge); end points are Io
/// blocks with fanin and the inputs of `registered` Clb blocks (capture
/// after the block's LUT delay). Combinational Clb blocks propagate
/// arrival + lut_delay. The evaluation order is fixed at construction; a
/// combinational cycle (a loop not broken by a `registered` block) is a
/// precondition violation and throws.
///
/// Thread-safety: the structure is immutable after construction, but
/// `update` rewrites the criticalities, so an instance has one owner (one
/// annealing run); concurrent runs construct their own.
class PlaceTimingGraph {
 public:
  PlaceTimingGraph(const PlaceNetlist& netlist, const TimingModel& model,
                   const arch::ArchSpec& spec);

  /// Full arrival/required pass over the block→site mirror `sites`;
  /// refreshes the critical-path estimate and every connection criticality.
  /// O(blocks + connections).
  void update(const arch::Site* sites);

  /// Estimated critical path (delay units) as of the last update().
  [[nodiscard]] double critical_path() const { return critical_; }

  /// Criticality of sink `sink` (position in the net's sink list) of net
  /// `net`, as of the last update().
  [[nodiscard]] double criticality(std::uint32_t net,
                                   std::uint32_t sink) const {
    return crit_[crit_offset_[net] + sink];
  }

  /// Criticality-weighted delay of net `net` evaluated at `sites`:
  /// Σ_sinks crit·delay(driver_site, sink_site).
  [[nodiscard]] double net_timing_cost(std::uint32_t net,
                                       const arch::Site* sites) const;

  [[nodiscard]] const DelayLookup& delays() const { return delays_; }

 private:
  /// One incoming connection of a block: the driving block and the global
  /// criticality slot of the (net, sink) pair it corresponds to.
  struct Fanin {
    std::uint32_t driver = 0;
    std::uint32_t slot = 0;
  };

  const PlaceNetlist& netlist_;
  TimingModel model_;
  DelayLookup delays_;
  std::vector<std::uint32_t> topo_;          ///< comb Clb blocks, eval order
  std::vector<std::uint32_t> fanin_offset_;  ///< per block (CSR)
  std::vector<Fanin> fanin_;
  std::vector<std::uint32_t> driven_offset_;  ///< per block (CSR)
  std::vector<std::uint32_t> driven_nets_;
  std::vector<std::uint32_t> crit_offset_;   ///< per net → crit_ base
  std::vector<double> crit_;                 ///< per (net, sink)
  std::vector<double> arrival_;   ///< block *output* arrival time
  std::vector<double> required_;  ///< block *output* required time
  std::vector<std::uint8_t> is_comb_;  ///< Clb && !registered
  double critical_ = 0.0;
};

}  // namespace mmflow::place
