#pragma once
/// \file placenet.h
/// Placement-level netlist abstraction: blocks (logic or IO) connected by
/// multi-terminal nets. Both a single mode's LutCircuit (MDR placement) and
/// the merged Tunable circuit (TPlace) lower to this form, so one placer
/// serves the whole flow.

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"
#include "techmap/lutcircuit.h"

namespace mmflow::place {

struct PlaceBlock {
  enum class Type : std::uint8_t { Clb, Io };
  Type type = Type::Clb;
  std::string name;
  /// Clb whose output is the registered (FF) LUT value: a sequential timing
  /// start/end point for the pre-route analyzer (place/timing_model.h). Io
  /// blocks are always timing endpoints; the flag is meaningless for them.
  bool registered = false;
};

/// A net: one driver block and its sink blocks (deduplicated; a block
/// reading the same signal on several pins counts once for wiring).
struct PlaceNet {
  std::uint32_t driver = 0;
  std::vector<std::uint32_t> sinks;

  [[nodiscard]] std::size_t num_terminals() const { return sinks.size() + 1; }
};

class PlaceNetlist {
 public:
  std::uint32_t add_block(PlaceBlock::Type type, std::string name,
                          bool registered = false) {
    blocks_.push_back(PlaceBlock{type, std::move(name), registered});
    return static_cast<std::uint32_t>(blocks_.size() - 1);
  }
  std::uint32_t add_net(PlaceNet net) {
    MMFLOW_REQUIRE(net.driver < blocks_.size());
    for (const auto s : net.sinks) MMFLOW_REQUIRE(s < blocks_.size());
    nets_.push_back(std::move(net));
    return static_cast<std::uint32_t>(nets_.size() - 1);
  }

  [[nodiscard]] const std::vector<PlaceBlock>& blocks() const { return blocks_; }
  [[nodiscard]] const std::vector<PlaceNet>& nets() const { return nets_; }
  [[nodiscard]] std::size_t num_blocks() const { return blocks_.size(); }
  [[nodiscard]] std::size_t num_nets() const { return nets_.size(); }
  [[nodiscard]] std::size_t num_clbs() const;
  [[nodiscard]] std::size_t num_ios() const;

  /// Net ids touching a block (CSR slice), built lazily. The two annealers
  /// walk this on every proposed move, so it is stored as one flat id array
  /// plus offsets rather than a vector-of-vectors.
  [[nodiscard]] std::pair<const std::uint32_t*, const std::uint32_t*>
  nets_of_block(std::uint32_t block) const;
  void build_block_nets() const;

 private:
  std::vector<PlaceBlock> blocks_;
  std::vector<PlaceNet> nets_;
  mutable std::vector<std::uint32_t> block_net_offset_;
  mutable std::vector<std::uint32_t> block_net_ids_;
};

/// Mapping between a LutCircuit and its PlaceNetlist: logic blocks come
/// first (same indices as LutCircuit blocks), then PI IO blocks (in PI
/// order), then PO IO blocks (in PO order).
struct LutPlaceMapping {
  std::uint32_t num_luts = 0;
  std::uint32_t pi_base = 0;
  std::uint32_t po_base = 0;

  [[nodiscard]] std::uint32_t lut_block(std::uint32_t lut) const { return lut; }
  [[nodiscard]] std::uint32_t pi_block(std::uint32_t pi) const {
    return pi_base + pi;
  }
  [[nodiscard]] std::uint32_t po_block(std::uint32_t po) const {
    return po_base + po;
  }
};

/// Lowers a LutCircuit: one Clb block per LUT, one Io block per PI and PO; a
/// net per signal source with its fanout (POs driven directly by a PI join
/// the PI's net).
[[nodiscard]] PlaceNetlist to_place_netlist(const techmap::LutCircuit& circuit,
                                            LutPlaceMapping* mapping = nullptr);

}  // namespace mmflow::place
