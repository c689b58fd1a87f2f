#include "place/placenet.h"

#include <algorithm>

namespace mmflow::place {

std::size_t PlaceNetlist::num_clbs() const {
  return static_cast<std::size_t>(
      std::count_if(blocks_.begin(), blocks_.end(), [](const PlaceBlock& b) {
        return b.type == PlaceBlock::Type::Clb;
      }));
}

std::size_t PlaceNetlist::num_ios() const { return blocks_.size() - num_clbs(); }

void PlaceNetlist::build_block_nets() const {
  // Two-pass CSR construction; per-block net order matches the former
  // vector-of-vectors build (ascending net id, driver before sinks).
  std::vector<std::vector<std::uint32_t>> lists(blocks_.size());
  for (std::uint32_t n = 0; n < nets_.size(); ++n) {
    lists[nets_[n].driver].push_back(n);
    for (const auto s : nets_[n].sinks) {
      // A block may appear as several sinks only after dedup failure; the
      // construction below dedups, but stay robust.
      if (lists[s].empty() || lists[s].back() != n) {
        lists[s].push_back(n);
      }
    }
  }
  block_net_offset_.assign(blocks_.size() + 1, 0);
  block_net_ids_.clear();
  for (std::size_t b = 0; b < lists.size(); ++b) {
    block_net_offset_[b] = static_cast<std::uint32_t>(block_net_ids_.size());
    block_net_ids_.insert(block_net_ids_.end(), lists[b].begin(),
                          lists[b].end());
  }
  block_net_offset_[lists.size()] =
      static_cast<std::uint32_t>(block_net_ids_.size());
}

std::pair<const std::uint32_t*, const std::uint32_t*>
PlaceNetlist::nets_of_block(std::uint32_t block) const {
  MMFLOW_REQUIRE(block < blocks_.size());
  if (block_net_offset_.empty()) build_block_nets();
  return {block_net_ids_.data() + block_net_offset_[block],
          block_net_ids_.data() + block_net_offset_[block + 1]};
}

PlaceNetlist to_place_netlist(const techmap::LutCircuit& circuit,
                              LutPlaceMapping* mapping) {
  using techmap::Ref;
  circuit.validate();
  PlaceNetlist out;

  for (std::uint32_t b = 0; b < circuit.num_blocks(); ++b) {
    out.add_block(PlaceBlock::Type::Clb, circuit.blocks()[b].name,
                  circuit.blocks()[b].has_ff);
  }
  const auto pi_base = static_cast<std::uint32_t>(out.num_blocks());
  for (const auto& name : circuit.pi_names()) {
    out.add_block(PlaceBlock::Type::Io, name);
  }
  const auto po_base = static_cast<std::uint32_t>(out.num_blocks());
  for (const auto& po : circuit.pos()) {
    out.add_block(PlaceBlock::Type::Io, po.name);
  }
  if (mapping != nullptr) {
    mapping->num_luts = static_cast<std::uint32_t>(circuit.num_blocks());
    mapping->pi_base = pi_base;
    mapping->po_base = po_base;
  }

  // Collect fanout per source.
  auto source_block = [&](Ref r) {
    return r.kind == Ref::Kind::PrimaryInput ? pi_base + r.index : r.index;
  };
  std::vector<std::vector<std::uint32_t>> fanout(out.num_blocks());
  for (std::uint32_t b = 0; b < circuit.num_blocks(); ++b) {
    for (const Ref r : circuit.blocks()[b].inputs) {
      fanout[source_block(r)].push_back(b);
    }
  }
  for (std::uint32_t p = 0; p < circuit.pos().size(); ++p) {
    fanout[source_block(circuit.pos()[p].driver)].push_back(po_base + p);
  }

  for (std::uint32_t src = 0; src < fanout.size(); ++src) {
    auto& sinks = fanout[src];
    if (sinks.empty()) continue;
    std::sort(sinks.begin(), sinks.end());
    sinks.erase(std::unique(sinks.begin(), sinks.end()), sinks.end());
    // Self-loops (a LUT reading its own FF output) need no routing.
    sinks.erase(std::remove(sinks.begin(), sinks.end(), src), sinks.end());
    if (sinks.empty()) continue;
    out.add_net(PlaceNet{src, std::move(sinks)});
  }
  return out;
}

}  // namespace mmflow::place
