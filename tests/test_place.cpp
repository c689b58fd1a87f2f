#include <gtest/gtest.h>

#include "aig/bridge.h"
#include "helpers.h"
#include "place/placer.h"
#include "techmap/mapper.h"

namespace mmflow::place {
namespace {

/// Small synthetic placement netlist: a chain of CLBs with IO at both ends.
PlaceNetlist chain_netlist(int length) {
  PlaceNetlist nl;
  const auto in = nl.add_block(PlaceBlock::Type::Io, "in");
  std::uint32_t prev = in;
  for (int i = 0; i < length; ++i) {
    const auto b = nl.add_block(PlaceBlock::Type::Clb, "c" + std::to_string(i));
    nl.add_net(PlaceNet{prev, {b}});
    prev = b;
  }
  const auto out = nl.add_block(PlaceBlock::Type::Io, "out");
  nl.add_net(PlaceNet{prev, {out}});
  return nl;
}

arch::DeviceGrid grid_for(const PlaceNetlist& nl) {
  return arch::DeviceGrid(
      arch::size_device(static_cast<int>(nl.num_clbs()),
                        static_cast<int>(nl.num_ios()), 1.4));
}

TEST(CrossingFactor, MatchesVprTable) {
  EXPECT_DOUBLE_EQ(crossing_factor(2), 1.0);
  EXPECT_DOUBLE_EQ(crossing_factor(4), 1.0828);
  EXPECT_DOUBLE_EQ(crossing_factor(50), 2.7933);
  EXPECT_NEAR(crossing_factor(60), 2.7933 + 10 * 0.02616, 1e-9);
  EXPECT_EQ(crossing_factor(0), 0.0);
}

TEST(Placement, AssignUnassignRoundTrip) {
  arch::ArchSpec spec;
  spec.nx = 3;
  spec.ny = 3;
  const arch::DeviceGrid grid(spec);
  Placement p(grid, 2);
  const arch::Site s = grid.clb_site(4);
  p.assign(0, s);
  EXPECT_EQ(p.clb_occupant(4), 0);
  EXPECT_THROW(p.assign(1, s), PreconditionError);  // occupied
  p.unassign(0);
  EXPECT_EQ(p.clb_occupant(4), -1);
  EXPECT_NO_THROW(p.assign(1, s));
}

TEST(RandomPlacement, IsLegal) {
  const PlaceNetlist nl = chain_netlist(12);
  const auto grid = grid_for(nl);
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const Placement p = random_placement(nl, grid, rng);
    EXPECT_NO_THROW(p.validate(nl));
  }
}

TEST(RandomPlacement, DeviceTooSmallThrows) {
  const PlaceNetlist nl = chain_netlist(30);
  arch::ArchSpec spec;
  spec.nx = 3;
  spec.ny = 3;
  const arch::DeviceGrid grid(spec);
  Rng rng(1);
  EXPECT_THROW(random_placement(nl, grid, rng), PreconditionError);
}

TEST(Placer, ImprovesCostAndStaysLegal) {
  const PlaceNetlist nl = chain_netlist(25);
  const auto grid = grid_for(nl);

  Rng rng(7);
  const Placement initial = random_placement(nl, grid, rng);
  const double initial_cost = placement_cost(nl, initial);

  PlacerOptions options;
  options.seed = 7;
  PlacerStats stats;
  const Placement placed = place(nl, grid, options, &stats);
  EXPECT_NO_THROW(placed.validate(nl));
  const double final_cost = placement_cost(nl, placed);
  EXPECT_LT(final_cost, initial_cost * 0.7)
      << "annealing should improve a random chain placement substantially";
  EXPECT_NEAR(final_cost, stats.final_cost, 1e-6);
  EXPECT_GT(stats.moves_attempted, 0);
}

TEST(Placer, DeterministicForSeed) {
  const PlaceNetlist nl = chain_netlist(15);
  const auto grid = grid_for(nl);
  PlacerOptions options;
  options.seed = 42;
  const Placement a = place(nl, grid, options);
  const Placement b = place(nl, grid, options);
  for (std::uint32_t blk = 0; blk < nl.num_blocks(); ++blk) {
    EXPECT_EQ(a.site_of(blk), b.site_of(blk));
  }
}

TEST(Placer, ChainCostApproachesOptimal) {
  // A 9-block chain in a 16-site device: optimal cost is ~2 per net
  // (adjacent blocks). Annealing should land within 2x of that.
  const PlaceNetlist nl = chain_netlist(9);
  arch::ArchSpec spec;
  spec.nx = 4;
  spec.ny = 4;
  const arch::DeviceGrid grid(spec);
  PlacerOptions options;
  options.seed = 3;
  const Placement placed = place(nl, grid, options);
  const double cost = placement_cost(nl, placed);
  // 10 two-terminal nets, minimum cost 2.0 each when adjacent.
  EXPECT_LT(cost, 2.0 * 10 * 2.0);
}

TEST(PlaceNetlist, FromLutCircuit) {
  // Map a small circuit and check the lowering: nets respect fanout dedup.
  netlist::Netlist nl("t");
  const auto a = nl.add_input("a");
  const auto b = nl.add_input("b");
  const auto x = nl.add_xor(a, b);
  const auto y = nl.add_and(x, a);
  nl.add_output("x", x);
  nl.add_output("y", y);
  const auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));

  LutPlaceMapping mapping;
  const PlaceNetlist pn = to_place_netlist(mapped, &mapping);
  EXPECT_EQ(pn.num_clbs(), mapped.num_blocks());
  EXPECT_EQ(pn.num_ios(), 2u + 2u);
  EXPECT_EQ(mapping.pi_base, mapped.num_blocks());

  // Every net's driver drives at least one sink, blocks are in range.
  for (const auto& net : pn.nets()) {
    EXPECT_FALSE(net.sinks.empty());
    for (const auto s : net.sinks) {
      EXPECT_LT(s, pn.num_blocks());
      EXPECT_NE(s, net.driver);
    }
  }
}

TEST(PlaceNetlist, SelfLoopFfNeedsNoNet) {
  // q <= xor(q, en): the FF block feeds itself; the self-reference must not
  // create a net terminal.
  netlist::Netlist nl("loop");
  const auto en = nl.add_input("en");
  const auto q = nl.add_latch(netlist::kNoSignal, false, "q");
  nl.set_latch_input(q, nl.add_xor(q, en));
  nl.add_output("q", q);
  const auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
  const PlaceNetlist pn = to_place_netlist(mapped);
  for (const auto& net : pn.nets()) {
    for (const auto s : net.sinks) EXPECT_NE(s, net.driver);
  }
}

TEST(Placer, MappedCircuitEndToEnd) {
  // Map a random circuit, place it, validate legality.
  Rng rng(21);
  netlist::Netlist nl("r");
  std::vector<netlist::SignalId> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(nl.add_input("i" + std::to_string(i)));
  for (int i = 0; i < 40; ++i) {
    const auto a = pool[rng.next_below(pool.size())];
    const auto b = pool[rng.next_below(pool.size())];
    pool.push_back(rng.next_bool(0.5) ? nl.add_xor(a, b) : nl.add_and(a, b));
  }
  for (int i = 0; i < 3; ++i) {
    nl.add_output("o" + std::to_string(i), pool[pool.size() - 1 - i]);
  }
  const auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
  const PlaceNetlist pn = to_place_netlist(mapped);
  const auto grid = grid_for(pn);
  PlacerOptions options;
  options.seed = 9;
  const Placement placed = place(pn, grid, options);
  EXPECT_NO_THROW(placed.validate(pn));
}

}  // namespace
}  // namespace mmflow::place
