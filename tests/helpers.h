#pragma once
/// Shared helpers for the mmflow test suite: random stimulus generation,
/// cross-simulator equivalence checks and scratch directories. Equivalence-by-simulation is the
/// backbone of the suite: every transformation in the flow (synthesis,
/// mapping, merging, specialization) must preserve sequential behaviour.

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "netlist/netlist.h"
#include "netlist/sim.h"
#include "techmap/lutcircuit.h"

namespace mmflow::testing {

/// Unique scratch directory, removed on destruction.
struct TempDir {
  std::filesystem::path path;

  TempDir() {
    static int counter = 0;
    path = std::filesystem::temp_directory_path() /
           ("mmflow_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

/// The only entry file of one artifact-store kind subdirectory.
inline std::filesystem::path only_entry(const std::filesystem::path& dir) {
  std::filesystem::path found;
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".bin") {
      found = entry.path();
      ++count;
    }
  }
  EXPECT_EQ(count, 1) << "expected exactly one entry in " << dir;
  return found;
}

/// Cuts `path` down to its first `keep` bytes.
inline void truncate_file(const std::filesystem::path& path,
                          std::uint64_t keep) {
  std::error_code ec;
  std::filesystem::resize_file(path, keep, ec);
  ASSERT_FALSE(ec) << path;
}

/// Random 64-pattern words, one per input.
inline std::vector<std::uint64_t> random_words(std::size_t n, Rng& rng) {
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng();
  return words;
}

/// A sequential circuit of `bits` registered LUTs, each reading its own
/// output, one primary input and both neighbours' outputs: every block sits
/// on a self-loop (which `place::to_place_netlist` drops, as it needs no
/// routing) and on registered two-block cycles.
inline techmap::LutCircuit feedback_lut_circuit(int bits, std::uint64_t seed) {
  using techmap::Ref;
  Rng rng(seed);
  techmap::LutCircuit c(4, "feedback" + std::to_string(seed));
  const auto a = c.add_pi("a");
  const auto b = c.add_pi("b");
  for (int i = 0; i < bits; ++i) {
    const auto self = static_cast<std::uint32_t>(i);
    std::vector<Ref> inputs{Ref::block(self), Ref::pi(rng.next_bool(0.5) ? a : b)};
    if (i > 0) inputs.push_back(Ref::block(self - 1));
    if (i + 1 < bits) inputs.push_back(Ref::block(self + 1));
    const std::uint64_t truth =
        rng() & ((std::uint64_t{1} << (1u << inputs.size())) - 1);
    c.add_block({"s" + std::to_string(i), std::move(inputs), truth,
                 /*has_ff=*/true, /*ff_init=*/false});
  }
  c.add_po("lo", Ref::block(0));
  c.add_po("hi", Ref::block(static_cast<std::uint32_t>(bits - 1)));
  return c;
}

/// Reorders `words` (indexed by `from_names`) into `to_names` order.
/// Missing names are an error: interfaces must match exactly.
inline std::vector<std::uint64_t> reorder_words(
    const std::vector<std::uint64_t>& words,
    const std::vector<std::string>& from_names,
    const std::vector<std::string>& to_names) {
  std::map<std::string, std::uint64_t> by_name;
  for (std::size_t i = 0; i < from_names.size(); ++i) {
    by_name[from_names[i]] = words[i];
  }
  std::vector<std::uint64_t> out;
  out.reserve(to_names.size());
  for (const auto& name : to_names) {
    const auto it = by_name.find(name);
    EXPECT_NE(it, by_name.end()) << "missing input " << name;
    out.push_back(it == by_name.end() ? 0 : it->second);
  }
  return out;
}

inline std::vector<std::string> netlist_input_names(const netlist::Netlist& nl) {
  std::vector<std::string> names;
  for (const auto in : nl.inputs()) names.push_back(nl.signal(in).name);
  return names;
}

inline std::vector<std::string> netlist_output_names(const netlist::Netlist& nl) {
  std::vector<std::string> names;
  for (const auto& out : nl.outputs()) names.push_back(out.name);
  return names;
}

inline std::vector<std::string> lut_output_names(
    const techmap::LutCircuit& c) {
  std::vector<std::string> names;
  for (const auto& po : c.pos()) names.push_back(po.name);
  return names;
}

/// Runs both simulators for `cycles` cycles on identical random stimulus and
/// compares every output every cycle (by output name).
inline void expect_equivalent(const netlist::Netlist& golden,
                              const techmap::LutCircuit& mapped,
                              int cycles, std::uint64_t seed) {
  ASSERT_EQ(golden.inputs().size(), mapped.num_pis());
  ASSERT_EQ(golden.outputs().size(), mapped.num_pos());

  const auto golden_inputs = netlist_input_names(golden);
  std::vector<std::string> mapped_inputs = mapped.pi_names();

  netlist::Simulator sim_golden(golden);
  techmap::LutSimulator sim_mapped(mapped);

  // Output index mapping by name.
  const auto golden_outputs = netlist_output_names(golden);
  const auto mapped_outputs = lut_output_names(mapped);

  Rng rng(seed);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const auto words = random_words(golden_inputs.size(), rng);
    const auto mapped_words = reorder_words(words, golden_inputs, mapped_inputs);
    const auto out_g = sim_golden.step(words);
    const auto out_m = sim_mapped.step(mapped_words);
    for (std::size_t i = 0; i < golden_outputs.size(); ++i) {
      // Find the mapped output with the same name.
      const auto it = std::find(mapped_outputs.begin(), mapped_outputs.end(),
                                golden_outputs[i]);
      ASSERT_NE(it, mapped_outputs.end())
          << "missing output " << golden_outputs[i];
      const std::size_t j =
          static_cast<std::size_t>(it - mapped_outputs.begin());
      ASSERT_EQ(out_g[i], out_m[j])
          << "mismatch on output '" << golden_outputs[i] << "' in cycle "
          << cycle;
    }
  }
}

/// Netlist-vs-netlist sequential equivalence on random stimulus.
inline void expect_equivalent(const netlist::Netlist& a,
                              const netlist::Netlist& b, int cycles,
                              std::uint64_t seed) {
  ASSERT_EQ(a.inputs().size(), b.inputs().size());
  const auto a_in = netlist_input_names(a);
  const auto b_in = netlist_input_names(b);
  const auto a_out = netlist_output_names(a);
  const auto b_out = netlist_output_names(b);

  netlist::Simulator sim_a(a);
  netlist::Simulator sim_b(b);
  Rng rng(seed);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    const auto words = random_words(a_in.size(), rng);
    const auto words_b = reorder_words(words, a_in, b_in);
    const auto out_a = sim_a.step(words);
    const auto out_b = sim_b.step(words_b);
    for (std::size_t i = 0; i < a_out.size(); ++i) {
      const auto it = std::find(b_out.begin(), b_out.end(), a_out[i]);
      ASSERT_NE(it, b_out.end()) << "missing output " << a_out[i];
      ASSERT_EQ(out_a[i], out_b[static_cast<std::size_t>(it - b_out.begin())])
          << "mismatch on '" << a_out[i] << "' in cycle " << cycle;
    }
  }
}

}  // namespace mmflow::testing
