#include "apps/suites.h"

#include "aig/bridge.h"
#include "apps/mcnc/mcnc.h"
#include "apps/regexp/engine.h"
#include "common/check.h"
#include "common/log.h"
#include "techmap/mapper.h"

namespace mmflow::apps {

namespace {

techmap::LutCircuit map_netlist(const netlist::Netlist& nl, int k,
                                const std::string& name) {
  techmap::MapperOptions options;
  options.k = k;
  auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl), options);
  mapped.set_name(name);
  return mapped;
}

std::vector<MultiModeBenchmark> all_pairs(
    const std::vector<techmap::LutCircuit>& bases, int limit) {
  std::vector<MultiModeBenchmark> out;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    for (std::size_t j = i + 1; j < bases.size(); ++j) {
      MultiModeBenchmark bench;
      bench.name = bases[i].name() + "+" + bases[j].name();
      bench.modes = {bases[i], bases[j]};
      out.push_back(std::move(bench));
      if (limit > 0 && static_cast<int>(out.size()) >= limit) return out;
    }
  }
  return out;
}

void require_valid(const SuiteOptions& options) {
  MMFLOW_REQUIRE_MSG(options.limit_pairs >= 0,
                     "SuiteOptions::limit_pairs must be >= 0 (0 = full "
                     "suite), got " << options.limit_pairs);
}

}  // namespace

std::vector<MultiModeBenchmark> regexp_suite(const SuiteOptions& options) {
  require_valid(options);
  std::vector<techmap::LutCircuit> bases;
  const auto& rules = regexp::bleeding_edge_style_rules();
  for (std::size_t r = 0; r < rules.size(); ++r) {
    bases.push_back(map_netlist(regexp::regex_engine(rules[r]), options.k,
                                "re" + std::to_string(r)));
    MMFLOW_INFO("regexp engine " << r << ": " << bases.back().num_blocks()
                                 << " LUTs");
  }
  return all_pairs(bases, options.limit_pairs);
}

fir::FirSpec suite_fir_spec() {
  fir::FirSpec spec;
  spec.taps = 10;
  spec.data_width = 6;
  spec.coeff_width = 5;
  return spec;
}

std::vector<MultiModeBenchmark> fir_suite(const SuiteOptions& options) {
  require_valid(options);
  const fir::FirSpec spec = suite_fir_spec();
  const netlist::Netlist generic = fir::generic_fir(spec);

  const int pairs = options.limit_pairs > 0 ? options.limit_pairs : 10;
  std::vector<MultiModeBenchmark> out;
  for (int p = 0; p < pairs; ++p) {
    // Density 0.7 keeps the specialized filters inside the paper's Table I
    // size band (min 235 / avg 302 / max 371 4-LUTs).
    const auto lp = fir::random_coefficients(
        spec, fir::FilterKind::LowPass,
        options.seed * 100 + static_cast<std::uint64_t>(p) * 2, 0.7);
    const auto hp = fir::random_coefficients(
        spec, fir::FilterKind::HighPass,
        options.seed * 100 + static_cast<std::uint64_t>(p) * 2 + 1, 0.7);

    techmap::MapperOptions mopt;
    mopt.k = options.k;
    auto mode_lp = techmap::map_to_luts(
        aig::aig_from_netlist(generic, fir::coefficient_bindings(spec, lp)), mopt);
    mode_lp.set_name("lp" + std::to_string(p));
    auto mode_hp = techmap::map_to_luts(
        aig::aig_from_netlist(generic, fir::coefficient_bindings(spec, hp)), mopt);
    mode_hp.set_name("hp" + std::to_string(p));
    MMFLOW_INFO("fir pair " << p << ": lp " << mode_lp.num_blocks() << " / hp "
                            << mode_hp.num_blocks() << " LUTs");

    MultiModeBenchmark bench;
    bench.name = "fir" + std::to_string(p);
    bench.modes = {std::move(mode_lp), std::move(mode_hp)};
    out.push_back(std::move(bench));
  }
  return out;
}

std::vector<MultiModeBenchmark> mcnc_suite(const SuiteOptions& options) {
  require_valid(options);
  std::vector<techmap::LutCircuit> bases;
  const auto& sizes = mcnc::paper_clone_sizes();
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    bases.push_back(mcnc::sized_synthetic_circuit(
        sizes[i], options.seed * 10 + static_cast<std::uint64_t>(i), options.k));
    MMFLOW_INFO("mcnc clone " << i << ": " << bases.back().num_blocks()
                              << " LUTs (target " << sizes[i] << ")");
  }
  return all_pairs(bases, options.limit_pairs);
}

std::size_t generic_fir_luts(int k) {
  techmap::MapperOptions options;
  options.k = k;
  const auto mapped = techmap::map_to_luts(
      aig::aig_from_netlist(fir::generic_fir(suite_fir_spec())), options);
  return mapped.num_blocks();
}

std::vector<MultiModeBenchmark> suite_by_name(const std::string& name,
                                              const SuiteOptions& options) {
  if (name == "regexp") return regexp_suite(options);
  if (name == "fir") return fir_suite(options);
  if (name == "mcnc") return mcnc_suite(options);
  throw PreconditionError("unknown suite '" + name +
                          "' (expected regexp, fir or mcnc)");
}

}  // namespace mmflow::apps
