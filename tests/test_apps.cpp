#include <gtest/gtest.h>

#include "aig/bridge.h"
#include "apps/fir/fir.h"
#include "apps/mcnc/mcnc.h"
#include "apps/regexp/engine.h"
#include "apps/regexp/regex.h"
#include "apps/suites.h"
#include <fstream>

#include "common/check.h"
#include "common/stats.h"
#include "helpers.h"
#include "netlist/blif.h"
#include "techmap/mapper.h"

namespace mmflow::apps {
namespace {

// ------------------------------------------------------------------ regexp

TEST(RegexParse, Errors) {
  using regexp::parse_regex;
  EXPECT_THROW((void)parse_regex(""), ParseError);
  EXPECT_THROW((void)parse_regex("a)"), ParseError);
  EXPECT_THROW((void)parse_regex("(a"), ParseError);
  EXPECT_THROW((void)parse_regex("*a"), ParseError);
  EXPECT_THROW((void)parse_regex("a{3,1}"), ParseError);
  EXPECT_THROW((void)parse_regex("[]"), ParseError);
  EXPECT_THROW((void)parse_regex("[z-a]"), ParseError);
  EXPECT_THROW((void)parse_regex("a*"), ParseError);   // matches empty
  EXPECT_THROW((void)parse_regex("a?"), ParseError);   // matches empty
  EXPECT_THROW((void)parse_regex("^abc"), ParseError); // anchors unsupported
  EXPECT_NO_THROW((void)parse_regex("a+"));
}

struct MatchCase {
  const char* pattern;
  const char* text;
  bool expected;
};

class StreamMatcherTest : public ::testing::TestWithParam<MatchCase> {};

TEST_P(StreamMatcherTest, SearchSemantics) {
  const MatchCase& c = GetParam();
  regexp::StreamMatcher matcher(c.pattern);
  EXPECT_EQ(matcher.search(c.text), c.expected)
      << "pattern '" << c.pattern << "' on '" << c.text << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StreamMatcherTest,
    ::testing::Values(
        MatchCase{"abc", "xxabcxx", true}, MatchCase{"abc", "abx", false},
        MatchCase{"a+b", "caaab", true}, MatchCase{"a+b", "cb", false},
        MatchCase{"ab|cd", "zcdz", true}, MatchCase{"ab|cd", "zadz", false},
        MatchCase{"[0-9]{3}", "ab123", true},
        MatchCase{"[0-9]{3}", "ab12x3", false},
        MatchCase{"a[^x]c", "ayc", true}, MatchCase{"a[^x]c", "axc", false},
        MatchCase{"a.c", "a\nc abc", true},  // '.' skips newline, abc matches
        MatchCase{"(ab){2,3}", "zababz", true},
        MatchCase{"(ab){2,3}", "zabz", false},
        MatchCase{"colou?r", "color", true},
        MatchCase{"colou?r", "colouur", false},
        MatchCase{"\\d+\\.\\d+", "v1.25", true},
        MatchCase{"\\x41\\x42", "xABy", true},
        MatchCase{"a{2,}", "xaaay", true}, MatchCase{"a{4,}", "xaaay", false},
        MatchCase{"GET /[a-z]+\\.php", "GET /index.php HTTP", true}));

TEST(RegexEngine, HardwareMatchesSoftwareOnCorpus) {
  // Property: for every rule, the mapped hardware engine and the software
  // matcher agree cycle for cycle on random byte streams seeded with
  // rule-relevant fragments.
  for (const auto& rule : regexp::bleeding_edge_style_rules()) {
    const auto nl = regexp::regex_engine(rule);
    const auto mapped = techmap::map_to_luts(aig::aig_from_netlist(nl));
    techmap::LutSimulator hw(mapped);
    regexp::StreamMatcher sw(rule);

    Rng rng(0xfeedULL + rule.size());
    std::string stream;
    for (int i = 0; i < 600; ++i) {
      const auto r = rng.next_below(100);
      if (r < 55) {
        stream.push_back(static_cast<char>('a' + rng.next_below(26)));
      } else if (r < 70) {
        stream.push_back(static_cast<char>('0' + rng.next_below(10)));
      } else if (r < 85) {
        stream.push_back(static_cast<char>(rng.next_below(256)));
      } else {
        // Inject rule-ish fragments to exercise partial matches.
        static const char* frags[] = {"GET /", "../", "union", "select",
                                      "NICK ", "\x90\x90\x90\x90", "Basic ",
                                      "\r\n"};
        stream += frags[rng.next_below(8)];
      }
    }

    for (std::size_t t = 0; t < stream.size(); ++t) {
      const auto c = static_cast<unsigned char>(stream[t]);
      std::vector<std::uint64_t> in_bits(8);
      for (int b = 0; b < 8; ++b) {
        in_bits[b] = ((c >> b) & 1) ? ~std::uint64_t{0} : 0;
      }
      const bool hw_match = hw.step(in_bits)[0] & 1;
      const bool sw_match = sw.feed(c);
      ASSERT_EQ(hw_match, sw_match)
          << "rule '" << rule << "' cycle " << t;
    }
  }
}

TEST(RegexEngine, SizesMatchTableOne) {
  // Table I RegExp row: min 224, avg 243, max 261 4-LUTs. Allow a modest
  // band around it (different mapper, same ballpark).
  mmflow::Summary sizes;
  for (const auto& rule : regexp::bleeding_edge_style_rules()) {
    const auto mapped =
        techmap::map_to_luts(aig::aig_from_netlist(regexp::regex_engine(rule)));
    sizes.add(static_cast<double>(mapped.num_blocks()));
  }
  EXPECT_GE(sizes.min(), 200);
  EXPECT_LE(sizes.max(), 290);
  EXPECT_NEAR(sizes.mean(), 243, 30);
}

TEST(RegexEngine, SharedClassesShareDecoders) {
  regexp::EngineStats stats;
  const auto nl = regexp::regex_engine("[a-z]{40}", &stats);
  EXPECT_EQ(stats.num_positions, 40u);
  EXPECT_EQ(stats.num_classes, 1u);
  // One decoder for all 40 positions: gate count far below 40x decoder size.
  EXPECT_LT(nl.num_gates(), 40u + 3u * 40u);
}

// -------------------------------------------------------------------- fir

TEST(Fir, ReferenceMatchesHardwareGeneric) {
  fir::FirSpec spec;
  spec.taps = 4;
  spec.data_width = 4;
  spec.coeff_width = 3;
  const auto nl = fir::generic_fir(spec);

  fir::FirCoeffs coeffs;
  coeffs.values = {3, -5, 0, 7};

  // Bind coefficients through the *inputs* (no constant propagation) so the
  // generic datapath itself is validated.
  netlist::Simulator sim(nl);
  Rng rng(42);
  const int W = spec.output_width();

  std::vector<std::uint32_t> samples;
  std::vector<std::uint64_t> outputs;
  for (int t = 0; t < 40; ++t) {
    const auto x = static_cast<std::uint32_t>(
        rng.next_below(1u << spec.data_width));
    samples.push_back(x);
    std::vector<std::uint64_t> in;
    for (const auto sig : nl.inputs()) {
      const std::string& name = nl.signal(sig).name;
      std::uint64_t value = 0;
      if (name[0] == 'x') {
        const int bit = std::stoi(name.substr(1));
        value = (x >> bit) & 1 ? ~std::uint64_t{0} : 0;
      } else {
        const std::size_t mpos = name.find('m');
        const int k = std::stoi(name.substr(1, name.find_first_not_of(
                                                   "0123456789", 1) - 1));
        const int coeff = coeffs.values[static_cast<std::size_t>(k)];
        if (name.back() == 's' && mpos == std::string::npos) {
          value = coeff < 0 ? ~std::uint64_t{0} : 0;
        } else {
          const int bit = std::stoi(name.substr(mpos + 1));
          value = (static_cast<unsigned>(std::abs(coeff)) >> bit) & 1
                      ? ~std::uint64_t{0}
                      : 0;
        }
      }
      in.push_back(value);
    }
    const auto out = sim.step(in);
    std::uint64_t y = 0;
    for (int b = 0; b < W; ++b) y |= (out[static_cast<std::size_t>(b)] & 1) << b;
    outputs.push_back(y);
  }

  const auto expected = fir::fir_reference(spec, coeffs, samples);
  for (std::size_t t = 0; t < samples.size(); ++t) {
    ASSERT_EQ(outputs[t], expected[t]) << "sample " << t;
  }
}

TEST(Fir, SpecializedMatchesReference) {
  const fir::FirSpec spec = suite_fir_spec();
  for (const auto kind : {fir::FilterKind::LowPass, fir::FilterKind::HighPass}) {
    const auto coeffs = fir::random_coefficients(spec, kind, 7, 0.7);
    const auto specialized = techmap::map_to_luts(aig::aig_from_netlist(
        fir::generic_fir(spec), fir::coefficient_bindings(spec, coeffs)));

    techmap::LutSimulator sim(specialized);
    Rng rng(9);
    std::vector<std::uint32_t> samples;
    std::vector<std::uint64_t> outputs;
    const int W = spec.output_width();
    for (int t = 0; t < 64; ++t) {
      const auto x = static_cast<std::uint32_t>(
          rng.next_below(1u << spec.data_width));
      samples.push_back(x);
      std::vector<std::uint64_t> in(specialized.num_pis());
      for (std::size_t i = 0; i < specialized.num_pis(); ++i) {
        const std::string& name = specialized.pi_names()[i];
        MMFLOW_CHECK(name[0] == 'x');
        const int bit = std::stoi(name.substr(1));
        in[i] = (x >> bit) & 1 ? ~std::uint64_t{0} : 0;
      }
      const auto out = sim.step(in);
      // Outputs are named y0..y{W-1} but may be permuted; index by name.
      std::uint64_t y = 0;
      for (std::size_t o = 0; o < specialized.num_pos(); ++o) {
        const int bit = std::stoi(specialized.pos()[o].name.substr(1));
        y |= (out[o] & 1) << bit;
      }
      outputs.push_back(y);
      (void)W;
    }
    const auto expected = fir::fir_reference(spec, coeffs, samples);
    for (std::size_t t = 0; t < samples.size(); ++t) {
      ASSERT_EQ(outputs[t], expected[t])
          << (kind == fir::FilterKind::LowPass ? "LP" : "HP") << " sample " << t;
    }
  }
}

TEST(Fir, SpecializedIsRoughlyThreeTimesSmaller) {
  // Paper: "Such a FIR filter is 3 times smaller than the generic version."
  const std::size_t generic = generic_fir_luts();
  SuiteOptions options;
  options.limit_pairs = 4;
  mmflow::Summary ratio;
  for (const auto& bench : fir_suite(options)) {
    for (const auto& mode : bench.modes) {
      ratio.add(static_cast<double>(generic) /
                static_cast<double>(mode.num_blocks()));
    }
  }
  EXPECT_GT(ratio.mean(), 2.0);
  EXPECT_LT(ratio.mean(), 6.0);
}

TEST(Fir, CoefficientStructure) {
  const fir::FirSpec spec = suite_fir_spec();
  const auto lp = fir::random_coefficients(spec, fir::FilterKind::LowPass, 3);
  for (const int v : lp.values) EXPECT_GE(v, 0);
  const auto hp = fir::random_coefficients(spec, fir::FilterKind::HighPass, 3);
  for (std::size_t k = 0; k < hp.values.size(); ++k) {
    if (k % 2 == 1) {
      EXPECT_LE(hp.values[k], 0);
    } else {
      EXPECT_GE(hp.values[k], 0);
    }
  }
  // All-zero draws are repaired.
  const auto sparse =
      fir::random_coefficients(spec, fir::FilterKind::LowPass, 11, 0.01);
  EXPECT_TRUE(std::any_of(sparse.values.begin(), sparse.values.end(),
                          [](int v) { return v != 0; }));
}

// -------------------------------------------------------------------- mcnc

TEST(Mcnc, SyntheticCircuitIsValidAndSequential) {
  mcnc::SyntheticSpec spec;
  spec.num_gates = 200;
  spec.seed = 5;
  const auto nl = mcnc::synthetic_circuit(spec);
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.num_latches(), static_cast<std::size_t>(spec.num_registers));
  EXPECT_EQ(nl.inputs().size(), static_cast<std::size_t>(spec.num_inputs));
  // Simulates without issue.
  netlist::Simulator sim(nl);
  Rng rng(1);
  for (int t = 0; t < 8; ++t) {
    (void)sim.step(mmflow::testing::random_words(nl.inputs().size(), rng));
  }
}

TEST(Mcnc, SizedCalibrationHitsTargets) {
  for (const int target : {150, 264, 404}) {
    const auto circuit = mcnc::sized_synthetic_circuit(target, 17);
    const auto size = static_cast<double>(circuit.num_blocks());
    EXPECT_NEAR(size, target, target * 0.12) << "target " << target;
  }
}

TEST(Mcnc, CloneSizesMatchTableOne) {
  const auto& sizes = mcnc::paper_clone_sizes();
  ASSERT_EQ(sizes.size(), 5u);
  EXPECT_EQ(*std::min_element(sizes.begin(), sizes.end()), 264);
  EXPECT_EQ(*std::max_element(sizes.begin(), sizes.end()), 404);
  int sum = 0;
  for (const int s : sizes) sum += s;
  EXPECT_EQ(sum / 5, 310);
}

TEST(Mcnc, BlifLoadPath) {
  const std::string path = ::testing::TempDir() + "/mm_test.blif";
  {
    netlist::Netlist nl("tiny");
    const auto a = nl.add_input("a");
    const auto b = nl.add_input("b");
    nl.add_output("y", nl.add_xor(a, b));
    std::ofstream out(path);
    out << netlist::write_blif(nl);
  }
  const auto modes = mcnc::load_blif_modes({path, path});
  ASSERT_EQ(modes.size(), 2u);
  EXPECT_GE(modes[0].num_blocks(), 1u);
}

// ------------------------------------------------------------------- suites

TEST(Suites, PairCountsMatchPaper) {
  SuiteOptions options;
  options.limit_pairs = 2;  // shape check without the full build cost
  EXPECT_EQ(regexp_suite(options).size(), 2u);
  EXPECT_EQ(fir_suite(options).size(), 2u);
  EXPECT_EQ(mcnc_suite(options).size(), 2u);
  for (const auto& bench : regexp_suite(options)) {
    EXPECT_EQ(bench.modes.size(), 2u);
  }
}

TEST(Suites, NegativeLimitPairsIsPrecondition) {
  SuiteOptions options;
  options.limit_pairs = -3;  // used to build the full 10-pair suite
  EXPECT_THROW((void)regexp_suite(options), PreconditionError);
  EXPECT_THROW((void)fir_suite(options), PreconditionError);
  EXPECT_THROW((void)mcnc_suite(options), PreconditionError);
}

}  // namespace
}  // namespace mmflow::apps
