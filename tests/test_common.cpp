#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/strings.h"

namespace mmflow {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(7);
  for (int bound : {1, 2, 3, 10, 1000}) {
    for (int i = 0; i < 1000; ++i) {
      const auto v = rng.next_below(static_cast<std::uint64_t>(bound));
      EXPECT_LT(v, static_cast<std::uint64_t>(bound));
    }
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, PreconditionViolationThrows) {
  Rng rng(1);
  EXPECT_THROW(rng.next_below(0), PreconditionError);
  EXPECT_THROW(rng.next_int(3, 2), PreconditionError);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  shuffle(v, rng);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Summary, MinMeanMaxStddev) {
  Summary s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.stddev(), 1.118, 1e-3);
}

TEST(Summary, EmptyThrows) {
  Summary s;
  EXPECT_THROW((void)s.mean(), PreconditionError);
  EXPECT_THROW((void)s.min(), PreconditionError);
}

TEST(Stats, Median) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_THROW((void)median({}), PreconditionError);
}

TEST(Strings, SplitWs) {
  const auto parts = split_ws("  a b\t c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, SplitChar) {
  const auto parts = split_char("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, FormatHelpers) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(with_thousands(1234567), "1,234,567");
  EXPECT_EQ(with_thousands(-1000), "-1,000");
  EXPECT_EQ(with_thousands(12), "12");
}

TEST(Strings, ParseIntAcceptsWholeNumbers) {
  EXPECT_EQ(parse_int("42", "knob"), 42);
  EXPECT_EQ(parse_int("-7", "knob"), -7);
  EXPECT_EQ(parse_int("  13  ", "knob"), 13);  // surrounding whitespace ok
  EXPECT_EQ(parse_int("0", "knob"), 0);
}

TEST(Strings, ParseIntRejectsGarbageAndTrailingJunk) {
  // The regression that motivated the checked parsers: std::atoi silently
  // read all of these as 0 (--jobs=abc meant zero workers).
  EXPECT_THROW(parse_int("abc", "--jobs"), PreconditionError);
  EXPECT_THROW(parse_int("4x", "--jobs"), PreconditionError);
  EXPECT_THROW(parse_int("1.5", "--jobs"), PreconditionError);
  EXPECT_THROW(parse_int("", "--jobs"), PreconditionError);
  EXPECT_THROW(parse_int("   ", "--jobs"), PreconditionError);
  EXPECT_THROW(parse_int("999999999999999999999", "--jobs"),
               PreconditionError);  // out of range
  // The error names the offending knob.
  try {
    parse_int("abc", "--jobs");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("--jobs"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
}

TEST(Strings, ParseU64) {
  EXPECT_EQ(parse_u64("0", "seed"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615", "seed"),
            18446744073709551615ULL);
  EXPECT_THROW(parse_u64("-1", "seed"), PreconditionError);
  EXPECT_THROW(parse_u64("18446744073709551616", "seed"), PreconditionError);
  EXPECT_THROW(parse_u64("12three", "seed"), PreconditionError);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("1.5", "lambda"), 1.5);
  EXPECT_DOUBLE_EQ(parse_double("-0.25", "lambda"), -0.25);
  EXPECT_DOUBLE_EQ(parse_double("2e3", "lambda"), 2000.0);
  EXPECT_THROW(parse_double("x", "lambda"), PreconditionError);
  EXPECT_THROW(parse_double("1.5q", "lambda"), PreconditionError);
  EXPECT_THROW(parse_double("", "lambda"), PreconditionError);
  // Non-finite knob values are meaningless everywhere they are used.
  EXPECT_THROW(parse_double("nan", "lambda"), PreconditionError);
  EXPECT_THROW(parse_double("inf", "lambda"), PreconditionError);
}

TEST(Check, ThrowsExpectedTypes) {
  EXPECT_THROW(MMFLOW_CHECK(false), InternalError);
  EXPECT_THROW(MMFLOW_REQUIRE(false), PreconditionError);
  EXPECT_NO_THROW(MMFLOW_CHECK(true));
}

}  // namespace
}  // namespace mmflow
