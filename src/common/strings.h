#pragma once
/// \file strings.h
/// String helpers shared by the BLIF parser, the regex front-end, the
/// reporting code, and the CLI/env knob parsers.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mmflow {

/// Splits on any run of whitespace; never returns empty tokens.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view text);

/// Splits on a single delimiter character; keeps empty fields.
[[nodiscard]] std::vector<std::string> split_char(std::string_view text,
                                                  char delim);

/// Removes leading and trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// True if `text` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);

/// Renders `value` with `digits` digits after the decimal point.
[[nodiscard]] std::string format_double(double value, int digits);

/// Renders e.g. 1234567 as "1,234,567" for table output.
[[nodiscard]] std::string with_thousands(long long value);

// ---- checked numeric parsing ------------------------------------------------
//
// Every CLI flag and MMFLOW_* environment knob goes through these instead of
// std::atoi/std::atof/std::strtoull: the whole (whitespace-trimmed) string
// must parse, so garbage or trailing junk ("abc", "4x", "1.5" for an int)
// throws a PreconditionError naming the offending knob instead of silently
// becoming 0 — `--jobs=abc` used to mean 0 workers. All throw on empty
// input, partial parses and out-of-range values; parse_double additionally
// rejects NaN and infinities (no knob has a meaningful non-finite value).

/// Parses all of `text` as a decimal int. `what` names the knob in errors,
/// e.g. "--jobs" or "MMFLOW_PAIRS".
[[nodiscard]] int parse_int(std::string_view text, std::string_view what);

/// Parses all of `text` as a decimal unsigned 64-bit value (seeds).
[[nodiscard]] std::uint64_t parse_u64(std::string_view text,
                                      std::string_view what);

/// Parses all of `text` as a finite double.
[[nodiscard]] double parse_double(std::string_view text, std::string_view what);

// ---- knob-range specs -------------------------------------------------------
//
// The autotuner (src/tune/) searches over named numeric knobs; a search
// range is written `name=lo:hi[:log]`, e.g. `inner_num=2:20:log` or
// `timing_tradeoff=0:1`, and a whole space is a comma-separated list of
// such terms. The grammar lives here next to the other checked knob
// parsers so every surface (the `--tune-knobs` flag, tests) rejects
// malformed specs identically — and, like the PR 5 parsers, every error
// names the offending knob instead of silently degrading.

/// One parsed `name=lo:hi[:log]` term. Bounds are inclusive; `log_scale`
/// means samples are spaced uniformly in log(value) (requires lo > 0).
struct KnobRangeSpec {
  std::string name;
  double lo = 0.0;
  double hi = 0.0;
  bool log_scale = false;
};

/// Parses one `name=lo:hi[:log]` term. Rejects (always naming the knob and
/// `what`, e.g. "--tune-knobs"): missing '=' or bounds, non-finite bounds
/// (NaN/inf — via parse_double), reversed bounds (lo > hi), empty ranges
/// (lo == hi), an unknown scale suffix, and log scale with lo <= 0.
[[nodiscard]] KnobRangeSpec parse_knob_range(std::string_view term,
                                             std::string_view what);

/// Parses a comma-separated list of `name=lo:hi[:log]` terms. Additionally
/// rejects duplicate knob names and specs with no terms at all.
[[nodiscard]] std::vector<KnobRangeSpec> parse_knob_ranges(
    std::string_view spec, std::string_view what);

}  // namespace mmflow
