#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.h"

namespace mmflow {

std::vector<std::string> split_ws(std::string_view text) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    std::size_t start = i;
    while (i < text.size() && !std::isspace(static_cast<unsigned char>(text[i]))) ++i;
    if (i > start) out.emplace_back(text.substr(start, i - start));
  }
  return out;
}

std::vector<std::string> split_char(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      out.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view trim(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string format_double(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string with_thousands(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  int since_sep = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (since_sep == 3) {
      out.push_back(',');
      since_sep = 0;
    }
    out.push_back(*it);
    ++since_sep;
  }
  if (negative) out.push_back('-');
  return std::string(out.rbegin(), out.rend());
}

namespace {

/// from_chars over the trimmed text; the whole remainder must be consumed.
template <typename T>
T parse_whole(std::string_view text, std::string_view what, const char* kind) {
  const std::string_view t = trim(text);
  T value{};
  const auto* begin = t.data();
  const auto* end = t.data() + t.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (t.empty() || ec == std::errc::invalid_argument || ptr != end) {
    throw PreconditionError(std::string(what) + ": expected " + kind +
                            ", got \"" + std::string(text) + "\"");
  }
  if (ec == std::errc::result_out_of_range) {
    throw PreconditionError(std::string(what) + ": value \"" +
                            std::string(text) + "\" is out of range");
  }
  return value;
}

}  // namespace

int parse_int(std::string_view text, std::string_view what) {
  return parse_whole<int>(text, what, "an integer");
}

std::uint64_t parse_u64(std::string_view text, std::string_view what) {
  return parse_whole<std::uint64_t>(text, what, "an unsigned integer");
}

double parse_double(std::string_view text, std::string_view what) {
  const double value = parse_whole<double>(text, what, "a number");
  if (!std::isfinite(value)) {
    throw PreconditionError(std::string(what) + ": value \"" +
                            std::string(text) + "\" is not finite");
  }
  return value;
}

KnobRangeSpec parse_knob_range(std::string_view term, std::string_view what) {
  const std::string_view t = trim(term);
  const auto fail = [&](const std::string& detail) -> PreconditionError {
    return PreconditionError(std::string(what) + ": knob term \"" +
                             std::string(t) + "\": " + detail +
                             " (expected name=lo:hi[:log])");
  };
  const std::size_t eq = t.find('=');
  if (eq == std::string_view::npos) throw fail("missing '='");
  KnobRangeSpec spec;
  spec.name = std::string(trim(t.substr(0, eq)));
  if (spec.name.empty()) throw fail("empty knob name");
  const auto fields = split_char(t.substr(eq + 1), ':');
  if (fields.size() < 2 || fields.size() > 3) {
    throw fail("range of knob '" + spec.name + "' needs lo:hi bounds");
  }
  // parse_double already rejects NaN, infinities and garbage — the error it
  // throws names the knob via `what` below.
  const std::string bound_what =
      std::string(what) + " knob '" + spec.name + "'";
  spec.lo = parse_double(fields[0], bound_what);
  spec.hi = parse_double(fields[1], bound_what);
  if (spec.lo > spec.hi) {
    throw fail("knob '" + spec.name + "' has reversed bounds (" + fields[0] +
               " > " + fields[1] + ")");
  }
  if (spec.lo == spec.hi) {
    throw fail("knob '" + spec.name + "' has an empty range");
  }
  if (fields.size() == 3) {
    if (trim(fields[2]) != "log") {
      throw fail("knob '" + spec.name + "' has unknown scale \"" + fields[2] +
                 "\" (only :log is supported)");
    }
    spec.log_scale = true;
    if (spec.lo <= 0.0) {
      throw fail("knob '" + spec.name + "' is log-scaled but its lower bound "
                 "is not positive");
    }
  }
  return spec;
}

std::vector<KnobRangeSpec> parse_knob_ranges(std::string_view spec,
                                             std::string_view what) {
  std::vector<KnobRangeSpec> out;
  for (const auto& term : split_char(spec, ',')) {
    if (trim(term).empty()) continue;  // tolerate stray commas
    out.push_back(parse_knob_range(term, what));
    for (std::size_t i = 0; i + 1 < out.size(); ++i) {
      if (out[i].name == out.back().name) {
        throw PreconditionError(std::string(what) + ": duplicate knob '" +
                                out.back().name + "'");
      }
    }
  }
  if (out.empty()) {
    throw PreconditionError(std::string(what) +
                            ": empty knob spec (no name=lo:hi terms)");
  }
  return out;
}

}  // namespace mmflow
