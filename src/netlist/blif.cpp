#include "netlist/blif.h"

#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/strings.h"

namespace mmflow::netlist {

namespace {

std::string located_message(const std::string& source, int line,
                            const std::string& message) {
  std::ostringstream os;
  os << source;
  if (line > 0) os << ':' << line;
  os << ": " << message;
  return os.str();
}

}  // namespace

BlifParseError::BlifParseError(std::string source, int line,
                               const std::string& message)
    : ParseError(located_message(source, line, message)),
      source_(std::move(source)),
      line_(line) {}

namespace {

/// One logical BLIF line: its tokens plus the 1-based physical line it
/// started on (continuation lines report the line of their first piece).
struct Line {
  int number = 0;
  std::vector<std::string> tokens;
};

/// Joins continuation lines, strips comments, tokenizes, and remembers
/// where each logical line began — the parser's errors point there.
std::vector<Line> logical_lines(const std::string& text) {
  std::vector<Line> lines;
  std::string pending;
  int pending_start = 0;
  int lineno = 0;
  std::istringstream in(text);
  std::string raw;
  while (std::getline(in, raw)) {
    ++lineno;
    if (const auto hash = raw.find('#'); hash != std::string::npos) {
      raw.erase(hash);
    }
    const std::string_view trimmed = trim(raw);
    if (pending.empty() && !trimmed.empty()) pending_start = lineno;
    if (!trimmed.empty() && trimmed.back() == '\\') {
      pending += std::string(trimmed.substr(0, trimmed.size() - 1));
      pending += ' ';
      continue;
    }
    pending += std::string(trimmed);
    auto tokens = split_ws(pending);
    pending.clear();
    if (!tokens.empty()) lines.push_back(Line{pending_start, std::move(tokens)});
  }
  if (!trim(pending).empty()) {
    lines.push_back(Line{pending_start, split_ws(pending)});
  }
  return lines;
}

struct PendingNames {
  int line = 0;                      // the .names line
  std::vector<std::string> signals;  // inputs..., output last
  std::vector<std::string> rows;     // cube rows like "1-0 1"
  std::vector<int> row_lines;        // physical line of each row
};

struct PendingLatch {
  int line = 0;
  std::string input;
  std::string output;
  bool init = false;
};

}  // namespace

Netlist parse_blif(const std::string& text) {
  return parse_blif(text, "<blif>");
}

Netlist parse_blif(const std::string& text, const std::string& source_name) {
  const auto fail = [&source_name](int line,
                                   const std::string& message) -> void {
    throw BlifParseError(source_name, line, message);
  };

  const auto lines = logical_lines(text);

  std::string model_name = "top";
  std::vector<std::pair<std::string, int>> input_names;  // name, line
  std::vector<std::pair<std::string, int>> output_names;
  std::vector<PendingNames> names;
  std::vector<PendingLatch> latches;
  bool saw_model = false;
  bool saw_end = false;

  for (const auto& line : lines) {
    const auto& tokens = line.tokens;
    const std::string& head = tokens[0];
    if (saw_end) {
      fail(line.number,
           "content after .end (multiple models are unsupported)");
    }
    if (head == ".model") {
      if (saw_model) fail(line.number, "multiple .model directives");
      saw_model = true;
      if (tokens.size() > 1) model_name = tokens[1];
    } else if (head == ".inputs") {
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        input_names.emplace_back(tokens[t], line.number);
      }
    } else if (head == ".outputs") {
      for (std::size_t t = 1; t < tokens.size(); ++t) {
        output_names.emplace_back(tokens[t], line.number);
      }
    } else if (head == ".names") {
      if (tokens.size() < 2) fail(line.number, ".names without output signal");
      PendingNames pn;
      pn.line = line.number;
      pn.signals.assign(tokens.begin() + 1, tokens.end());
      names.push_back(std::move(pn));
    } else if (head == ".latch") {
      // .latch <input> <output> [<type> <control>] [<init>]
      if (tokens.size() < 3) fail(line.number, ".latch needs input and output");
      PendingLatch pl;
      pl.line = line.number;
      pl.input = tokens[1];
      pl.output = tokens[2];
      // Optional trailing init value (0,1,2,3); 2/3 (don't care / unknown)
      // are treated as 0.
      if (tokens.size() >= 4) {
        const std::string& last = tokens.back();
        if (last == "1") pl.init = true;
      }
      latches.push_back(std::move(pl));
    } else if (head == ".end") {
      saw_end = true;
    } else if (head == ".exdc" || head == ".subckt" || head == ".gate") {
      fail(line.number, "unsupported BLIF construct: " + head);
    } else if (head[0] == '.') {
      // Ignore benign directives (.default_input_arrival etc.).
    } else {
      // Cube row belonging to the most recent .names.
      if (names.empty()) {
        fail(line.number, "cube row outside .names: " + head);
      }
      std::string row = head;
      if (tokens.size() == 2) {
        row += ' ';
        row += tokens[1];
      } else if (tokens.size() != 1) {
        fail(line.number, "malformed cube row");
      }
      names.back().rows.push_back(row);
      names.back().row_lines.push_back(line.number);
    }
  }
  if (!saw_model) fail(0, "missing .model");

  // Every signal may be defined exactly once, as a primary input, a latch
  // output or a .names output. The netlist builder enforces this with a
  // precondition check; validating here first keeps that check unreachable
  // from file content and points the error at the offending line.
  {
    std::unordered_map<std::string, int> defined;  // name -> defining line
    const auto define = [&](const std::string& name, int line) {
      const auto [it, inserted] = defined.emplace(name, line);
      if (!inserted) {
        fail(line, "signal '" + name + "' already defined at line " +
                       std::to_string(it->second));
      }
    };
    for (const auto& [name, line] : input_names) define(name, line);
    for (const auto& pl : latches) define(pl.output, pl.line);
    for (const auto& pn : names) define(pn.signals.back(), pn.line);
  }

  Netlist nl(model_name);

  // Three-phase build: declare all signal producers first so .names can
  // reference signals defined later in the file (BLIF allows any order).
  for (const auto& [name, line] : input_names) nl.add_input(name);
  for (const auto& pl : latches) nl.add_latch(kNoSignal, pl.init, pl.output);

  // Declare gate outputs as gates with empty covers, then fill below. To keep
  // the Netlist API immutable-ish we instead resolve in dependency order:
  // create placeholder name->id map progressively. Simplest correct approach:
  // create gates in an order where all fanins exist. Do a fixed-point loop.
  std::vector<bool> built(names.size(), false);
  std::size_t remaining = names.size();
  auto resolve = [&nl](const std::string& name) { return nl.find(name); };

  while (remaining > 0) {
    bool progress = false;
    for (std::size_t gi = 0; gi < names.size(); ++gi) {
      if (built[gi]) continue;
      const PendingNames& pn = names[gi];
      bool ready = true;
      for (std::size_t ii = 0; ii + 1 < pn.signals.size(); ++ii) {
        if (resolve(pn.signals[ii]) == kNoSignal) {
          ready = false;
          break;
        }
      }
      if (!ready) continue;

      const std::size_t num_inputs = pn.signals.size() - 1;
      if (num_inputs > 64) {
        fail(pn.line, ".names with more than 64 inputs");
      }
      std::vector<SignalId> fanins;
      fanins.reserve(num_inputs);
      for (std::size_t ii = 0; ii < num_inputs; ++ii) {
        fanins.push_back(resolve(pn.signals[ii]));
      }
      SopCover cover;
      cover.num_inputs = static_cast<std::uint32_t>(num_inputs);
      bool onset_known = false;
      for (std::size_t ri = 0; ri < pn.rows.size(); ++ri) {
        const std::string& row = pn.rows[ri];
        const int row_line = pn.row_lines[ri];
        const auto parts = split_ws(row);
        std::string cube_str;
        char out_char = '?';  // fail() throws, but the compiler can't see it
        if (num_inputs == 0) {
          if (parts.size() != 1 || parts[0].size() != 1) {
            fail(row_line, "malformed constant row: " + row);
          }
          out_char = parts[0][0];
        } else {
          if (parts.size() != 2 || parts[1].size() != 1) {
            fail(row_line, "malformed cube row: " + row);
          }
          cube_str = parts[0];
          out_char = parts[1][0];
          if (cube_str.size() != num_inputs) {
            fail(row_line, "cube width mismatch in row: " + row);
          }
        }
        const bool out_value = out_char == '1';
        if (out_char != '0' && out_char != '1') {
          fail(row_line, "bad output value in row: " + row);
        }
        if (!onset_known) {
          cover.onset = out_value;
          onset_known = true;
        } else if (cover.onset != out_value) {
          fail(row_line, "mixed on-set/off-set rows for " + pn.signals.back());
        }
        try {
          cover.cubes.push_back(SopCover::cube_from_blif(cube_str));
        } catch (const std::exception& e) {
          // cube_from_blif reports bad cube characters without location;
          // re-wrap so the user error carries the file and line.
          fail(row_line, e.what());
        }
      }
      nl.add_gate(std::move(fanins), std::move(cover), pn.signals.back());
      built[gi] = true;
      --remaining;
      progress = true;
    }
    if (!progress) {
      fail(0, "unresolvable .names dependencies (cycle or missing signal)");
    }
  }

  // Wire latch D inputs and primary outputs now that everything exists.
  for (const auto& pl : latches) {
    const SignalId out = nl.find(pl.output);
    SignalId in = nl.find(pl.input);
    if (in == kNoSignal) {
      fail(pl.line, "latch input '" + pl.input + "' undefined");
    }
    nl.set_latch_input(out, in);
  }
  for (const auto& [out_name, out_line] : output_names) {
    const SignalId sig = nl.find(out_name);
    if (sig == kNoSignal) {
      fail(out_line, "primary output '" + out_name + "' undefined");
    }
    nl.add_output(out_name, sig);
  }
  // Belt and braces for the "no CHECK reachable from user input" contract:
  // the pre-validation above should make builder precondition failures
  // impossible, but any survivor (or a validate() complaint about content,
  // e.g. a combinational cycle) must still surface as a parse error, not as
  // an apparent mmflow bug.
  try {
    nl.validate();
  } catch (const std::exception& e) {
    fail(0, std::string("invalid netlist: ") + e.what());
  }
  return nl;
}

Netlist read_blif_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw BlifParseError(path, 0, "cannot open BLIF file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_blif(buffer.str(), path);
}

namespace {

/// Stable printable name for any signal (generated for anonymous ones).
std::string signal_print_name(const Netlist& nl, SignalId id) {
  const auto& sig = nl.signal(id);
  if (!sig.name.empty()) return sig.name;
  switch (sig.kind) {
    case DriverKind::Const0: return "__const0";
    case DriverKind::Const1: return "__const1";
    default: return "__n" + std::to_string(id);
  }
}

}  // namespace

std::string write_blif(const Netlist& nl) {
  std::ostringstream os;
  os << ".model " << nl.name() << "\n.inputs";
  for (const SignalId in : nl.inputs()) os << ' ' << signal_print_name(nl, in);
  os << "\n.outputs";
  for (const auto& out : nl.outputs()) os << ' ' << out.name;
  os << "\n";

  // Primary outputs may alias internal signals with different names; emit
  // buffer .names where needed.
  for (const auto& out : nl.outputs()) {
    const std::string driver = signal_print_name(nl, out.signal);
    if (driver != out.name) {
      os << ".names " << driver << ' ' << out.name << "\n1 1\n";
    }
  }

  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const auto& sig = nl.signal(id);
    switch (sig.kind) {
      case DriverKind::Const0:
        os << ".names " << signal_print_name(nl, id) << "\n";
        break;
      case DriverKind::Const1:
        os << ".names " << signal_print_name(nl, id) << "\n1\n";
        break;
      case DriverKind::Latch: {
        const auto& latch = nl.latch_of(id);
        os << ".latch " << signal_print_name(nl, latch.input) << ' '
           << signal_print_name(nl, id) << " re clk " << (latch.init ? 1 : 0)
           << "\n";
        break;
      }
      case DriverKind::Gate: {
        const auto& gate = nl.gate_of(id);
        os << ".names";
        for (const SignalId in : gate.inputs) {
          os << ' ' << signal_print_name(nl, in);
        }
        os << ' ' << signal_print_name(nl, id) << "\n";
        for (const auto& row : gate.cover.to_blif_rows()) os << row << "\n";
        break;
      }
      case DriverKind::Input:
        break;
    }
  }
  os << ".end\n";
  return os.str();
}

}  // namespace mmflow::netlist
