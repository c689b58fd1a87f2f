#include "tune/ledger.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <functional>

#include "common/log.h"
#include "common/perf.h"
#include "common/strings.h"

namespace mmflow::tune {

namespace {

constexpr char kRecordTag[] = "mmflow-tune-v1";

/// The ledger's line discipline (see ledger.h): load with per-line
/// validation, skip-and-count corruption, cut off a torn tail,
/// append-with-flush. Not thread-safe: the tuner serializes its calls.
class RecordLog {
 public:
  explicit RecordLog(std::filesystem::path path) : path_(std::move(path)) {}

  /// Calls `parse` on each complete non-empty line; `parse` returns false
  /// for lines it cannot validate. Returns the number of skipped lines.
  std::size_t load(const std::function<bool(const std::string& line)>& parse) {
    std::ifstream is(path_);
    if (!is) return 0;  // no log yet: empty, by contract
    std::string line;
    std::size_t skipped = 0;
    std::uintmax_t line_start = 0;
    while (std::getline(is, line)) {
      if (is.eof()) {
        // No trailing '\n': the record was torn by a kill, even if what
        // is left still parses (a cut inside the last field does). Cut it
        // off, so it is never replayed and the next append starts clean.
        ++skipped;
        is.close();
        std::error_code ec;
        std::filesystem::resize_file(path_, line_start, ec);
        break;
      }
      line_start += line.size() + 1;
      if (!line.empty() && !parse(line)) ++skipped;
    }
    if (skipped != 0) {
      MMFLOW_WARN("record log: skipped " << skipped << " corrupt line(s) in "
                                         << path_.string());
    }
    return skipped;
  }

  /// Appends `line` and its '\n' in one write, flushed to the OS before
  /// returning, so a killed process loses at most the record being written.
  /// Returns false when the write failed.
  [[nodiscard]] bool append(const std::string& line) {
    const std::string record = line + '\n';
    std::ofstream os(path_, std::ios::app);
    os.write(record.data(), static_cast<std::streamsize>(record.size()));
    os.flush();
    return static_cast<bool>(os);
  }

 private:
  std::filesystem::path path_;
};

/// Exact IEEE-754 bits in hex: the only encoding that round-trips every
/// double bit-identically, which the resume determinism contract requires.
std::string hex_bits(double value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, std::bit_cast<std::uint64_t>(value));
  return buf;
}

/// Exactly 16 hex digits: the fixed width every hex field is written at.
bool parse_hex16(std::string_view text, std::uint64_t& out) {
  return text.size() == 16 && try_parse_hex_u64(text, &out);
}

/// Decodes a comma-separated hex-bits list ("-" means an empty list).
bool parse_bits_list(std::string_view text, std::vector<double>& out) {
  out.clear();
  if (text == "-") return true;
  for (const std::string& field : split_char(text, ',')) {
    std::uint64_t bits;
    if (!parse_hex16(field, bits)) return false;
    out.push_back(std::bit_cast<double>(bits));
  }
  return !out.empty();
}

std::string format_bits_list(const std::vector<double>& values) {
  if (values.empty()) return "-";
  std::string out;
  for (const double v : values) {
    if (!out.empty()) out += ',';
    out += hex_bits(v);
  }
  return out;
}

}  // namespace

std::string TrialLedger::format_record(std::uint64_t config_hash,
                                       const TrialRecord& record) {
  char head[96];
  std::snprintf(head, sizeof(head), "%s %016" PRIx64 " %" PRIu64 " %d %s ",
                kRecordTag, config_hash, record.trial, record.rung,
                record.ok ? "ok" : "failed");
  return std::string(head) + format_bits_list(record.knob_values) + " " +
         format_bits_list(record.objectives) + " " +
         std::to_string(record.wall_ms);
}

bool TrialLedger::parse_record(const std::string& line,
                               std::uint64_t& config_hash,
                               TrialRecord& record) {
  const std::vector<std::string> fields = split_ws(line);
  if (fields.size() != 8 || fields[0] != kRecordTag) return false;
  if (!parse_hex16(fields[1], config_hash)) return false;
  if (!try_parse_u64(fields[2], &record.trial)) return false;
  std::uint64_t rung;
  if (!try_parse_u64(fields[3], &rung) || rung > 64) return false;
  record.rung = static_cast<int>(rung);
  if (fields[4] == "ok") record.ok = true;
  else if (fields[4] == "failed") record.ok = false;
  else return false;
  if (!parse_bits_list(fields[5], record.knob_values)) return false;
  record.objectives.clear();
  if (record.ok) {
    if (!parse_bits_list(fields[6], record.objectives)) return false;
  } else if (fields[6] != "-") {
    return false;  // a failed trial has no QoR by construction
  }
  return try_parse_u64(fields[7], &record.wall_ms);
}

TrialLedger::TrialLedger(std::filesystem::path path, std::uint64_t config_hash)
    : path_(std::move(path)), config_hash_(config_hash) {
  std::size_t mismatched = 0;
  const std::size_t corrupt = RecordLog(path_).load([&](const auto& line) {
    std::uint64_t hash;
    TrialRecord record;
    if (!parse_record(line, hash, record)) return false;
    if (hash != config_hash_) {
      // A well-formed record from a different tune configuration: not
      // corrupt, just useless for us.
      ++mismatched;
      return true;
    }
    records_.emplace(std::make_pair(record.trial, record.rung),
                     std::move(record));
    return true;
  });
  skipped_ = corrupt + mismatched;
  if (mismatched != 0) {
    MMFLOW_WARN("trial ledger: ignored "
                << mismatched << " record(s) from a different tune "
                << "configuration in " << path_.string());
  }
  MMFLOW_PERF_ADD("tune.ledger_skips", static_cast<long long>(skipped_));
}

const TrialRecord* TrialLedger::find(std::uint64_t trial, int rung) const {
  const auto it = records_.find(std::make_pair(trial, rung));
  return it == records_.end() ? nullptr : &it->second;
}

void TrialLedger::record(const TrialRecord& record) {
  const auto key = std::make_pair(record.trial, record.rung);
  if (records_.contains(key)) return;  // already durable
  if (!RecordLog(path_).append(format_record(config_hash_, record))) {
    MMFLOW_PERF_ADD("tune.ledger_write_errors", 1);
    MMFLOW_WARN("trial ledger: cannot append to " << path_.string());
  }
  records_.emplace(key, record);
}

std::filesystem::path TrialLedger::default_path(
    const std::filesystem::path& cache_dir) {
  return cache_dir / "tune.log";
}

}  // namespace mmflow::tune
