#pragma once
/// \file ledger.h
/// The autotuner's trial ledger: an append-only record of every finished
/// trial (tag "mmflow-tune-v1"), at `<cache_dir>/tune.log`.
///
/// The artifact store answers "is this flow's artifact on disk?"; the
/// ledger answers the tuner-level question "what QoR did trial t at rung r
/// produce?" — which a rerun tune needs to rebuild its successive-halving
/// state without re-running (or even re-loading) the flows of completed
/// rungs. One line per trial, holding the knob coordinates and objective
/// vector as exact IEEE-754 bits (hex), so a resumed front is bit-identical
/// to an uninterrupted one. A tune with a cache dir always replays it.
///
/// Only *deterministic terminal* outcomes are recorded: `ok` (with
/// objectives) and `failed` (a flow error — deterministic by the engine
/// contract, so replaying it is pointless). Timeouts and cancellations are
/// never written; whether a trial times out depends on wall-clock load, and
/// a record of it would leak non-determinism into resumed schedules.
///
/// Every record carries the hash of the tune configuration (knob space +
/// seed + budget + objectives); load() skips records from a different
/// configuration, so a cache dir holding a stale ledger degrades to a cold
/// start instead of silently grafting mismatched trials.
///
/// Robustness contract (matches the store's): the ledger is advisory and
/// self-healing. A missing or unreadable file is an empty ledger; corrupt
/// lines are skipped, never fatal; a failed append is warned and counted.
/// Each record is handed to the OS as one flushed write of the line and its
/// '\n', so a last line without '\n' is torn by a kill by definition: it is
/// skipped even if it happens to parse, and cut off the file so it is never
/// replayed and later appends start on a fresh line.

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace mmflow::tune {

/// One finished trial at one rung.
struct TrialRecord {
  std::uint64_t trial = 0;  ///< canonical trial index (sampler index)
  int rung = 0;
  bool ok = false;                    ///< false: the flow threw (failed)
  std::vector<double> knob_values;    ///< concrete values, one per knob
  std::vector<double> objectives;     ///< empty when !ok
  std::uint64_t wall_ms = 0;          ///< informational; never in dominance
};

/// Not thread-safe: the tuner loads and records on its scheduling thread.
class TrialLedger {
 public:
  /// Opens (and loads) the ledger at `path`, keeping only records whose
  /// configuration hash equals `config_hash`. Missing file = empty ledger.
  TrialLedger(std::filesystem::path path, std::uint64_t config_hash);

  /// The record for (trial, rung), or nullptr if none was kept.
  [[nodiscard]] const TrialRecord* find(std::uint64_t trial, int rung) const;

  /// Appends `record` (flushed) unless (trial, rung) is already present.
  /// A failed append degrades to a warning plus `tune.ledger_write_errors`.
  void record(const TrialRecord& record);

  /// Records kept after filtering.
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Lines dropped during load: torn/corrupt plus configuration mismatches.
  [[nodiscard]] std::size_t skipped() const { return skipped_; }

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

  /// The conventional ledger location next to a sweep's artifact store.
  [[nodiscard]] static std::filesystem::path default_path(
      const std::filesystem::path& cache_dir);

  /// Record line codec, exposed for tests: `format_record` renders one
  /// ledger line (no newline); `parse_record` validates and decodes one,
  /// returning false on any malformed field or trailing junk.
  [[nodiscard]] static std::string format_record(std::uint64_t config_hash,
                                                 const TrialRecord& record);
  [[nodiscard]] static bool parse_record(const std::string& line,
                                         std::uint64_t& config_hash,
                                         TrialRecord& record);

 private:
  std::filesystem::path path_;
  std::uint64_t config_hash_;
  std::size_t skipped_ = 0;
  std::map<std::pair<std::uint64_t, int>, TrialRecord> records_;
};

}  // namespace mmflow::tune
