#pragma once
/// \file artifact_store.h
/// On-disk, cross-process persistence layer under `core::FlowCache` — the
/// ROADMAP's "on-disk artifact store". Every finished experiment gets one
/// content-addressed file keyed by its `FlowKey` structural hashes, so a
/// second process — or a sharded batch on another machine sharing the
/// directory — replays a first process's finished jobs as cache hits with
/// bit-identical QoR. The sub-experiment artifacts (MDR bundle, width
/// probes, final MDR routes) are cached in memory only, so the store holds
/// exactly one entry per finished job; a later process that runs the other
/// engine or λ of a stored circuit recomputes them (docs/CACHING.md).
///
/// ## Store layout and entry format (docs/CACHING.md has the full spec)
///
/// ```
/// <root>/experiments/<key>.bin   MultiModeExperiment
/// ```
///
/// `<key>` spells out all seven FlowKey fields in hex, so the filename *is*
/// the full key — no filename-hash collision can substitute a wrong
/// artifact. Every entry starts with a fixed header: magic, store-format
/// version, schema hash (an FNV over a description of the serialized field
/// layout — bumping either invalidates every stale entry cleanly), the full
/// FlowKey again, and the payload size + FNV checksum. A little-endian,
/// fixed-width binary payload follows.
///
/// ## Failure contract
///
/// Reads are corruption-tolerant by construction: a missing file, a
/// truncated or garbled entry, a format/schema/key mismatch, or a payload
/// that fails domain validation during deserialization is a cache *miss*
/// (`std::nullopt`), never an abort — the flow recomputes and rewrites.
/// Writes are atomic (tmp file + rename) and best-effort: an unwritable
/// directory degrades the store to read-only (or to a no-op) without
/// failing the flow. Outcomes are counted as `flowcache.disk_hits` /
/// `disk_misses` / `disk_invalid` / `disk_writes` / `disk_write_errors`
/// (disjoint per lookup/commit).
///
/// ## Determinism contract
///
/// Every payload either stores a computed artifact bit-for-bit (placement
/// sites, routed paths, problems, region) or stores the exact inputs of a
/// deterministic reconstruction (the Tunable circuit is persisted as its
/// mode circuits + merge assignment and rebuilt through the
/// `TunableCircuit` constructor). A warm process therefore reproduces a
/// cold process's QoR bit-identically — asserted by
/// tests/test_artifact_store.cpp and the CI persistent-cache smoke job.
///
/// ## Thread-safety
///
/// Loads read immutable committed files and take no lock. Saves serialize
/// through one commit mutex per store (the BatchDriver's workers share one
/// store; commits must not interleave tmp-file counters) and are atomic at
/// the filesystem level, so concurrent writers — threads or processes —
/// land whole entries, last writer wins with identical bytes.

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>

#include "core/flows.h"

namespace mmflow::core {

class ArtifactStore {
 public:
  /// Bumped on any change to the header layout; readers reject other
  /// versions as invalid (a clean miss). 2: no artifact-kind byte.
  static constexpr std::uint32_t kFormatVersion = 2;

  /// Hash of the payload field layout (see kSchemaDescription in the .cpp);
  /// entries written under a different schema are invalid (a clean miss).
  [[nodiscard]] static std::uint64_t schema_hash();

  /// Opens (and best-effort creates) the store rooted at `root`. Never
  /// throws on an unusable directory: reads then miss and writes fail
  /// gracefully — a flow with a broken cache dir still completes.
  explicit ArtifactStore(std::filesystem::path root);

  /// Returns the experiment, or nullopt on a miss (absent file) or an
  /// invalid entry (see the failure contract above).
  [[nodiscard]] std::optional<MultiModeExperiment> load_experiment(
      const FlowKey& key) const;
  /// Returns whether the entry was committed.
  bool save_experiment(const FlowKey& key,
                       const MultiModeExperiment& experiment);

  /// Committed entry files (diagnostics; walks the directory).
  [[nodiscard]] std::size_t size() const;

 private:
  std::filesystem::path root_;
  mutable std::mutex commit_mutex_;  ///< serializes writes (tmp names, rename)
  std::uint64_t tmp_counter_ = 0;    ///< guarded by commit_mutex_
};

}  // namespace mmflow::core
