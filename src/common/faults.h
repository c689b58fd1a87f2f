#pragma once
/// \file faults.h
/// Deterministic, seeded fault injection for chaos testing.
///
/// Production fault-tolerance code is only trustworthy if its failure paths
/// are exercised, and failure paths are only testable if failures can be
/// provoked *deterministically*. This registry lets tests, the CLI
/// (`--faults=`) and the benches (`MMFLOW_FAULTS`) arm named injection
/// sites; armed sites throw `FaultInjected` on exactly the hits the spec
/// selects, and the surrounding recovery machinery (artifact-store
/// degradation to a counted miss or write error, then recomputation) must
/// heal to bit-identical results.
///
/// ## Spec grammar
///
/// A spec is a comma-separated list of terms, each arming one site:
///
///   site@N        fire on exactly the Nth hit of `site` (1-based)
///   site@N*       fire on every hit from the Nth onward
///   site~P/SEED   fire each hit independently with probability P, decided
///                 by hash(SEED, site, hit index) — fully deterministic and
///                 independent of thread scheduling
///
/// e.g. `MMFLOW_FAULTS="store.read@2,store.write@1*,blif.parse~0.25/7"`.
///
/// ## Sites
///
/// Injection points call `faults::maybe_throw("name")`; `kSites` below
/// lists the shipped sites, and a spec naming any other site is rejected,
/// so a typo or a removed site can never arm nothing and pass silently.
///
/// ## Determinism & cost
///
/// Hit counters are global and per-site, incremented on every hit while any
/// spec is installed, so "the Nth hit" is well-defined only where the call
/// order is deterministic (single job, or per-site ordering guaranteed by
/// the caller); the probability form is per-hit-index and therefore stable
/// under any interleaving of *other* sites. When no spec is installed the
/// entire machinery is one relaxed atomic load per site (`enabled()` is
/// false and `maybe_throw` inlines to nothing else).
///
/// Thread-safety: install/clear must not race with in-flight flows (arm
/// faults before starting work); `maybe_throw` itself is safe from any
/// number of threads.

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace mmflow::faults {

/// The shipped injection sites, the only names a spec may arm:
///
///   store.read     ArtifactStore entry load (before deserializing)
///   store.write    ArtifactStore commit (before the tmp write)
///   blif.parse     BLIF ingestion (before parsing a file)
///   verify.mutate  the verifier's mutation harness (src/verify/mutate.h)
inline constexpr std::array<std::string_view, 4> kSites{
    "store.read", "store.write", "blif.parse", "verify.mutate"};

/// Thrown by an armed injection site. Deliberately a std::runtime_error so
/// every recovery path that handles real I/O or job failures handles
/// injected ones identically — chaos tests exercise the production code.
class FaultInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

namespace detail {
extern std::atomic<bool> g_enabled;
void maybe_throw_slow(std::string_view site);
}  // namespace detail

/// Parses `spec` (see grammar above) and replaces the installed config.
/// An empty spec disarms everything. Throws PreconditionError on malformed
/// terms and on sites not in `kSites`, naming `what` (e.g. "--faults" or
/// "MMFLOW_FAULTS").
void install(const std::string& spec, std::string_view what = "faults spec");

/// Installs from the MMFLOW_FAULTS environment variable (no-op if unset).
void install_from_env();

/// Disarms all sites and resets hit counters.
void clear();

/// True iff any spec is installed. One relaxed atomic load.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// The injection-site call: counts a hit of `site` and throws FaultInjected
/// if the installed spec selects this hit. No-op (and near zero cost) when
/// nothing is installed.
inline void maybe_throw(std::string_view site) {
  if (enabled()) detail::maybe_throw_slow(site);
}

/// Hits recorded for `site` since the last install/clear (testing aid).
[[nodiscard]] std::uint64_t hits(std::string_view site);

}  // namespace mmflow::faults
