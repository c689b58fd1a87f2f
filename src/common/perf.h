#pragma once
/// \file perf.h
/// Lightweight performance-counter and timer subsystem. Every stage of the
/// flow (placement, routing, width search, flow-cache lookups) reports
/// through this registry so that benches and the CLI can emit a
/// machine-readable picture of where the time goes — the paper's P&R inner
/// loops are only credibly "fast" when the hot paths are instrumented, not
/// just correct.
///
/// Design constraints:
///  * near-zero overhead at call sites: hot loops accumulate into locals and
///    flush once per connection / per anneal; the registry itself is only
///    touched on the cold path;
///  * stable references: `counter()` / `timer()` return references that stay
///    valid for the process lifetime, so call sites can cache them in a
///    function-local static;
///  * deterministic output: `write_json()` emits entries sorted by name.
///
/// ## Thread-safety and the memory-order contract
///
/// The registry is process-global; the name table is guarded by a mutex,
/// and the counters/timers themselves are atomics, so the batch driver's
/// workers (src/core/batch.h) can bump them from several threads without
/// data races (audited under -DMMFLOW_SANITIZE=thread;
/// docs/STATIC_ANALYSIS.md).
///
/// Every counter/timer access is deliberately std::memory_order_relaxed,
/// and that is the whole contract:
///
///  * **Atomicity only, no ordering.** A relaxed fetch_add can never lose
///    an increment, so *final* totals are exact. But relaxed operations
///    publish nothing: observing `route.calls == N` does not make any other
///    memory written by those calls visible, so counters must never be used
///    for synchronization or as a proxy for "that work's results are ready".
///    All real synchronization happens elsewhere (BatchDriver's thread
///    join, docs/ARCHITECTURE.md thread-safety table).
///  * **No snapshot consistency.** A reader running concurrently with
///    writers sees each counter at some point in its own history — not a
///    single cross-counter instant. Paired counters (total_ns vs count in
///    Timer, hits vs misses) can be observed mid-update relative to each
///    other. Benches, tests and the JSON writers therefore read only after
///    the workers are joined; the join's synchronizes-with edge is what
///    makes the totals both exact *and* visible.
///  * **Why not acq_rel:** the counters ride the hottest loops in the
///    router; relaxed increments keep them a single uncontended RMW with no
///    fence on x86/ARM. Strengthening the order would buy nothing (see
///    above — nothing may depend on it) and cost real throughput.
///
/// Cache instrumentation convention: every cache in the flow reports
/// `<cache>.hits` / `<cache>.misses` pairs (e.g. `flowcache.mdr_hits`,
/// `rrgcache.misses`), so any bench JSON shows cache effectiveness without
/// bespoke plumbing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mmflow::perf {

/// Point-in-time snapshot of one named scope's accumulated wall time.
struct TimerStat {
  std::uint64_t total_ns = 0;
  std::uint64_t count = 0;
};

/// Registry-owned wall-time accumulator (atomic; see thread-safety above).
class Timer {
 public:
  void add(std::uint64_t ns) {
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  void reset() {
    total_ns_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }
  [[nodiscard]] TimerStat snapshot() const {
    return TimerStat{total_ns_.load(std::memory_order_relaxed),
                     count_.load(std::memory_order_relaxed)};
  }

 private:
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// Registry-owned event counter (atomic; see thread-safety above).
using Counter = std::atomic<std::uint64_t>;

/// Process-global registry of named counters and timers.
class Registry {
 public:
  static Registry& instance();

  /// Find-or-create; the returned reference is valid for the process
  /// lifetime. Names are dot-separated, e.g. "route.heap_pushes".
  Counter& counter(std::string_view name);
  Timer& timer(std::string_view name);

  /// Zeroes every counter and timer (names stay registered). Benches call
  /// this between the warm-up and the measured region.
  void reset();

  /// Sorted-by-name snapshots.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counters() const;
  [[nodiscard]] std::vector<std::pair<std::string, TimerStat>> timers() const;

  /// Value of one counter (0 if never registered). Tests use this to assert
  /// cache hit/miss behaviour.
  [[nodiscard]] std::uint64_t counter_value(std::string_view name) const;

  /// Emits {"counters": {...}, "timers_ms": {...}} at the given indentation
  /// depth (spaces). Keys are sorted for diff-stable output.
  void write_json(std::ostream& os, int indent = 0) const;

 private:
  Registry() = default;
};

/// Convenience accessors against the global registry.
inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Timer& timer(std::string_view name) {
  return Registry::instance().timer(name);
}
inline void reset() { Registry::instance().reset(); }
inline std::uint64_t counter_value(std::string_view name) {
  return Registry::instance().counter_value(name);
}

/// RAII wall-clock timer accumulating into a Timer.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& stat)
      : stat_(&stat), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const auto end = std::chrono::steady_clock::now();
    stat_->add(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
            .count()));
  }

 private:
  Timer* stat_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace mmflow::perf

#define MMFLOW_PERF_CONCAT2(a, b) a##b
#define MMFLOW_PERF_CONCAT(a, b) MMFLOW_PERF_CONCAT2(a, b)

/// Times the enclosing scope under `name`. The registry lookup happens once
/// per call site (function-local static), the per-entry cost is two clock
/// reads plus two relaxed atomic adds.
#define MMFLOW_PERF_SCOPE(name)                                            \
  static ::mmflow::perf::Timer& MMFLOW_PERF_CONCAT(mmflow_perf_stat_,      \
                                                   __LINE__) =             \
      ::mmflow::perf::timer(name);                                         \
  ::mmflow::perf::ScopedTimer MMFLOW_PERF_CONCAT(mmflow_perf_scope_,       \
                                                 __LINE__)(                \
      MMFLOW_PERF_CONCAT(mmflow_perf_stat_, __LINE__))

/// Adds `delta` to the counter `name`; lookup cached per call site.
#define MMFLOW_PERF_ADD(name, delta)                                       \
  do {                                                                     \
    static ::mmflow::perf::Counter& mmflow_perf_counter_ =                 \
        ::mmflow::perf::counter(name);                                     \
    mmflow_perf_counter_.fetch_add(static_cast<std::uint64_t>(delta),      \
                                   std::memory_order_relaxed);             \
  } while (false)
