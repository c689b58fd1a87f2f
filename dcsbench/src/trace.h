#pragma once
/// \file trace.h
/// The traced run: an in-memory span recorder, the staged replica that
/// re-drives a job stage by stage through the flow's public entry points,
/// and the per-layer metrics derived from both.
///
/// Spans are recorded from the benchmark's own files around calls into the
/// library, never from inside it. Each carries a name, start, end, parent
/// span and job id; a span's self time is its duration minus the part of
/// its interval that its children cover.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/flows.h"
#include "workloads.h"

namespace dcsbench {

/// Single-threaded span recorder; spans nest through an open-span stack.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  ///< since the tracer was created
    std::int64_t end_ns = -1;
    int parent = -1;
    int job = -1;
  };

  Tracer();
  /// Opens a span as a child of the innermost open span.
  int begin(std::string name, int job);
  /// Closes span `id` (which must be the innermost open one); a non-empty
  /// `rename` replaces its name, e.g. to record a probe's outcome.
  void end(int id, std::string_view rename = {});
  /// Records a closed span whose interval was measured elsewhere.
  int add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int job);
  [[nodiscard]] std::int64_t now_ns() const;

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Duration minus the union of the children's intervals.
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;
  /// Total duration of every span with exactly this name, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const;

  /// RAII span; a no-op when the tracer is null (the timed runs).
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int job);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();
    void rename(std::string name) { rename_ = std::move(name); }
    [[nodiscard]] int id() const { return id_; }

   private:
    Tracer* tracer_;
    int id_ = -1;
    std::string rename_;
  };

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Re-runs `job` stage by stage through the public entry points
/// (to_place_netlist, place, combined_place, extract_merge, the
/// TunableCircuit constructor, TPlace, search_min_width, route) on the
/// caches in `context`, mirroring `core::run_experiment_shared` call for
/// call, with a span around every call.
[[nodiscard]] std::shared_ptr<const mmflow::core::MultiModeExperiment>
staged_experiment(
    const Job& job, const mmflow::core::FlowContext& context, Tracer& tracer,
    int job_id);

/// Snapshot of every perf counter, for deltas across a region.
using Counters = std::map<std::string, std::uint64_t>;
[[nodiscard]] Counters read_counters();
[[nodiscard]] std::uint64_t delta(const Counters& before, const Counters& after,
                                  const std::string& name);

}  // namespace dcsbench
