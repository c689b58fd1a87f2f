#pragma once
/// \file parallel.h
/// Shared deterministic work-queue machinery.
///
/// The batch flow driver (src/core/batch.h) dispatches an *ordered* list of
/// work items to a fixed set of worker threads through an atomic cursor,
/// and collects results *by item index*. That shape is what makes its
/// determinism contract cheap to state: scheduling decides only which
/// worker executes an item, never which items run or where their results
/// land. `WorkerPool` is that shape, factored out once.
///
/// ## Execution model
///
/// A pool owns N `std::thread` workers that sleep between batches. `run()`
/// publishes (num_items, fn), wakes the workers, and blocks until every item
/// has been executed; items are handed out in index order via an atomic
/// fetch-add. `run()` may be called any number of times; batches never
/// overlap (the caller is blocked while one is in flight).
///
/// ## Thread-safety & error contract
///
/// One thread drives a pool at a time: `run()` is not re-entrant and must
/// not be called concurrently from two threads. `fn(item, worker)` runs
/// concurrently on the pool's workers with distinct `worker` ids in
/// [0, size()) — per-worker scratch indexed by that id needs no locking.
///
/// If `fn` throws, the batch still runs *every* item (a failed item never
/// starves its siblings — a batch summary must be able to report all
/// failures, not just the first). After the join, exactly one failure
/// re-throws the original exception from `run()`; two or more throw an
/// `AggregateError` carrying each failure's item index and message, in item
/// order — deterministic regardless of which workers hit them first. Pools
/// may be nested; the pools share nothing.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace mmflow::parallel {

/// Resolves a user-facing jobs knob: values >= 1 pass through, 0 (or
/// negative) means one worker per hardware thread (at least 1).
[[nodiscard]] int resolve_jobs(int jobs);

/// Thrown by WorkerPool::run() when two or more items failed. A
/// std::runtime_error (its what() lists every failure), so callers that
/// handle "the batch failed" generically keep working; callers that report
/// per-item use failures(), which is sorted by item index.
class AggregateError : public std::runtime_error {
 public:
  struct Failure {
    std::size_t item = 0;
    std::string message;
  };

  AggregateError(const std::string& what, std::vector<Failure> failures)
      : std::runtime_error(what), failures_(std::move(failures)) {}

  [[nodiscard]] const std::vector<Failure>& failures() const {
    return failures_;
  }

 private:
  std::vector<Failure> failures_;
};

/// Fixed pool of worker threads executing ordered item batches (see the
/// file comment for the execution model and contracts).
class WorkerPool {
 public:
  /// Item callback: `item` is the work index, `worker` the executing
  /// worker's id in [0, size()).
  using ItemFn = std::function<void(std::size_t item, int worker)>;

  /// Spawns `workers` threads (>= 1; use resolve_jobs for the 0 = "all
  /// hardware threads" convention).
  explicit WorkerPool(int workers);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  /// Executes fn(0..num_items-1, worker) across the pool; blocks until all
  /// items are done. One failed item re-throws its exception; several throw
  /// an AggregateError (see the error contract above).
  void run(std::size_t num_items, const ItemFn& fn);

  /// Number of worker threads.
  [[nodiscard]] int size() const { return static_cast<int>(threads_.size()); }

 private:
  struct ItemError {
    std::size_t item = 0;
    std::exception_ptr error;
  };

  void worker_main(int id);

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t generation_ = 0;  ///< bumped once per run() batch
  std::size_t num_items_ = 0;
  const ItemFn* fn_ = nullptr;
  std::vector<ItemError> errors_;
  std::atomic<std::size_t> cursor_{0};
  int active_ = 0;  ///< workers still draining the current batch
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace mmflow::parallel
