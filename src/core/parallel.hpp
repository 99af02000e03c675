#pragma once

/// \file parallel.hpp
/// A small fixed thread pool and a blocking parallel_for, sized for the
/// campaign runner: thousands of independent trials farmed across a handful
/// of worker threads, with the caller participating as lane 0.
///
/// Every lane count is explicit: a pool or dispatch asked for N >= 1 lanes
/// uses exactly min(N, n) of them, and 0 lanes is an frlfi::Error. Lane
/// counts never come from the environment or the hardware; callers pick
/// them (the benches take --threads=N).
///
/// The pool uses static contiguous partitioning — the right shape for
/// exchangeable trials whose cost is roughly uniform. Exceptions thrown by
/// the body are captured and the first one is rethrown on the dispatching
/// thread after every lane has finished.
///
/// Re-entrancy and concurrent dispatch: parallel_for called from a thread
/// that is already executing a job of the *same* pool (a worker lane, or
/// the dispatching thread's own lane-0 body) runs the nested body inline on
/// that thread — nested parallelism degrades to sequential instead of
/// deadlocking on the pool's completion latch. Distinct external threads
/// dispatching *multi-lane* jobs on one pool are serialized through an
/// internal mutex, which protects the pool's shared job state (dispatches
/// on distinct pools must not form a waiting cycle). Dispatches that degrade to
/// inline — nested ones, and single-part jobs (n or lane count <= 1) —
/// touch no shared job state, take no lock, and are therefore NOT
/// mutually excluded with other dispatches: a body that callers may
/// dispatch concurrently must tolerate concurrent full-range execution,
/// not just disjoint ranges.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace frlfi {

/// Contiguous static partition of [0, n) into `parts` ranges: part `part`
/// gets [begin, end), the first n % parts parts taking one extra element.
/// The same split parallel_for uses; exposed so lane-indexed bodies and
/// tests can reproduce lane boundaries exactly.
void shard_range(std::size_t n, std::size_t parts, std::size_t part,
                 std::size_t& begin, std::size_t& end);

/// Run body(begin, end) over [0, n) under the campaign lane rule — the
/// one rule shared by run_campaign, run_cell_campaign and the batched
/// evaluation campaign. `threads` must be >= 1 (0 throws frlfi::Error);
/// one lane runs strictly serial on the calling thread, N lanes run on a
/// pool of min(N, n) lanes made for this call.
void dispatch_lanes(std::size_t threads, std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

/// Fixed-size thread pool executing blocking parallel_for dispatches.
class ThreadPool {
 public:
  /// Create a pool with `threads` >= 1 lanes (0 throws frlfi::Error). The
  /// calling thread of parallel_for counts as one lane, so a pool of size
  /// T spawns T-1 worker threads.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total lanes (including the dispatching thread).
  std::size_t size() const { return lanes_; }

  /// Run body(begin, end) over a static partition of [0, n) across the
  /// lanes and block until every lane is done. The body must be safe to
  /// call concurrently on disjoint ranges. Rethrows the first exception.
  ///
  /// Safe to call from inside a body already running on this pool (nested
  /// dispatch runs inline on the calling thread) and from several external
  /// threads at once (multi-lane jobs serialized; inline-degraded ones
  /// run unserialized); see the file comment.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body);

  /// True when the calling thread is currently executing a parallel_for
  /// body of this pool (worker lane or the dispatcher's lane 0) — i.e. a
  /// parallel_for issued right now would run inline.
  bool on_pool_thread() const;

 private:
  void worker_loop(std::size_t lane);
  void run_lane(std::size_t lane);

  std::size_t lanes_;
  std::vector<std::thread> workers_;
  // Serializes whole dispatches from distinct external threads; never
  // taken by the inline nested path.
  std::mutex dispatch_mu_;
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  // Current job (valid while remaining_ > 0).
  const std::function<void(std::size_t, std::size_t)>* body_ = nullptr;
  std::size_t job_n_ = 0;
  std::size_t job_parts_ = 0;
  std::size_t remaining_ = 0;
  std::exception_ptr first_error_;
};

/// body(0, n) on the calling thread when `pool` is null, else
/// pool->parallel_for(n, body) — for kernels whose bodies are
/// partition-invariant, so the inline run is their serial golden path.
inline void parallel_for(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  if (pool != nullptr)
    pool->parallel_for(n, body);
  else if (n > 0)
    body(0, n);
}

}  // namespace frlfi
