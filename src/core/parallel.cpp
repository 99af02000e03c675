#include "core/parallel.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace frlfi {
namespace {

// Pools whose job bodies the calling thread is currently inside, innermost
// last. A vector (not a single pointer) so same-thread chains across pools
// — a thread inside an A body dispatches on B, and B's lane-0 body (still
// this thread) dispatches on A again — detect the ancestor and run inline
// instead of deadlocking on A's completion latch. Cross-thread cycles (A's
// worker blocking on B while B's worker blocks on A) are undetectable from
// thread-local state and stay forbidden, as documented in parallel.hpp.
thread_local std::vector<const ThreadPool*> t_active_pools;

struct ActivePoolScope {
  explicit ActivePoolScope(const ThreadPool* pool) {
    t_active_pools.push_back(pool);
  }
  ~ActivePoolScope() { t_active_pools.pop_back(); }
};

bool inside_pool(const ThreadPool* pool) {
  return std::find(t_active_pools.begin(), t_active_pools.end(), pool) !=
         t_active_pools.end();
}

}  // namespace

void shard_range(std::size_t n, std::size_t parts, std::size_t part,
                 std::size_t& begin, std::size_t& end) {
  const std::size_t base = n / parts;
  const std::size_t rem = n % parts;
  begin = part * base + std::min(part, rem);
  end = begin + base + (part < rem ? 1 : 0);
}

ThreadPool::ThreadPool(std::size_t threads) : lanes_(threads) {
  FRLFI_CHECK_MSG(lanes_ >= 1, "a thread pool needs at least one lane");
  workers_.reserve(lanes_ - 1);
  for (std::size_t lane = 1; lane < lanes_; ++lane)
    workers_.emplace_back([this, lane] { worker_loop(lane); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_lane(std::size_t lane) {
  if (lane < job_parts_) {
    std::size_t begin, end;
    shard_range(job_n_, job_parts_, lane, begin, end);
    const ActivePoolScope scope(this);  // nested dispatches run inline
    try {
      (*body_)(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    // body_/job_* are stable for the whole generation: the dispatcher only
    // rewrites them after remaining_ hits zero.
    run_lane(lane);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
  }
}

bool ThreadPool::on_pool_thread() const { return inside_pool(this); }

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t, std::size_t)>& body) {
  FRLFI_CHECK(static_cast<bool>(body));
  if (n == 0) return;
  // Nested dispatch: this thread is already running a job of this pool
  // (its siblings occupy the other lanes), so blocking on cv_done_ could
  // never be satisfied — run the whole body inline instead.
  if (inside_pool(this)) {
    body(0, n);
    return;
  }
  const std::size_t parts = std::min(n, lanes_);
  if (parts <= 1) {
    // Degenerate dispatch: runs inline on the caller, touching no shared
    // job state, and deliberately takes no lock — blocking on
    // dispatch_mu_ here could deadlock a cross-pool nesting (an inner
    // pool's worker dispatching back on an outer pool mid-dispatch) that
    // the inline paths otherwise keep live. Like the nested path above,
    // it is therefore NOT mutually excluded with other dispatches; see
    // the serialization note in parallel.hpp.
    const ActivePoolScope scope(this);
    body(0, n);
    return;
  }
  // One in-flight job at a time; concurrent external dispatchers queue up
  // here (pool workers never reach this lock — they took the inline path).
  std::lock_guard<std::mutex> dispatch_lk(dispatch_mu_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    job_n_ = n;
    job_parts_ = parts;
    remaining_ = workers_.size();
    first_error_ = nullptr;
    ++generation_;
  }
  cv_start_.notify_all();
  run_lane(0);
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return remaining_ == 0; });
    body_ = nullptr;
    if (first_error_) {
      std::exception_ptr err = first_error_;
      first_error_ = nullptr;
      lk.unlock();
      std::rethrow_exception(err);
    }
  }
}

void dispatch_lanes(std::size_t threads, std::size_t n,
                    const std::function<void(std::size_t, std::size_t)>& body) {
  FRLFI_CHECK_MSG(threads >= 1, "a dispatch needs at least one lane");
  FRLFI_CHECK(static_cast<bool>(body));
  if (n == 0) return;
  const std::size_t lanes = std::min(threads, n);
  if (lanes == 1) {
    body(0, n);
    return;
  }
  ThreadPool pool(lanes);
  pool.parallel_for(n, body);
}

}  // namespace frlfi
