#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/error.hpp"

namespace frlfi {
namespace {

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, RangesArePartition) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_for(10, [&](std::size_t b, std::size_t e) {
    std::lock_guard<std::mutex> lk(mu);
    ranges.emplace_back(b, e);
  });
  std::size_t total = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_LT(b, e);
    total += e - b;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(ranges.size(), 3u);
}

TEST(Parallel, FewerItemsThanLanes) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ZeroItemsIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(Parallel, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  std::size_t sum = 0;  // no synchronization needed: runs on this thread
  pool.parallel_for(100, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950u);
}

TEST(Parallel, ReusableAcrossDispatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> count{0};
    pool.parallel_for(64, [&](std::size_t b, std::size_t e) {
      count.fetch_add(e - b);
    });
    ASSERT_EQ(count.load(), 64u);
  }
}

TEST(Parallel, PropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t b, std::size_t) {
                          if (b == 0) throw std::runtime_error("lane failure");
                        }),
      std::runtime_error);
  // Pool must still be usable after a failed dispatch.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(8, [&](std::size_t b, std::size_t e) {
    count.fetch_add(e - b);
  });
  EXPECT_EQ(count.load(), 8u);
}

TEST(Parallel, RejectsEmptyBody) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(4, std::function<void(std::size_t, std::size_t)>()),
      Error);
}

TEST(Parallel, ZeroLanesRejected) {
  EXPECT_THROW(ThreadPool pool(0), Error);
  bool called = false;
  const auto body = [&](std::size_t, std::size_t) { called = true; };
  EXPECT_THROW(dispatch_lanes(0, 8, body), Error);
  EXPECT_THROW(dispatch_lanes(0, 0, body), Error);  // checked before n
  EXPECT_FALSE(called);
}

TEST(Parallel, ShardRangeIsContiguousPartition) {
  for (const std::size_t n : {1u, 7u, 10u, 64u}) {
    for (const std::size_t parts : {1u, 2u, 3u, 7u}) {
      if (parts > n) continue;
      std::size_t expect_begin = 0;
      for (std::size_t p = 0; p < parts; ++p) {
        std::size_t b, e;
        shard_range(n, parts, p, b, e);
        EXPECT_EQ(b, expect_begin);
        EXPECT_LT(b, e);
        expect_begin = e;
      }
      EXPECT_EQ(expect_begin, n);
    }
  }
}

// Regression: a nested dispatch from inside a pool body used to block on
// cv_done_ forever (the nested generation could never be picked up by the
// lanes already running the outer body). It must run inline instead.
TEST(Parallel, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<std::size_t> inner_total{0};
  std::atomic<std::size_t> inline_nested{0};
  pool.parallel_for(4, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      EXPECT_TRUE(pool.on_pool_thread());
      pool.parallel_for(8, [&](std::size_t ib, std::size_t ie) {
        inner_total.fetch_add(ie - ib);
      });
      inline_nested.fetch_add(1);
    }
  });
  EXPECT_EQ(inner_total.load(), 4u * 8u);
  EXPECT_EQ(inline_nested.load(), 4u);
  EXPECT_FALSE(pool.on_pool_thread());
  // Pool still healthy after the nested dispatches.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(16, [&](std::size_t b, std::size_t e) {
    count.fetch_add(e - b);
  });
  EXPECT_EQ(count.load(), 16u);
}

TEST(Parallel, SameThreadChainAcrossPoolsRunsInline) {
  // One external thread chains dispatches A -> B -> A. The second
  // A-dispatch happens on a thread already inside an A body (this one),
  // so it must detect the ancestor pool on its own stack and run inline.
  // (Cross-THREAD cycles — a worker of A waiting on B while a worker of B
  // waits on A — remain forbidden; see parallel.hpp.)
  ThreadPool a(2), b(2);
  std::atomic<std::size_t> total{0};
  a.parallel_for(1, [&](std::size_t, std::size_t) {
    // Single-part dispatch: runs inline on this thread with A active.
    b.parallel_for(2, [&](std::size_t, std::size_t) {
      EXPECT_TRUE(b.on_pool_thread());
      if (!a.on_pool_thread()) return;  // b's worker thread: A not active
      a.parallel_for(4, [&](std::size_t ib, std::size_t ie) {
        total.fetch_add(ie - ib);
      });
    });
  });
  EXPECT_EQ(total.load(), 4u);
}

TEST(Parallel, NestedCampaignInsidePoolBodyDoesNotDeadlock) {
  // A multi-lane run_campaign called from inside a pool body spins its own
  // pool for that call and must complete with every trial run.
  ThreadPool pool(2);
  std::atomic<std::size_t> trials_run{0};
  pool.parallel_for(8, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      CampaignConfig cfg{.seed = 7, .trials = 5, .threads = 2};
      const CampaignResult r = run_campaign(cfg, [&](Rng& rng) {
        trials_run.fetch_add(1);
        return rng.uniform();
      });
      EXPECT_EQ(r.stats.count(), 5u);
    }
  });
  EXPECT_EQ(trials_run.load(), 8u * 5u);
}

TEST(Parallel, ConcurrentExternalDispatchersAreSerialized) {
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> dispatchers;
  for (int d = 0; d < 4; ++d) {
    dispatchers.emplace_back([&] {
      for (int round = 0; round < 25; ++round)
        pool.parallel_for(8, [&](std::size_t b, std::size_t e) {
          total.fetch_add(e - b);
        });
    });
  }
  for (auto& t : dispatchers) t.join();
  EXPECT_EQ(total.load(), 4u * 25u * 8u);
}

}  // namespace
}  // namespace frlfi
