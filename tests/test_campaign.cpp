#include "core/campaign.hpp"

#include <gtest/gtest.h>

#include "core/error.hpp"

namespace frlfi {
namespace {

TEST(Campaign, RunsRequestedTrials) {
  CampaignConfig cfg;
  cfg.trials = 17;
  std::size_t calls = 0;
  const CampaignResult r = run_campaign(cfg, [&](Rng&) {
    ++calls;
    return 1.0;
  });
  EXPECT_EQ(calls, 17u);
  EXPECT_EQ(r.stats.count(), 17u);
  EXPECT_DOUBLE_EQ(r.stats.mean(), 1.0);
}

TEST(Campaign, DeterministicForSeed) {
  CampaignConfig cfg;
  cfg.seed = 123;
  cfg.trials = 10;
  auto fn = [](Rng& rng) { return rng.uniform(); };
  const CampaignResult a = run_campaign(cfg, fn);
  const CampaignResult b = run_campaign(cfg, fn);
  EXPECT_DOUBLE_EQ(a.stats.mean(), b.stats.mean());
  EXPECT_DOUBLE_EQ(a.stats.variance(), b.stats.variance());
}

TEST(Campaign, TrialsAreIndependentStreams) {
  CampaignConfig cfg;
  cfg.trials = 2;
  std::vector<double> vals;
  run_campaign(cfg, [&](Rng& rng) {
    vals.push_back(rng.uniform());
    return 0.0;
  });
  EXPECT_NE(vals[0], vals[1]);
}

TEST(Campaign, SeedChangesResults) {
  CampaignConfig a{.seed = 1, .trials = 5};
  CampaignConfig b{.seed = 2, .trials = 5};
  auto fn = [](Rng& rng) { return rng.uniform(); };
  EXPECT_NE(run_campaign(a, fn).stats.mean(), run_campaign(b, fn).stats.mean());
}

TEST(Campaign, CiReflectsSpread) {
  CampaignConfig cfg{.seed = 3, .trials = 100};
  const CampaignResult r =
      run_campaign(cfg, [](Rng& rng) { return rng.uniform(); });
  const ConfidenceInterval ci = r.ci();
  EXPECT_GT(ci.margin(), 0.0);
  EXPECT_LT(ci.margin(), 0.2);
  EXPECT_NEAR(ci.mean, 0.5, 0.15);
}

TEST(Campaign, RejectsInvalidConfig) {
  CampaignConfig cfg;
  cfg.trials = 0;
  EXPECT_THROW(run_campaign(cfg, [](Rng&) { return 0.0; }), Error);
  cfg.trials = 1;
  EXPECT_THROW(run_campaign(cfg, std::function<double(Rng&)>()), Error);
}

// A trial function with enough arithmetic that any reduction-order bug
// would show up in the low bits of the stats.
double synthetic_trial(Rng& rng) {
  double acc = 0.0;
  for (int i = 0; i < 50; ++i) acc += rng.uniform() * 1e-3 + rng.normal() * 1e-6;
  return acc;
}

void expect_bit_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.stats.count(), b.stats.count());
  // EXPECT_DOUBLE_EQ-style exact comparison: the parallel reduction is
  // required to be bit-identical, not merely close.
  EXPECT_EQ(a.stats.mean(), b.stats.mean());
  EXPECT_EQ(a.stats.variance(), b.stats.variance());
  EXPECT_EQ(a.stats.min(), b.stats.min());
  EXPECT_EQ(a.stats.max(), b.stats.max());
}

TEST(Campaign, ParallelBitIdenticalToSerialAcrossThreadCounts) {
  for (const std::uint64_t seed : {1ull, 42ull, 987654321ull}) {
    CampaignConfig serial{.seed = seed, .trials = 257, .threads = 1};
    const CampaignResult want = run_campaign(serial, synthetic_trial);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{3},
                                      std::size_t{4}, std::size_t{8}}) {
      CampaignConfig parallel = serial;
      parallel.threads = threads;
      expect_bit_identical(run_campaign(parallel, synthetic_trial), want);
    }
  }
}

TEST(Campaign, ParallelFewerTrialsThanThreads) {
  CampaignConfig serial{.seed = 7, .trials = 3, .threads = 1};
  CampaignConfig parallel{.seed = 7, .trials = 3, .threads = 16};
  expect_bit_identical(run_campaign(parallel, synthetic_trial),
                       run_campaign(serial, synthetic_trial));
}

TEST(Campaign, ParallelSingleTrial) {
  CampaignConfig serial{.seed = 9, .trials = 1, .threads = 1};
  CampaignConfig parallel{.seed = 9, .trials = 1, .threads = 4};
  expect_bit_identical(run_campaign(parallel, synthetic_trial),
                       run_campaign(serial, synthetic_trial));
}

TEST(Campaign, ParallelZeroTrialsStillRejected) {
  CampaignConfig cfg{.seed = 1, .trials = 0, .threads = 4};
  EXPECT_THROW(run_campaign(cfg, [](Rng&) { return 0.0; }), Error);
}

TEST(Campaign, ZeroLanesRejected) {
  bool called = false;
  CampaignConfig cfg{.seed = 5, .trials = 40, .threads = 0};
  EXPECT_THROW(run_campaign(cfg,
                            [&](Rng&) {
                              called = true;
                              return 0.0;
                            }),
               Error);
  EXPECT_FALSE(called);
}

TEST(CellCampaign, MetricsAreCellOrderedAndThreadCountInvariant) {
  // The heatmap-sweep outer loop: each cell's metric depends only on its
  // index, so any fan-out returns identical cell-order bits.
  const auto cell_fn = [](std::size_t c) {
    Rng rng(1000 + c);
    double acc = static_cast<double>(c);
    for (int i = 0; i < 50; ++i) acc += rng.uniform();
    return acc;
  };
  const std::vector<double> serial = run_cell_campaign(23, 1, cell_fn);
  ASSERT_EQ(serial.size(), 23u);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{7},
                                    std::size_t{16}}) {
    EXPECT_EQ(run_cell_campaign(23, threads, cell_fn), serial)
        << "threads " << threads;
  }
}

TEST(CellCampaign, ZeroLanesRejected) {
  EXPECT_THROW(run_cell_campaign(23, 0, [](std::size_t) { return 0.0; }),
               Error);
}

TEST(CellCampaign, ZeroCellsRejected) {
  EXPECT_THROW(run_cell_campaign(0, 1, [](std::size_t) { return 0.0; }),
               Error);
}

TEST(Campaign, ParallelTrialExceptionPropagates) {
  CampaignConfig cfg{.seed = 2, .trials = 100, .threads = 4};
  EXPECT_THROW(run_campaign(cfg,
                            [](Rng& rng) -> double {
                              if (rng.uniform() < 0.5)
                                throw Error("trial blew up");
                              return 0.0;
                            }),
               Error);
}

}  // namespace
}  // namespace frlfi
