// Tests of the benchmark's own helpers: self time from nested spans under
// a fake clock, the tail-percentile rule, median / quartiles, and the
// environment decorator forwarding exactly.

#include <gtest/gtest.h>

#include <sstream>

#include "envs/gridworld.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

TEST(Tracer, SelfTimeFromNestedSpansUnderFakeClock) {
  double t = 0.0;
  Tracer tr([&] { return t; });
  tr.begin("root", "untraced");        // t = 0
  t = 1.0;
  tr.begin("train", "federated");      // t = 1
  t = 2.0;
  tr.begin("episode", "rl");           // t = 2
  t = 2.5;
  tr.begin("step", "env", false);      // t = 2.5, unrecorded leaf
  t = 4.0;
  EXPECT_DOUBLE_EQ(tr.end(), 1.5);     // step: 2.5 .. 4
  t = 5.0;
  EXPECT_DOUBLE_EQ(tr.end(), 3.0);     // episode: 2 .. 5
  t = 7.0;
  EXPECT_DOUBLE_EQ(tr.end(), 6.0);     // train: 1 .. 7
  t = 10.0;
  EXPECT_DOUBLE_EQ(tr.end(), 10.0);    // root: 0 .. 10
  const auto& self = tr.self_seconds();
  EXPECT_DOUBLE_EQ(self.at("env"), 1.5);
  EXPECT_DOUBLE_EQ(self.at("rl"), 1.5);
  EXPECT_DOUBLE_EQ(self.at("federated"), 3.0);
  EXPECT_DOUBLE_EQ(self.at("untraced"), 4.0);
  double sum = 0.0;
  for (const auto& [layer, s] : self) sum += s;
  EXPECT_DOUBLE_EQ(sum, 10.0);
  EXPECT_EQ(tr.recorded(), 3u);  // the leaf is accounted, not kept
  EXPECT_EQ(tr.count_of("step"), 1u);
  EXPECT_DOUBLE_EQ(tr.duration_of("episode"), 3.0);
  EXPECT_DOUBLE_EQ(tr.self_of("missing"), 0.0);
}

TEST(Tracer, SiblingChildrenAndRepeatedLayers) {
  double t = 0.0;
  Tracer tr([&] { return t; });
  tr.begin("root", "untraced");
  for (int i = 0; i < 3; ++i) {
    t += 1.0;
    tr.begin("hook", "rl");
    t += 2.0;
    tr.end();
  }
  t += 1.0;
  tr.end();
  EXPECT_DOUBLE_EQ(tr.self_seconds().at("rl"), 6.0);
  EXPECT_DOUBLE_EQ(tr.self_seconds().at("untraced"), 4.0);
}

TEST(Tracer, EndWithoutBeginThrows) {
  Tracer tr([] { return 0.0; });
  EXPECT_THROW(tr.end(), std::logic_error);
}

TEST(Tracer, ChromeJsonHasCompleteEvents) {
  double t = 1.0;
  Tracer tr([&] { return t; });
  tr.begin("root", "untraced");
  t = 1.001;
  tr.end();
  std::ostringstream os;
  tr.write_chrome_json(os);
  const std::string j = os.str();
  EXPECT_NE(j.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"dur\":1000.000"), std::string::npos);
}

TEST(Stats, TailPercentileLeavesTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(200), 95.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(99), 75.0);
  EXPECT_EQ(tail_percentile(40), 75.0);
  EXPECT_EQ(tail_percentile(20), 50.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
  EXPECT_EQ(tail_percentile(1000, 100), 90.0);
}

TEST(Stats, MedianAndQuartilesMatchPythonExclusiveRule) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  std::vector<double> v{10, 3, 1, 2, 5, 4, 9, 8, 7, 6};
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 10u);
  EXPECT_DOUBLE_EQ(s.median, 5.5);
  EXPECT_DOUBLE_EQ(s.q1, 2.75);
  EXPECT_DOUBLE_EQ(s.q3, 8.25);
  EXPECT_DOUBLE_EQ(s.q3 - s.q1, 5.5);  // the IQR
  EXPECT_EQ(s.tail_pct, 0.0);  // 10 samples admit no tail
  // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
  const Summary o = summarize({16, 1, 8, 2, 4});
  EXPECT_DOUBLE_EQ(o.median, 4.0);
  EXPECT_DOUBLE_EQ(o.q1, 1.5);
  EXPECT_DOUBLE_EQ(o.q3, 12.0);
}

TEST(Stats, TailOfALargeSampleSet) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.tail_pct, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, 90.9);  // position 0.9 * 101 = 90.9
  EXPECT_DOUBLE_EQ(s.p90, 90.9);
  EXPECT_EQ(summarize({}).n, 0u);
  EXPECT_DOUBLE_EQ(summarize({3.0}).median, 3.0);
}

TEST(TimedEnv, ForwardsExactlyAndCounts) {
  const frlfi::GridLayout layout = frlfi::GridLayout::paper_suite()[0];
  frlfi::GridWorldEnv plain(layout), inner(layout);
  double t = 0.0;
  Tracer tr([&] { return t += 1.0; });
  TimedEnv timed(inner, &tr, "envs", 3);
  EXPECT_EQ(timed.action_count(), plain.action_count());
  EXPECT_EQ(timed.observation_shape(), plain.observation_shape());
  frlfi::Rng ra(5), rb(5);
  tr.begin("root", "untraced");
  const frlfi::Tensor oa = plain.reset(ra);
  const frlfi::Tensor ob = timed.reset(rb);
  EXPECT_EQ(oa.data(), ob.data());
  for (std::size_t k = 0; k < 40; ++k) {
    const std::size_t action = k % 4;
    const frlfi::StepResult a = plain.step(action, ra);
    const frlfi::StepResult b = timed.step(action, rb);
    EXPECT_EQ(a.observation.data(), b.observation.data());
    EXPECT_EQ(a.reward, b.reward);
    EXPECT_EQ(a.done, b.done);
    EXPECT_EQ(a.success, b.success);
    if (a.done) break;
  }
  tr.end();
  EXPECT_EQ(ra.next_u64(), rb.next_u64());  // same stream position
  EXPECT_GE(timed.steps(), 1u);
  EXPECT_EQ(timed.resets(), 1u);
  EXPECT_LE(timed.captured().size(), 3u);
  EXPECT_EQ(tr.count_of("env.step"), timed.steps());
  // The fake clock ticks once per read, so each decorated call is one
  // tick long.
  EXPECT_DOUBLE_EQ(tr.self_seconds().at("envs"),
                   static_cast<double>(timed.steps() + 1));
}

TEST(TimedEnv, WorksWithoutATracer) {
  const frlfi::GridLayout layout = frlfi::GridLayout::paper_suite()[1];
  TimedEnv timed(std::make_unique<frlfi::GridWorldEnv>(layout), nullptr,
                 "envs");
  frlfi::Rng r(9);
  const frlfi::Tensor o = timed.reset(r);
  EXPECT_EQ(o.shape(), timed.observation_shape());
  timed.step(0, r);
  EXPECT_EQ(timed.steps(), 1u);
}

}  // namespace
}  // namespace perfbench
