#pragma once

/// \file workloads.hpp
/// The three benchmark workloads and what a run of one reports.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "federated/round_engine.hpp"
#include "harness.hpp"

namespace perfbench {

/// Command-line settings of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the Chrome trace of a traced run.
  std::string trace_dir = ".bench_build/traces";
  /// This executable, for set-up probes in fresh processes.
  std::string self_exe;
  /// Sanity band of the workload's deterministic quality output.
  double band_lo = 0.0;
  double band_hi = 0.0;
};

/// One reported number.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// Everything one run prints. `metrics` is the contract set (end-to-end
/// untraced, per-layer traced); `lines` is the human-readable report.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> lines;
  bool all_checks_pass = true;

  void metric(const std::string& name, const std::string& unit, double v) {
    metrics.push_back({name, unit, v});
  }
  /// Record an output check; a failing check fails `ops` operations.
  void check(const std::string& name, bool pass, std::size_t ops,
             const std::string& detail = "");
  /// Print a named sample summary line (median, quartiles, tail, count).
  void summary_line(const std::string& name, const std::string& unit,
                    const Summary& s);
  void line(const std::string& text) { lines.push_back(text); }
};

/// Seeds reach the systems only through derived seeds.
inline std::uint64_t derived_seed(std::uint64_t workload_seed,
                                  std::uint64_t tag) {
  return frlfi::Rng(workload_seed).derive_stream({0x5EEDBE7C, tag}).next_u64();
}

/// The trained models are fixed workload data, like the one pretrained
/// model the paper shares across its campaigns: drone_train's system seed
/// and gridworld_infer's training seed derive from this constant, so
/// every run times the same training, while --seed drives the campaign
/// (fault trial seeds, evaluation seeds, the fleet engine). Episode
/// lengths, and with them the work per round or trial, follow the trained
/// policy: across model seeds gridworld_infer's trials/s spans 39-74.
inline constexpr std::uint64_t kModelSeed = 2022;

/// Median of set-up samples taken in-process, `reps` times.
template <typename Fn>
double median_setup(std::size_t reps, Fn&& fn) {
  std::vector<double> t;
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = steady_now();
    fn(r);
    t.push_back(steady_now() - t0);
  }
  return summarize(t).median;
}

/// Per-operation wall times of a run. Every workload repeats one fixed
/// trial (same inputs, same outputs), so operation k of every repeat is
/// the same work; `reps[r][k]` is its time in repeat r, in ms.
struct RepeatTimes {
  std::vector<std::vector<double>> reps;
  void add(std::vector<double> op_ms) { reps.push_back(std::move(op_ms)); }
  /// Operation k's fastest time over the repeats. Co-tenant contention on
  /// a shared host only ever slows a repeat down, so the fastest repeat is
  /// the steadiest estimate of the operation's cost.
  std::vector<double> best() const;
};

/// Paces a run's repeats: at least two, then another only while it is
/// expected (from the last repeat's length) to end within --seconds.
class RepeatClock {
 public:
  explicit RepeatClock(double seconds)
      : seconds_(seconds), t0_(steady_now()), last_(t0_) {}
  /// Call once before each repeat with the number done so far.
  bool another(std::size_t done) {
    const double now = steady_now();
    const double last_len = now - last_;
    last_ = now;
    return done < 2 || (now - t0_) + last_len <= seconds_;
  }

 private:
  double seconds_;
  double t0_;
  double last_;
};

/// The shared end-to-end metrics, under the same names on every workload:
/// setup_s, episodes_per_s and ops_per_s (at the best-of-repeats times),
/// op_ms_p50 and op_ms_p90 (over operations' best-of-repeats times).
/// Also prints the workload-specific names with their sample counts.
void report_end_to_end(Outcome& out, double setup_s, const RepeatTimes& rt,
                       double episodes_per_op, const char* op_name,
                       const char* episode_kind);

/// Observes an engine's communication rounds: the wall interval since the
/// previous round (or since start()), the part of it spent in the agent
/// hooks (the sum of the tracer's durations over `hook_spans`; zero
/// untraced) and the participation counts the reports carry.
class RoundRecorder {
 public:
  RoundRecorder(const Tracer* tracer, std::vector<std::string> hook_spans)
      : tracer_(tracer), hook_spans_(std::move(hook_spans)) {}

  /// Mark the start of a train() sequence.
  void start();
  /// The engine observer.
  std::function<void(const frlfi::RoundParticipationReport&)> observer();

  std::vector<double> interval_ms;
  std::vector<double> hook_ms;
  std::size_t contributors = 0;
  std::size_t delivered = 0;  // on-time uploads that reached the server

 private:
  double hook_seconds() const;
  const Tracer* tracer_;
  std::vector<std::string> hook_spans_;
  double last_ = 0.0;
  double last_hooks_ = 0.0;
};

/// The traced run's layer split: prints each layer's self time, checks
/// that the self times plus the untraced remainder equal the traced wall,
/// reports trace.overhead_pct (against the same work untraced) and
/// trace.remainder_share, and writes the Chrome trace to `path`.
void report_trace(Outcome& out, const Tracer& tr, double traced_wall,
                  double untraced_wall, const std::string& path);

/// The federated per-layer metrics of a finished traced engine run: the
/// median round's server time (interval minus hooks) and hook time, and
/// the channel and participation counts.
void report_federated_counts(Outcome& out,
                             const frlfi::FederatedRoundEngine& e,
                             const RoundRecorder& rec);

/// Workload entry points. drone_setup_probe measures only the drone
/// set-up (the first pretraining of a process) and returns seconds.
Outcome run_drone_train(const RunOptions& opt);
double drone_setup_probe();
Outcome run_gridworld_infer(const RunOptions& opt);
Outcome run_fleet_round(const RunOptions& opt);

}  // namespace perfbench
