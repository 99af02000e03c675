#pragma once

/// \file harness.hpp
/// The benchmark's own measurement helpers: summary statistics (median,
/// quartiles, the tail-percentile rule), an in-memory span tracer with
/// online self-time accounting and Chrome trace-event export, an
/// Environment decorator that times reset/step, and the host fingerprint.
/// Nothing here reaches into the library's internals: every span wraps a
/// call into a public function from the benchmark's side.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "rl/env.hpp"

namespace perfbench {

/// Seconds on a monotonic clock; injected so tests can drive a fake one.
using NowFn = std::function<double()>;

/// steady_clock seconds.
double steady_now();

// ------------------------------------------------------------- stats ----

/// Quantile at probability p in (0, 1) by the "exclusive" rule Python's
/// statistics.quantiles uses: position p * (n + 1), clamped to the sample
/// range, linearly interpolated. `sorted` must be ascending and non-empty.
double quantile(const std::vector<double>& sorted, double p);

/// The highest percentile in {50, 75, 90, 95, 99, 99.9} that leaves at
/// least `min_beyond` of `n` samples above it; 0 when even p50 does not.
double tail_percentile(std::size_t n, std::size_t min_beyond = 10);

/// Median, quartiles and the admissible tail of a sample set.
struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double p90 = 0.0;
  /// tail_percentile(n) and the quantile there (0 when n < 20).
  double tail_pct = 0.0;
  double tail = 0.0;
};

/// Summarize an unsorted sample set (empty input gives n == 0).
Summary summarize(std::vector<double> samples);

// ------------------------------------------------------------- trace ----

/// In-memory span tracer. Spans nest strictly (single thread): begin()
/// opens a child of the innermost open span, end() closes the innermost.
/// Each closed span adds its self time — its duration minus the time its
/// closed children covered — to its layer, so the layer self times of a
/// finished root always sum to the root's duration. Spans opened with
/// `record = false` (the per-step environment calls) are accounted the
/// same way but not kept for the exported trace.
class Tracer {
 public:
  explicit Tracer(NowFn now) : now_(std::move(now)) {}

  /// Open a span; `name` and `layer` must be string literals (kept by
  /// pointer).
  void begin(const char* name, const char* layer, bool record = true);
  /// Close the innermost open span; returns its duration in seconds.
  double end();

  /// Scoped span.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, const char* layer, bool record = true)
        : t_(t) {
      if (t_ != nullptr) t_->begin(name, layer, record);
    }
    ~Scope() {
      if (t_ != nullptr) t_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
  };

  /// Self time (seconds) of a layer / total duration (seconds) and count
  /// of the closed spans of a name; 0 when none closed.
  double self_of(const char* layer) const;
  double duration_of(const char* name) const;
  std::size_t count_of(const char* name) const;
  /// Mean duration (seconds) of the closed spans of a name; 0 when none.
  double mean_of(const char* name) const;
  /// Self time (seconds) per layer over every closed span.
  std::map<std::string, double> self_seconds() const;
  /// Recorded spans kept for export.
  std::size_t recorded() const { return spans_.size(); }

  /// Write the recorded spans as Chrome trace-event JSON
  /// ({"traceEvents":[...]}, complete "X" events, microseconds).
  void write_chrome_json(std::ostream& os) const;

 private:
  struct Open {
    const char* name;
    const char* layer;
    double start;
    double child;  // seconds covered by closed children
    bool record;
  };
  struct Span {
    const char* name;
    const char* layer;
    double start;
    double dur;
    std::uint32_t depth;
  };
  /// Running totals of one layer or span name, keyed by the literal's
  /// address (hot path: no string is built per span).
  struct Acc {
    const char* key;
    double seconds;
    std::size_t count;
  };
  static Acc& slot(std::vector<Acc>& accs, const char* key);
  static const Acc* find(const std::vector<Acc>& accs, const char* key);

  NowFn now_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::vector<Acc> self_;   // per layer: self seconds
  std::vector<Acc> names_;  // per name: total seconds and count
  double origin_ = -1.0;
};

// ------------------------------------------------------- environment ----

/// Environment decorator: forwards every call to `inner` unchanged and
/// wraps reset/step in unrecorded tracer spans of `layer` (no tracer:
/// plain forwarding). Counts steps and optionally keeps the first
/// `capture_limit` observations it hands out.
class TimedEnv final : public frlfi::Environment {
 public:
  TimedEnv(frlfi::Environment& inner, Tracer* tracer, const char* layer,
           std::size_t capture_limit = 0)
      : inner_(&inner), tracer_(tracer), layer_(layer), cap_(capture_limit) {}
  /// Owning form, for factories that must hand out a whole environment.
  TimedEnv(std::unique_ptr<frlfi::Environment> inner, Tracer* tracer,
           const char* layer)
      : TimedEnv(*inner, tracer, layer) {
    owned_ = std::move(inner);
  }

  frlfi::Tensor reset(frlfi::Rng& rng) override;
  frlfi::StepResult step(std::size_t action, frlfi::Rng& rng) override;
  std::size_t action_count() const override { return inner_->action_count(); }
  std::vector<std::size_t> observation_shape() const override {
    return inner_->observation_shape();
  }

  std::size_t steps() const { return steps_; }
  std::size_t resets() const { return resets_; }
  const std::vector<frlfi::Tensor>& captured() const { return captured_; }

 private:
  void capture(const frlfi::Tensor& obs);

  std::unique_ptr<frlfi::Environment> owned_;
  frlfi::Environment* inner_;
  Tracer* tracer_;
  const char* layer_;
  std::size_t cap_;
  std::size_t steps_ = 0;
  std::size_t resets_ = 0;
  std::vector<frlfi::Tensor> captured_;
};

// ------------------------------------------------------------- host ----

/// Where the numbers came from: two result sets are comparable only when
/// their fingerprints match.
struct HostFingerprint {
  unsigned nproc = 0;
  std::string affinity;  // e.g. "0-3"
  bool avx2 = false;
  bool avx512f = false;
  bool avx512_vnni = false;
  std::string compiler;
  std::string build_type;
  std::string options;  // FRLFI_* build options in force
};

HostFingerprint host_fingerprint();

/// One-line JSON object of the fingerprint.
std::string to_json(const HostFingerprint& fp);

/// Peak resident set size of this process, MiB.
double peak_rss_mib();

/// CPU seconds (user + system) consumed by this process so far.
double process_cpu_seconds();

/// CPU time over wall time since construction: the concurrency a run
/// actually achieved.
struct CpuMeter {
  double wall0 = steady_now();
  double cpu0 = process_cpu_seconds();
  double cpu_per_wall() const {
    return (process_cpu_seconds() - cpu0) / (steady_now() - wall0);
  }
};

/// Format a double with all its digits (round-trip precision).
std::string num(double v);

}  // namespace perfbench
