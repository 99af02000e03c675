#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

void Outcome::check(const std::string& name, bool pass, std::size_t ops,
                    const std::string& detail) {
  if (!pass) {
    failed += ops;
    all_checks_pass = false;
  }
  lines.push_back("check " + name + ": " + (pass ? "PASS" : "FAIL") +
                  (detail.empty() ? "" : " (" + detail + ")"));
}

void Outcome::summary_line(const std::string& name, const std::string& unit,
                           const Summary& s) {
  char buf[320];
  if (s.tail_pct > 0.0)
    std::snprintf(buf, sizeof buf,
                  "metric %s = %.6g %s (median; q1 %.6g, q3 %.6g, p%g %.6g; "
                  "n=%zu)",
                  name.c_str(), s.median, unit.c_str(), s.q1, s.q3,
                  s.tail_pct, s.tail, s.n);
  else
    std::snprintf(buf, sizeof buf,
                  "metric %s = %.6g %s (median; q1 %.6g, q3 %.6g; n=%zu, too "
                  "few samples for a tail)",
                  name.c_str(), s.median, unit.c_str(), s.q1, s.q3, s.n);
  lines.push_back(buf);
}

std::vector<double> RepeatTimes::best() const {
  std::vector<double> b;
  for (const std::vector<double>& r : reps) {
    if (b.empty()) b = r;
    for (std::size_t k = 0; k < std::min(b.size(), r.size()); ++k)
      b[k] = std::min(b[k], r[k]);
  }
  return b;
}

void report_end_to_end(Outcome& out, double setup_s, const RepeatTimes& rt,
                       double episodes_per_op, const char* op_name,
                       const char* episode_kind) {
  const std::vector<double> best = rt.best();
  double total_ms = 0.0;
  for (const double ms : best) total_ms += ms;
  const double ops = static_cast<double>(best.size());
  const double ops_per_s = ops / (total_ms * 1e-3);
  const double episodes_per_s = ops_per_s * episodes_per_op;
  const Summary ms = summarize(best);
  std::vector<double> all;
  for (const std::vector<double>& r : rt.reps)
    all.insert(all.end(), r.begin(), r.end());
  const Summary raw = summarize(all);
  const std::string op = op_name;
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "metric %ss_per_s = %.6g %ss/s (%zu %ss, best of %zu repeats)",
                op_name, ops_per_s, op_name, best.size(), op_name,
                rt.reps.size());
  out.line(buf);
  std::snprintf(buf, sizeof buf,
                "metric episodes_per_s = %.6g agent-episodes/s (%s)",
                episodes_per_s, episode_kind);
  out.line(buf);
  out.summary_line(op + "_ms (best of repeats)", "ms", ms);
  std::snprintf(buf, sizeof buf,
                "metric %s_ms_p50 = %.6g ms, %s_ms_p90 = %.6g ms", op_name,
                ms.median, op_name, ms.p90);
  out.line(buf);
  out.summary_line(op + "_ms (every sample)", "ms", raw);
  // The tail rule admits p90 of a sample only with >= 10 samples beyond
  // it; below 100 distinct operations p90 describes the trial's fixed
  // operation population instead.
  out.line("note " + op + "_ms_p90 over " + std::to_string(best.size()) +
           " distinct " + op + "s: " +
           (tail_percentile(best.size()) >= 90.0
                ? "admissible tail"
                : "quantile of the trial's fixed population, not a "
                  "sampled tail (the tail rule needs n >= 100)"));

  out.metric("setup_s", "s", setup_s);
  out.metric("episodes_per_s", "1/s", episodes_per_s);
  out.metric("ops_per_s", "1/s", ops_per_s);
  out.metric("op_ms_p50", "ms", ms.median);
  out.metric("op_ms_p90", "ms", ms.p90);
}

void RoundRecorder::start() {
  last_ = steady_now();
  last_hooks_ = hook_seconds();
}

double RoundRecorder::hook_seconds() const {
  if (tracer_ == nullptr) return 0.0;
  double s = 0.0;
  for (const std::string& name : hook_spans_)
    s += tracer_->duration_of(name.c_str());
  return s;
}

std::function<void(const frlfi::RoundParticipationReport&)>
RoundRecorder::observer() {
  return [this](const frlfi::RoundParticipationReport& rep) {
    const double now = steady_now();
    const double hooks = hook_seconds();
    interval_ms.push_back((now - last_) * 1e3);
    hook_ms.push_back((hooks - last_hooks_) * 1e3);
    last_ = now;
    last_hooks_ = hooks;
    contributors += rep.contributors;
    for (std::size_t a = 0; a < rep.status.size(); ++a) {
      const frlfi::AgentRoundStatus st = rep.status[a];
      const bool on_time = st == frlfi::AgentRoundStatus::Present ||
                           st == frlfi::AgentRoundStatus::Byzantine;
      const bool failed = a < rep.upload_failed.size() && rep.upload_failed[a];
      if (on_time && !failed) ++delivered;
    }
  };
}

void report_trace(Outcome& out, const Tracer& tr, double traced_wall,
                  double untraced_wall, const std::string& path) {
  double self_sum = 0.0;
  for (const auto& [layer, s] : tr.self_seconds()) {
    self_sum += s;
    out.line("self " + layer + " = " + num(s * 1e3) + " ms (" +
             num(100.0 * s / traced_wall) + "% of traced wall)");
  }
  out.check("layer self times + untraced remainder == traced wall",
            std::abs(self_sum - traced_wall) <= 1e-9 * traced_wall, 0,
            num(self_sum) + " s vs " + num(traced_wall) + " s");
  out.metric("trace.overhead_pct", "%",
             100.0 * (traced_wall / untraced_wall - 1.0));
  out.metric("trace.remainder_share", "fraction",
             tr.self_of("untraced") / traced_wall);
  std::ofstream f(path);
  tr.write_chrome_json(f);
  if (!f) throw std::runtime_error("cannot write " + path);
  out.line("trace written to " + path + " (" + std::to_string(tr.recorded()) +
           " spans)");
}

void report_federated_counts(Outcome& out,
                             const frlfi::FederatedRoundEngine& e,
                             const RoundRecorder& rec) {
  std::vector<double> server_ms;
  for (std::size_t i = 0; i < rec.interval_ms.size(); ++i)
    server_ms.push_back(rec.interval_ms[i] - rec.hook_ms[i]);
  out.metric("federated.server_ms", "ms", summarize(server_ms).median);
  out.metric("federated.hook_ms", "ms", summarize(rec.hook_ms).median);
  const frlfi::CommChannel& ch = e.server()->channel();
  const frlfi::ParticipationStats& ps = e.participation_stats();
  const double rounds =
      static_cast<double>(std::max<std::size_t>(1, e.round()));
  out.metric("federated.bytes_per_round", "B",
             static_cast<double>(ch.bytes_sent()) / rounds);
  out.metric("federated.retransmit_bytes", "B",
             static_cast<double>(ch.retransmit_bytes()));
  out.metric("federated.bits_corrupted", "count",
             static_cast<double>(ch.bits_corrupted()));
  out.metric("federated.upload_attempts", "count",
             static_cast<double>(ps.upload_attempts));
  out.metric("federated.uploads_failed", "count",
             static_cast<double>(ps.uploads_failed));
  out.metric("federated.upload_success_ratio", "fraction",
             ps.upload_attempts > 0
                 ? static_cast<double>(rec.delivered) /
                       static_cast<double>(ps.upload_attempts)
                 : 0.0);
  out.metric("federated.contributors_per_round", "count",
             static_cast<double>(rec.contributors) / rounds);
  out.metric("federated.screened_out", "count",
             static_cast<double>(ps.screened_out));
  out.metric("federated.stale_folded", "count",
             static_cast<double>(ps.stale_folded));
  out.metric("federated.round_buffer_bytes", "B",
             static_cast<double>(e.round_buffer_bytes()));
}

}  // namespace perfbench
