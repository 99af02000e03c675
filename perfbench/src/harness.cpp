#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double steady_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------- stats ----

double quantile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  const std::size_t n = sorted.size();
  if (n == 1) return sorted[0];
  const double h = std::clamp(p * static_cast<double>(n + 1), 1.0,
                              static_cast<double>(n));
  const std::size_t j = static_cast<std::size_t>(std::floor(h));
  if (j >= n) return sorted[n - 1];
  const double frac = h - static_cast<double>(j);
  return sorted[j - 1] + frac * (sorted[j] - sorted[j - 1]);
}

double tail_percentile(std::size_t n, std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLadder) {
    const double beyond = static_cast<double>(n) * (100.0 - p) / 100.0;
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) return p;
  }
  return 0.0;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.median = n % 2 == 1 ? samples[n / 2]
                        : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  s.q1 = quantile(samples, 0.25);
  s.q3 = quantile(samples, 0.75);
  s.p90 = quantile(samples, 0.90);
  s.tail_pct = tail_percentile(n);
  if (s.tail_pct > 0.0) s.tail = quantile(samples, s.tail_pct / 100.0);
  return s;
}

// ------------------------------------------------------------- trace ----

void Tracer::begin(const char* name, const char* layer, bool record) {
  const double t = now_();
  if (origin_ < 0.0) origin_ = t;
  stack_.push_back({name, layer, t, 0.0, record});
}

Tracer::Acc& Tracer::slot(std::vector<Acc>& accs, const char* key) {
  for (Acc& a : accs)
    if (a.key == key) return a;
  for (Acc& a : accs)
    if (std::strcmp(a.key, key) == 0) return a;
  accs.push_back({key, 0.0, 0});
  return accs.back();
}

const Tracer::Acc* Tracer::find(const std::vector<Acc>& accs,
                                const char* key) {
  for (const Acc& a : accs)
    if (a.key == key || std::strcmp(a.key, key) == 0) return &a;
  return nullptr;
}

double Tracer::end() {
  if (stack_.empty()) throw std::logic_error("Tracer::end with no open span");
  const double t = now_();
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = t - o.start;
  slot(self_, o.layer).seconds += dur - o.child;
  Acc& n = slot(names_, o.name);
  n.seconds += dur;
  ++n.count;
  if (!stack_.empty()) stack_.back().child += dur;
  if (o.record)
    spans_.push_back({o.name, o.layer, o.start, dur,
                      static_cast<std::uint32_t>(stack_.size())});
  return dur;
}

double Tracer::self_of(const char* layer) const {
  const Acc* a = find(self_, layer);
  return a ? a->seconds : 0.0;
}

double Tracer::duration_of(const char* name) const {
  const Acc* a = find(names_, name);
  return a ? a->seconds : 0.0;
}

std::size_t Tracer::count_of(const char* name) const {
  const Acc* a = find(names_, name);
  return a ? a->count : 0;
}

double Tracer::mean_of(const char* name) const {
  const Acc* a = find(names_, name);
  return a && a->count ? a->seconds / static_cast<double>(a->count) : 0.0;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::map<std::string, double> m;
  for (const Acc& a : self_) m[a.key] += a.seconds;
  return m;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) os << ",\n";
    first = false;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", (s.start - origin_) * 1e6);
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << buf;
    std::snprintf(buf, sizeof buf, "%.3f", s.dur * 1e6);
    os << ",\"dur\":" << buf << ",\"args\":{\"depth\":" << s.depth << "}}";
  }
  os << "],\n\"displayTimeUnit\":\"ms\",\"otherData\":{\"self_seconds\":{";
  first = true;
  for (const auto& [layer, secs] : self_seconds()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << layer << "\":" << num(secs);
  }
  os << "}}}\n";
}

// ------------------------------------------------------- environment ----

void TimedEnv::capture(const frlfi::Tensor& obs) {
  if (captured_.size() < cap_) captured_.push_back(obs);
}

frlfi::Tensor TimedEnv::reset(frlfi::Rng& rng) {
  ++resets_;
  Tracer::Scope span(tracer_, "env.reset", layer_, /*record=*/false);
  frlfi::Tensor obs = inner_->reset(rng);
  capture(obs);
  return obs;
}

frlfi::StepResult TimedEnv::step(std::size_t action, frlfi::Rng& rng) {
  ++steps_;
  Tracer::Scope span(tracer_, "env.step", layer_, /*record=*/false);
  frlfi::StepResult r = inner_->step(action, rng);
  if (!r.done) capture(r.observation);
  return r;
}

// ------------------------------------------------------------- host ----

namespace {

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return "unknown";
  std::ostringstream os;
  int run_start = -1;
  int prev = -2;
  bool first = true;
  const auto flush = [&] {
    if (run_start < 0) return;
    if (!first) os << ",";
    first = false;
    os << run_start;
    if (prev != run_start) os << "-" << prev;
  };
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    if (c != prev + 1) {
      flush();
      run_start = c;
    }
    prev = c;
  }
  flush();
  return os.str();
}

}  // namespace

HostFingerprint host_fingerprint() {
  HostFingerprint fp;
  fp.nproc = std::thread::hardware_concurrency();
  fp.affinity = affinity_list();
  __builtin_cpu_init();
  fp.avx2 = __builtin_cpu_supports("avx2") != 0;
  fp.avx512f = __builtin_cpu_supports("avx512f") != 0;
  fp.avx512_vnni = __builtin_cpu_supports("avx512vnni") != 0;
#if defined(__clang__)
  fp.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  fp.compiler = std::string("gcc ") + __VERSION__;
#else
  fp.compiler = "unknown";
#endif
  fp.build_type = PERFBENCH_BUILD_TYPE;
  fp.options = PERFBENCH_OPTIONS;
  return fp;
}

std::string to_json(const HostFingerprint& fp) {
  const auto b = [](bool v) { return v ? "true" : "false"; };
  std::ostringstream os;
  os << "{\"nproc\":" << fp.nproc << ",\"affinity\":\"" << fp.affinity
     << "\",\"avx2\":" << b(fp.avx2) << ",\"avx512f\":" << b(fp.avx512f)
     << ",\"avx512_vnni\":" << b(fp.avx512_vnni) << ",\"compiler\":\""
     << fp.compiler << "\",\"build_type\":\"" << fp.build_type
     << "\",\"options\":\"" << fp.options << "\"}";
  return os.str();
}

double peak_rss_mib() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so a
  // process started from a larger parent would report the parent's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  return 0.0;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
