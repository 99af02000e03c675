/// \file main.cpp
/// The perfbench program:
///
///   perfbench --workload <drone_train|gridworld_infer|fleet_round>
///             --seed <n> --seconds <s> --trace <0|1>
///             [--band <lo>:<hi>] [--trace-dir <dir>]
///
/// Prints a human-readable report (metric lines with medians, quartiles
/// and sample counts; output checks; the host fingerprint), then, as the
/// last line, one JSON object {correct, attempted, failed, metrics}. With
/// --trace 0 the metrics are the end-to-end set, with --trace 1 the
/// per-layer set (every name always present; a layer the workload does
/// not exercise reads 0).
///
///   perfbench --setup-probe drone_train
///
/// measures the drone pretraining set-up alone, in this fresh process.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// The per-layer metric set, in report order.
constexpr LayerMetric kPerLayer[] = {
    {"dronesim.step_us", "us"},
    {"dronesim.busy_share", "fraction"},
    {"dronesim.steps", "count"},
    {"rl.episode_ms", "ms"},
    {"rl.self_share", "fraction"},
    {"nn.forward_us", "us"},
    {"nn.backward_us", "us"},
    {"nn.sgd_step_us", "us"},
    {"nn.infer_us_per_step.float", "us"},
    {"nn.infer_us_per_step.int8", "us"},
    {"nn.infer_us_per_step.detector", "us"},
    {"nn.forward_batch_us", "us"},
    {"nn.forward_batch_quant_us", "us"},
    {"nn.int8_over_float", "ratio"},
    {"envs.step_us", "us"},
    {"envs.busy_share", "fraction"},
    {"fault.inject_us", "us"},
    {"fault.deploy_us", "us"},
    {"fault.bits_flipped", "count"},
    {"mitigation.detector_overhead_pct", "%"},
    {"mitigation.checkpoints", "count"},
    {"mitigation.recoveries", "count"},
    {"frl.consensus_us", "us"},
    {"federated.server_ms", "ms"},
    {"federated.hook_ms", "ms"},
    {"federated.bytes_per_round", "B"},
    {"federated.retransmit_bytes", "B"},
    {"federated.bits_corrupted", "count"},
    {"federated.upload_attempts", "count"},
    {"federated.uploads_failed", "count"},
    {"federated.upload_success_ratio", "fraction"},
    {"federated.contributors_per_round", "count"},
    {"federated.screened_out", "count"},
    {"federated.stale_folded", "count"},
    {"federated.round_buffer_bytes", "B"},
    {"core.cpu_per_wall", "ratio"},
    {"core.lane2_speedup", "ratio"},
    {"trace.overhead_pct", "%"},
    {"trace.remainder_share", "fraction"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <drone_train|gridworld_infer|"
               "fleet_round> --seed <n> --seconds <s> --trace <0|1> "
               "[--band <lo>:<hi>] [--trace-dir <dir>]\n";
  std::exit(2);
}

std::string self_exe() {
  std::error_code ec;
  const auto p = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string() : p.string();
}

/// Per-layer output: every name of kPerLayer, zero where not measured.
std::vector<Metric> complete_per_layer(const std::vector<Metric>& got) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : got) by_name[m.name] = &m;
  std::vector<Metric> out;
  for (const LayerMetric& lm : kPerLayer) {
    const auto it = by_name.find(lm.name);
    if (it != by_name.end() && it->second->unit != lm.unit)
      throw std::logic_error(std::string("unit mismatch for ") + lm.name);
    out.push_back({lm.name, lm.unit,
                   it == by_name.end() ? 0.0 : it->second->value});
    if (it != by_name.end()) by_name.erase(it);
  }
  if (!by_name.empty())
    throw std::logic_error("unlisted per-layer metric " +
                           by_name.begin()->first);
  return out;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  opt.self_exe = self_exe();
  bool have_seed = false, have_seconds = false, have_trace = false;
  std::string probe;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = true;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--band") {
        const auto colon = v.find(':');
        if (colon == std::string::npos) usage("--band takes <lo>:<hi>");
        opt.band_lo = std::stod(v.substr(0, colon));
        opt.band_hi = std::stod(v.substr(colon + 1));
      } else if (a == "--trace-dir") {
        opt.trace_dir = v;
      } else if (a == "--setup-probe") {
        probe = v;
      } else {
        usage("unknown flag " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }

  if (!probe.empty()) {
    if (probe != "drone_train") usage("bad --setup-probe");
    std::printf("%.9f\n", drone_setup_probe());
    return 0;
  }
  if (!have_seed || !have_seconds || !have_trace || opt.workload.empty())
    usage("--workload, --seed, --seconds and --trace are required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");

  Outcome out;
  try {
    if (opt.trace) std::filesystem::create_directories(opt.trace_dir);
    if (opt.workload == "drone_train")
      out = run_drone_train(opt);
    else if (opt.workload == "gridworld_infer")
      out = run_gridworld_infer(opt);
    else if (opt.workload == "fleet_round")
      out = run_fleet_round(opt);
    else
      usage("unknown workload " + opt.workload);
    if (opt.trace) out.metrics = complete_per_layer(out.metrics);
    for (const Metric& m : out.metrics)
      if (!std::isfinite(m.value))
        throw std::logic_error("metric " + m.name + " is not finite");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }

  std::cout << "workload " << opt.workload << " seed " << opt.seed
            << " seconds " << opt.seconds << " trace " << opt.trace << "\n";
  for (const std::string& l : out.lines) std::cout << l << "\n";
  for (const Metric& m : out.metrics)
    std::cout << "value " << m.name << " = " << num(m.value) << " " << m.unit
              << "\n";
  std::cout << "operations attempted " << out.attempted << ", failed "
            << out.failed << "\n";
  std::cout << "fingerprint " << to_json(host_fingerprint()) << "\n";

  const bool correct = out.all_checks_pass && out.failed == 0 &&
                       out.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
