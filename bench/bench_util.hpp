#pragma once

/// \file bench_util.hpp
/// Shared command-line handling for the benchmark harness. Every bench
/// binary accepts:
///   --trials=N   repetitions per campaign cell (default 1; the paper uses
///                1000 for GridWorld and 100 for DroneNav)
///   --seed=N     base seed (default 42)
///   --fast       cut sweep resolution for smoke runs
///   --threads=N  worker lanes for pool-parallel campaign cells
///                (default 1 = serial)
///   --train-threads=N  worker lanes for the per-agent local episodes
///                inside each system's train() (the federated round
///                engine; default 1 = serial). Composes with --threads:
///                cells fan across the pool AND each cell's training
///                rounds fan their agents. Results are bit-identical for
///                every combination.
/// Every N is a plain decimal (see flag_value); --trials and both lane
/// counts must be >= 1. A malformed or zero value exits with status 2.
/// and prints the table/figure it reproduces with paper-vs-measured notes.

#include <cstdint>
#include <string>

namespace frlfi::bench {

/// Parsed command-line arguments.
struct BenchArgs {
  std::size_t trials = 1;
  std::uint64_t seed = 42;
  bool fast = false;
  /// Campaign-cell fan-out (heatmap sweeps), >= 1: 1 serial, N lanes.
  /// Results are bit-identical for every value.
  std::size_t threads = 1;
  /// Per-agent episode fan-out inside train() (round engine), >= 1: 1
  /// serial, N lanes. Also bit-identical for every value.
  std::size_t train_threads = 1;

  /// Parse argv; unknown flags and malformed values exit with status 2.
  static BenchArgs parse(int argc, char** argv);
};

/// The value of a `--flag=value` argument as a plain decimal: digits only
/// (no sign, blank or trailing character), at most 2^64 - 1 and at least
/// `min`. Anything else prints "invalid value for --flag: '...'" to stderr
/// and exits with status 2.
std::uint64_t flag_value(const std::string& arg, std::uint64_t min);

/// Print the standard bench banner: which figure/table of the paper this
/// binary regenerates and at what scale.
void print_banner(const std::string& figure, const std::string& description,
                  const BenchArgs& args);

}  // namespace frlfi::bench
