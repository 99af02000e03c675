#include "bench_util.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace frlfi::bench {

std::uint64_t flag_value(const std::string& arg, std::uint64_t min) {
  const std::size_t eq = arg.find('=');
  const std::string flag = arg.substr(0, eq);
  const std::string text = eq == std::string::npos ? "" : arg.substr(eq + 1);
  // from_chars takes no sign and no leading blank, and reports overflow;
  // an empty value and trailing characters are rejected here.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < min) {
    std::fprintf(stderr,
                 "invalid value for %s: '%s' (expected a decimal >= %llu)\n",
                 flag.c_str(), text.c_str(),
                 static_cast<unsigned long long>(min));
    std::exit(2);
  }
  return value;
}

BenchArgs BenchArgs::parse(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--trials=", 0) == 0) {
      args.trials = flag_value(arg, 1);
    } else if (arg.rfind("--seed=", 0) == 0) {
      args.seed = flag_value(arg, 0);
    } else if (arg == "--fast") {
      args.fast = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      args.threads = flag_value(arg, 1);
    } else if (arg.rfind("--train-threads=", 0) == 0) {
      args.train_threads = flag_value(arg, 1);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--trials=N] [--seed=N] [--fast] [--threads=N] "
          "[--train-threads=N]\n",
          argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

void print_banner(const std::string& figure, const std::string& description,
                  const BenchArgs& args) {
  std::cout << "================================================================\n"
            << "FRL-FI reproduction — " << figure << "\n"
            << description << "\n"
            << "trials/cell=" << args.trials << " seed=" << args.seed
            << (args.fast ? " (fast mode)" : "") << "\n"
            << "================================================================\n";
}

}  // namespace frlfi::bench
