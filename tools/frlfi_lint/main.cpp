// frlfi_lint CLI — see lint.hpp for the rule catalogue.
//
// Usage: frlfi_lint [--rules R1,R2,...] [--quiet] <path>...
// Exit:  0 clean (suppressed findings allowed), 1 active findings,
//        2 usage or IO error.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "lint.hpp"

namespace {

void print_usage(std::FILE* out) {
  std::fputs(
      "usage: frlfi_lint [options] <file-or-dir>...\n"
      "\n"
      "Statically checks the FRL-FI determinism discipline (see README,\n"
      "'Static analysis & sanitizers'). Directories walk recursively over\n"
      "C++ sources and CMake files; build*/ and dot-dirs are skipped.\n"
      "\n"
      "rules:\n"
      "  R1  banned nondeterminism sources (random_device, rand/srand,\n"
      "      time(), wall clocks, getenv(); clocks, time() and getenv()\n"
      "      exempt under bench/, tools/)\n"
      "  R2  advancing draw on reference-captured Rng state inside a\n"
      "      parallel_for/dispatch_lanes body (use split()/derive_stream())\n"
      "  R3  range-for over unordered_map/unordered_set (unspecified order)\n"
      "  R4  fast-math flags or reduction-reordering pragmas\n"
      "\n"
      "options:\n"
      "  --rules R1,R3   run only the listed rules\n"
      "  --quiet         print the summary line only\n"
      "  --help          this text\n"
      "\n"
      "suppression: trail the offending line with\n"
      "  // frlfi-lint: allow(R2) <reason>     (# ... in CMake files)\n"
      "Suppressed findings are reported and counted but do not fail the\n"
      "run.\n",
      out);
}

bool parse_rules(const std::string& spec, frlfi_lint::Options& opt) {
  for (bool& e : opt.enabled) e = false;
  bool any = false;
  for (std::size_t i = 0; i < spec.size(); ++i) {
    if ((spec[i] == 'R' || spec[i] == 'r') && i + 1 < spec.size() &&
        spec[i + 1] >= '1' && spec[i + 1] <= '4') {
      opt.enabled[spec[i + 1] - '1'] = true;
      any = true;
      ++i;
    } else if (spec[i] != ',' && spec[i] != ' ') {
      return false;
    }
  }
  return any;
}

}  // namespace

int main(int argc, char** argv) {
  frlfi_lint::Options opt;
  bool quiet = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout);
      return 0;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg.rfind("--rules=", 0) == 0) {
      if (!parse_rules(arg.substr(8), opt)) {
        std::fprintf(stderr, "frlfi_lint: bad rule list '%s'\n", arg.c_str());
        return 2;
      }
    } else if (arg == "--rules" && i + 1 < argc) {
      if (!parse_rules(argv[++i], opt)) {
        std::fprintf(stderr, "frlfi_lint: bad rule list '%s'\n", argv[i]);
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "frlfi_lint: unknown option '%s'\n", arg.c_str());
      print_usage(stderr);
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    print_usage(stderr);
    return 2;
  }

  frlfi_lint::Report report;
  try {
    for (const std::string& path : paths)
      report.append(frlfi_lint::lint_path(path, opt));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const frlfi_lint::Finding& a,
                      const frlfi_lint::Finding& b) {
                     return a.file != b.file ? a.file < b.file
                                             : a.line < b.line;
                   });
  if (!quiet) {
    for (const auto& f : report.findings)
      std::printf("%s:%zu: %s%s: %s\n", f.file.c_str(), f.line,
                  f.rule.c_str(), f.suppressed ? " (suppressed)" : "",
                  f.message.c_str());
  }
  std::printf("frlfi_lint: %zu file(s) scanned, %zu finding(s), %zu "
              "suppressed\n",
              report.files_scanned, report.active_count(),
              report.suppressed_count());
  return report.active_count() == 0 ? 0 : 1;
}
