#pragma once

// frlfi_lint: determinism-discipline checker for the FRL-FI tree.
//
// The repo's standing invariant is that every fast path is bit-identical
// to a golden reference, RNG stream position included. Runtime tests lock
// the paths that exist today; this tool statically rejects the patterns
// that silently break thread-count invariance before any test notices:
//
//   R1  banned nondeterminism sources: std::random_device, rand()/srand(),
//       time(), wall clocks (system_clock / steady_clock /
//       high_resolution_clock) and environment reads (getenv()). Clock,
//       time() and getenv() use is exempt under bench/ and tools/
//       (harnesses measure and configure runs, they do not decide
//       results); random_device / rand / srand are banned everywhere.
//   R2  advancing draws (.uniform* / .bernoulli / .next* / .normal /
//       .shuffle / .categorical) on a reference-captured Rng inside a
//       parallel_for / dispatch_lanes lambda body. Lane bodies must
//       derive per-item streams (split() / derive_stream(), both
//       non-advancing) instead of advancing shared generator state whose
//       position would depend on the lane partition.
//   R3  range-for over std::unordered_map / std::unordered_set:
//       iteration order is unspecified, so any accumulation ordered by it
//       is not reproducible across libraries or hash seeds.
//   R4  value-changing float reassociation: -ffast-math-family flags in
//       build files and reduction-reordering pragmas in sources
//       (omp ... reduction, FP_CONTRACT ON, optimize("fast-math"), ...).
//
// Any finding can be waived in place with a trailing comment on the same
// line: `// frlfi-lint: allow(R2) <reason>` (or `# ...` in CMake files;
// several rules: `allow(R1,R3)`). Suppressed findings are still reported
// and counted, they just do not fail the run.
//
// Implementation: token/scope-aware line scanning (comments and string
// literals stripped, lambda capture lists and brace scopes matched) — a
// deliberate non-goal is full C++ parsing; the escape hatch for the rare
// false positive is the allow() trailer, and the companion fixture suite
// (tests/test_lint.cpp) locks both directions. Standalone C++17, no
// dependency on the frlfi library or libclang.

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace frlfi_lint {

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;      // "R1".."R4"
  std::string message;
  bool suppressed = false;  // waived by a frlfi-lint: allow(...) trailer
};

struct Options {
  // R1..R4, in order. All on by default.
  bool enabled[4] = {true, true, true, true};
  bool rule_enabled(int rule_1based) const {
    return rule_1based >= 1 && rule_1based <= 4 && enabled[rule_1based - 1];
  }
};

struct Report {
  std::vector<Finding> findings;  // active and suppressed, in file order
  std::size_t files_scanned = 0;

  std::size_t active_count() const;
  std::size_t suppressed_count() const;
  void append(const Report& other);
};

// Lint C++ source text. `path` is used for reporting and for the R1
// bench//tools/ clock and environment exemption.
Report lint_cpp_source(const std::string& path, const std::string& text,
                       const Options& opt);

// Lint CMake source text (R4 + suppression trailers only).
Report lint_cmake_source(const std::string& path, const std::string& text,
                         const Options& opt);

// Lint a file or directory tree (directories walk recursively; *.cpp,
// *.cc, *.cxx, *.hpp, *.h, *.hh, *.ipp are linted as C++, CMakeLists.txt
// and *.cmake as CMake; build*/ and dot-directories are skipped; files
// visit in sorted order so output is deterministic). Throws
// std::runtime_error on IO failure.
Report lint_path(const std::string& path, const Options& opt);

}  // namespace frlfi_lint
