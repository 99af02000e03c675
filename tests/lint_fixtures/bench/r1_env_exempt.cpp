// frlfi_lint fixture: a harness under bench/ may read the environment and
// the wall clock — test_lint pins this file to zero findings. Never
// compiled; linted only.
#include <chrono>
#include <cstdlib>

bool ci_run() { return std::getenv("CI") != nullptr; }

double elapsed_s(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
