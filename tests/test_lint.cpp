// Fixture suite for tools/frlfi_lint: drives the built binary over
// tests/lint_fixtures/ and over src/ itself, pinning exit codes, rule
// ids, finding counts, and the allow() suppression mechanism. The
// fixtures are the linter's golden references — every rule R1-R4 is
// demonstrated by at least one failing file and one suppressed file,
// plus clean counterparts full of look-alikes that must stay silent.
//
// Paths come from CMake: FRLFI_LINT_BIN (the frlfi_lint executable),
// FRLFI_LINT_FIXTURES (tests/lint_fixtures), FRLFI_LINT_SRC (src/).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;  // stdout only

  std::size_t count(const std::string& needle) const {
    std::size_t n = 0, pos = 0;
    while ((pos = output.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  }
  // Active findings for a rule: "RN:" occurrences minus suppressed ones
  // ("RN (suppressed):").
  std::size_t active(const std::string& rule) const {
    return count(rule + ":") ;
  }
  std::size_t suppressed(const std::string& rule) const {
    return count(rule + " (suppressed):");
  }
};

LintResult run_lint(const std::string& args) {
  // Findings and the summary go to stdout; stderr (usage/IO errors) is
  // folded in so failures stay diagnosable from the test log.
  const std::string cmd = std::string(FRLFI_LINT_BIN) + " " + args + " 2>&1";
  LintResult result;
  std::FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0)
    result.output.append(buf.data(), got);
  const int status = pclose(pipe);
  result.exit_code = (status >= 0 && WIFEXITED(status))
                         ? WEXITSTATUS(status)
                         : -1;
  return result;
}

std::string fixture(const std::string& name) {
  return std::string(FRLFI_LINT_FIXTURES) + "/" + name;
}

}  // namespace

// ------------------------------------------------------------ violations --

TEST(LintFixtures, R1ViolationsEachBannedSourceFires) {
  const LintResult r = run_lint(fixture("r1_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.active("R1"), 5u) << r.output;
  EXPECT_EQ(r.suppressed("R1"), 0u) << r.output;
  // One finding per banned construct.
  EXPECT_EQ(r.count("random_device"), 1u) << r.output;
  EXPECT_EQ(r.count("srand()"), 1u) << r.output;
  EXPECT_EQ(r.count("rand()"), 2u) << r.output;  // rand() + srand()
  EXPECT_EQ(r.count("time()"), 1u) << r.output;
  EXPECT_EQ(r.count("steady_clock"), 1u) << r.output;
  EXPECT_NE(r.output.find("finding(s)"), std::string::npos) << r.output;
}

TEST(LintFixtures, R1EnvironmentReadsFireOutsideHarnesses) {
  const LintResult r = run_lint(fixture("r1_env.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.active("R1"), 2u) << r.output;  // free calls only
  EXPECT_EQ(r.count("depend on the environment"), 2u) << r.output;
  // The same reads (and a wall clock) under a bench/ path are exempt.
  const LintResult exempt = run_lint(fixture("bench/r1_env_exempt.cpp"));
  EXPECT_EQ(exempt.exit_code, 0) << exempt.output;
  EXPECT_NE(exempt.output.find("0 finding(s), 0 suppressed"),
            std::string::npos)
      << exempt.output;
}

TEST(LintFixtures, R2AdvancingDrawsOnCapturedRngFire) {
  const LintResult r = run_lint(fixture("r2_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.active("R2"), 3u) << r.output;
  // The inline-lambda and the named-body (auto body = [&]{...};
  // dispatch_lanes(..., body)) forms are both caught, with the receiver
  // named; suffixed draw names match on the stem (next -> next_u64).
  EXPECT_NE(r.output.find("'rng.uniform()'"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'agent_rng.normal()'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("'seed_rng.next_u64()'"), std::string::npos)
      << r.output;
}

TEST(LintFixtures, R3UnorderedRangeForFires) {
  const LintResult r = run_lint(fixture("r3_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.active("R3"), 2u) << r.output;
}

TEST(LintFixtures, R4PragmasInSourceFire) {
  const LintResult r = run_lint(fixture("r4_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.active("R4"), 2u) << r.output;
}

TEST(LintFixtures, R4FastMathInBuildFileFires) {
  const LintResult r = run_lint(fixture("r4_violation.cmake"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.active("R4"), 1u) << r.output;
  EXPECT_NE(r.output.find("-ffast-math"), std::string::npos) << r.output;
}

// ---------------------------------------------------------- suppressions --

TEST(LintFixtures, AllowTrailersSuppressButStayReported) {
  const struct {
    const char* file;
    const char* rule;
  } cases[] = {{"r1_suppressed.cpp", "R1"},
               {"r2_suppressed.cpp", "R2"},
               {"r3_suppressed.cpp", "R3"},
               {"r4_suppressed.cpp", "R4"},
               {"r4_suppressed.cmake", "R4"}};
  for (const auto& c : cases) {
    const LintResult r = run_lint(fixture(c.file));
    EXPECT_EQ(r.exit_code, 0) << c.file << "\n" << r.output;
    EXPECT_EQ(r.suppressed(c.rule), 1u) << c.file << "\n" << r.output;
    // A suppressed line prints "RN (suppressed):", never a bare "RN:",
    // so zero active findings — but it must stay visible in the report.
    EXPECT_EQ(r.active(c.rule), 0u) << c.file << "\n" << r.output;
    EXPECT_NE(r.output.find("1 suppressed"), std::string::npos)
        << c.file << "\n" << r.output;
  }
}

// ----------------------------------------------------------- clean files --

TEST(LintFixtures, CleanLookAlikesStaySilent) {
  for (const char* f : {"clean.cpp", "r2_clean.cpp"}) {
    const LintResult r = run_lint(fixture(f));
    EXPECT_EQ(r.exit_code, 0) << f << "\n" << r.output;
    EXPECT_NE(r.output.find("0 finding(s), 0 suppressed"),
              std::string::npos)
        << f << "\n" << r.output;
  }
}

// ------------------------------------------------------- directory sweep --

TEST(LintFixtures, DirectoryWalkAggregatesEverything) {
  const LintResult r = run_lint(std::string(FRLFI_LINT_FIXTURES));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  // (5 + 2 environment) R1 + 3 R2 + 2 R3 + (2 cpp + 1 cmake) R4 active,
  // one suppressed per suppression fixture.
  EXPECT_EQ(r.active("R1"), 7u) << r.output;
  EXPECT_EQ(r.active("R2"), 3u) << r.output;
  EXPECT_EQ(r.active("R3"), 2u) << r.output;
  EXPECT_EQ(r.active("R4"), 3u) << r.output;
  EXPECT_NE(r.output.find("15 finding(s), 5 suppressed"), std::string::npos)
      << r.output;
}

TEST(LintFixtures, RuleFilterRestrictsFindings) {
  const LintResult r =
      run_lint("--rules R2 " + std::string(FRLFI_LINT_FIXTURES));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.active("R1"), 0u) << r.output;
  EXPECT_EQ(r.active("R2"), 3u) << r.output;
  EXPECT_EQ(r.active("R3"), 0u) << r.output;
  EXPECT_EQ(r.active("R4"), 0u) << r.output;

  const LintResult clean =
      run_lint("--rules R1 " + fixture("r2_violation.cpp"));
  EXPECT_EQ(clean.exit_code, 0) << clean.output;
}

// ------------------------------------------------------------ exit codes --

TEST(LintCli, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(run_lint("").exit_code, 2);                          // no paths
  EXPECT_EQ(run_lint("--definitely-not-a-flag x.cpp").exit_code, 2);
  EXPECT_EQ(run_lint("--rules R9 x.cpp").exit_code, 2);          // bad rule
  EXPECT_EQ(run_lint(fixture("no_such_file.cpp")).exit_code, 2);
}

TEST(LintCli, QuietPrintsSummaryOnly) {
  const LintResult r = run_lint("--quiet " + fixture("r1_violation.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_EQ(r.output.find("R1:"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("5 finding(s)"), std::string::npos) << r.output;
}

// ------------------------------------------------------- the tree itself --

// The shipped library lints clean: the determinism discipline the tests
// enforce dynamically holds statically too. Suppressions are allowed
// (gemm.cpp's pinned-reduction pragmas carry allow(R4) trailers) but
// must stay visible in the report.
TEST(LintTree, SrcIsClean) {
  const LintResult r = run_lint(std::string(FRLFI_LINT_SRC));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(" 0 finding(s)"), std::string::npos) << r.output;
}
