/// \file test_state_stream.cpp
/// A state stream is loaded all-or-nothing: whatever load() rejects, it
/// rejects before the system changes. Two targeted streams (a pending
/// upload naming agent 99, a last agent vector one float short) and a
/// deterministic mutation sweep over a small GridWorld and a small
/// DroneNav stream — each holding mitigation state and pending straggler
/// uploads — check that every rejected load throws Error and leaves
/// snapshot(), episode() and communication_rounds() as they were.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"

namespace frlfi {
namespace {

ParticipationPlan stragglers() {
  ParticipationPlan plan;
  plan.active = true;
  plan.straggler_rate = 0.4;
  plan.straggler_lag = 3;
  return plan;
}

/// A trained system with mitigation state and pending uploads. Systems
/// built from distinct seeds and lengths hold distinct state, so a load
/// that wrote anything would show.
struct GridCase {
  using System = GridWorldFrlSystem;
  static constexpr bool kBaselines = false;
  static System::Config config() {
    System::Config cfg;
    cfg.n_agents = 4;
    return cfg;
  }
  static std::size_t agents() { return 4; }
  static std::size_t source_episodes() { return 40; }
};

struct DroneCase {
  using System = DroneFrlSystem;
  static constexpr bool kBaselines = true;
  static System::Config config() {
    System::Config cfg;
    cfg.n_drones = 2;
    cfg.comm_interval = 1;
    cfg.imitation_episodes = 20;
    return cfg;
  }
  static std::size_t agents() { return 2; }
  static std::size_t source_episodes() { return 6; }
};

template <class Case>
void prepare(typename Case::System& sys, std::size_t episodes) {
  MitigationPlan mit;
  mit.enabled = true;
  mit.checkpoint_interval = 2;
  sys.set_mitigation(mit);
  sys.set_participation_plan(stragglers());
  sys.train(episodes);
}

template <class System>
std::string saved(const System& sys) {
  std::stringstream ss;
  sys.save(ss);
  return ss.str();
}

/// Load `stream` into `sys`: it must throw Error and change nothing.
template <class System>
void expect_rejected(System& sys, const std::string& stream,
                     const std::string& what) {
  const std::string before = saved(sys);
  const std::size_t episode = sys.episode();
  const std::size_t rounds = sys.communication_rounds();
  std::stringstream in(stream);
  EXPECT_THROW(sys.load(in), Error) << what;
  EXPECT_EQ(sys.episode(), episode) << what;
  EXPECT_EQ(sys.communication_rounds(), rounds) << what;
  EXPECT_TRUE(saved(sys) == before) << what << ": system state changed";
}

/// One field of a saved stream, by byte range.
enum class Kind { Counter, Count, Length, Payload };
struct Field {
  std::size_t at;
  std::size_t size;
  Kind kind;
};

std::uint64_t u64_at(const std::string& s, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, s.data() + at, sizeof v);
  return v;
}

/// Walk a version-3 stream (persist.hpp layout) into its fields.
std::vector<Field> walk(const std::string& s, std::size_t agents,
                        bool baselines) {
  std::vector<Field> out;
  std::size_t at = 0;
  const auto word = [&](Kind kind) {
    out.push_back({at, 8, kind});
    at += 8;
    return u64_at(s, at - 8);
  };
  const auto floats = [&] {
    const std::uint64_t n = word(Kind::Length);
    out.push_back({at, n * sizeof(float), Kind::Payload});
    at += n * sizeof(float);
  };
  word(Kind::Counter);  // magic + version
  word(Kind::Counter);  // episode
  word(Kind::Counter);  // round
  word(Kind::Count);    // agents
  for (std::size_t i = 0; i < agents; ++i) floats();
  for (std::size_t i = 0; baselines && i < agents; ++i) {
    floats();
    word(Kind::Counter);
  }
  for (int i = 0; i < 4; ++i) word(Kind::Counter);  // engine timeline
  const std::uint64_t pending = word(Kind::Count);
  for (std::uint64_t p = 0; p < pending; ++p) {
    word(Kind::Counter);  // agent
    word(Kind::Counter);  // deliver round
    floats();             // weight
    floats();             // data
  }
  if (word(Kind::Counter) != 0) {  // mitigation state
    const std::uint64_t n = word(Kind::Count);
    for (std::uint64_t i = 0; i < 3 * n; ++i) word(Kind::Counter);
    floats();  // checkpoint
    for (int i = 0; i < 5; ++i) word(Kind::Counter);
  }
  EXPECT_EQ(at, s.size());
  return out;
}

std::string with_u64(std::string s, std::size_t at, std::uint64_t v) {
  std::memcpy(s.data() + at, &v, sizeof v);
  return s;
}

/// A loading system whose state differs from the source's.
template <class Case>
struct Target {
  typename Case::System sys{Case::config(), 32};
  Target() { prepare<Case>(sys, 1); }
};

template <class Case>
struct Fixture {
  typename Case::System source{Case::config(), 31};
  std::string good;
  std::vector<Field> fields;
  Fixture() {
    prepare<Case>(source, Case::source_episodes());
    good = saved(source);
    fields = walk(good, Case::agents(), Case::kBaselines);
    EXPECT_FALSE(source.snapshot().engine.pending_uploads.empty());
    EXPECT_TRUE(source.snapshot().engine.has_mitigation_state);
  }
};

template <class Case>
void targeted_streams() {
  Fixture<Case> fx;
  {
    // The unmodified stream loads.
    Target<Case> t;
    std::stringstream in(fx.good);
    EXPECT_NO_THROW(t.sys.load(in));
  }
  // A pending upload for agent 99: the first pending upload's agent word.
  std::size_t pending_at = 0;
  for (std::size_t i = 0; i < fx.fields.size(); ++i)
    if (fx.fields[i].kind == Kind::Count && i > 3) {
      pending_at = fx.fields[i + 1].at;
      break;
    }
  ASSERT_GT(pending_at, 0u);
  Target<Case> t99;
  expect_rejected(t99.sys, with_u64(fx.good, pending_at, 99),
                  "pending upload for agent 99");

  // The last agent's parameter vector one float short, stream otherwise
  // well formed.
  const Field& len = fx.fields[4 + 2 * (Case::agents() - 1)];
  ASSERT_EQ(len.kind, Kind::Length);
  const std::uint64_t dim = u64_at(fx.good, len.at);
  std::string bad = with_u64(fx.good, len.at, dim - 1);
  bad.erase(len.at + 8, sizeof(float));
  Target<Case> t_short;
  expect_rejected(t_short.sys, bad, "last agent vector one float short");
}

TEST(StateStream, GridWorldRejectedLoadChangesNothing) {
  targeted_streams<GridCase>();
}

TEST(StateStream, DroneRejectedLoadChangesNothing) {
  targeted_streams<DroneCase>();
}

/// Truncations (every point in the counter words, a fixed stride through
/// the float payloads), versions 0 and 4, and inflated count and length
/// fields — at most 2,000 loads.
template <class Case>
void mutation_sweep() {
  Fixture<Case> fx;
  Target<Case> t;
  std::size_t loads = 0;
  const auto reject = [&](const std::string& stream, const std::string& what) {
    expect_rejected(t.sys, stream, what);
    ++loads;
  };
  std::size_t payload_bytes = 0;
  for (const Field& f : fx.fields)
    if (f.kind == Kind::Payload) payload_bytes += f.size;
  const std::size_t stride = payload_bytes / 1000 + 1;
  for (const Field& f : fx.fields) {
    const std::size_t step = f.kind == Kind::Payload ? stride : 1;
    for (std::size_t cut = f.at; cut < f.at + f.size; cut += step)
      reject(fx.good.substr(0, cut), "truncated at " + std::to_string(cut));
  }
  for (const std::uint32_t version : {0u, 4u}) {
    std::string s = fx.good;
    std::memcpy(s.data() + 4, &version, sizeof version);
    reject(s, "version " + std::to_string(version));
  }
  for (const Field& f : fx.fields) {
    if (f.kind != Kind::Count && f.kind != Kind::Length) continue;
    const std::uint64_t v = u64_at(fx.good, f.at);
    for (const std::uint64_t inflated :
         {v + 1, v + 1000, std::uint64_t{1} << 31, std::uint64_t{1} << 40})
      reject(with_u64(fx.good, f.at, inflated),
             "field at " + std::to_string(f.at) + " = " +
                 std::to_string(inflated));
  }
  std::printf("%zu-byte stream, %zu rejected loads\n", fx.good.size(), loads);
  EXPECT_LE(loads, 2000u);
}

TEST(StateStream, GridWorldMutationSweep) { mutation_sweep<GridCase>(); }

TEST(StateStream, DroneMutationSweep) { mutation_sweep<DroneCase>(); }

}  // namespace
}  // namespace frlfi
