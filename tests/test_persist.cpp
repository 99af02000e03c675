#include "frl/persist.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstring>
#include <sstream>
#include <string>

#include "core/error.hpp"
#include "frl/drone_system.hpp"
#include "frl/gridworld_system.hpp"

namespace frlfi {
namespace {

TEST(Persist, PrimitivesRoundTrip) {
  std::stringstream ss;
  persist::write_header(ss, 3);
  persist::write_u64(ss, 0xDEADBEEFULL);
  persist::write_floats(ss, {1.0f, -2.5f, 0.125f});
  EXPECT_EQ(persist::read_header(ss), 3u);
  EXPECT_EQ(persist::read_u64(ss), 0xDEADBEEFULL);
  EXPECT_EQ(persist::read_floats(ss), (std::vector<float>{1.0f, -2.5f, 0.125f}));
}

TEST(Persist, RejectsGarbageHeader) {
  std::stringstream ss("this is not a state file");
  EXPECT_THROW(persist::read_header(ss), Error);
}

TEST(Persist, RejectsTruncatedStream) {
  std::stringstream ss;
  persist::write_header(ss, 1);
  persist::write_u64(ss, 100);  // claims 100 floats, provides none
  persist::read_header(ss);
  EXPECT_THROW(persist::read_floats(ss), Error);
}

TEST(Persist, LongVectorsRoundTripAcrossReadChunks) {
  // Lengths straddling the reader's chunk size.
  for (const std::size_t n : {std::size_t{65535}, std::size_t{65536},
                              std::size_t{65537}, std::size_t{200003}}) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<float>(i) * 0.5f;
    std::stringstream ss;
    persist::write_floats(ss, v);
    EXPECT_EQ(persist::read_floats(ss), v) << n;
  }
}

std::size_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss);
}

TEST(Persist, HugePendingUploadLengthThrowsWithoutAllocatingIt) {
  // A v3 training-state stream whose one pending upload claims 2^31
  // floats (8 GiB) but carries 8 bytes. The reader must fail on the
  // missing bytes, with memory following the bytes actually present.
  std::stringstream ss;
  persist::write_header(ss, 3);
  persist::write_u64(ss, 12);  // episode
  persist::write_u64(ss, 3);   // round
  persist::write_u64(ss, 0);   // server fault pending
  persist::write_u64(ss, 40);  // channel seq
  persist::write_u64(ss, 1);   // one pending upload
  persist::write_u64(ss, 0);   // agent
  persist::write_u64(ss, 4);   // deliver round
  persist::write_floats(ss, {0.5f});       // weight
  persist::write_u64(ss, 1ull << 31);      // pending-upload length
  persist::write_u64(ss, 0x3F8000003F800000ULL);  // 8 bytes of payload
  const std::uint32_t version = persist::read_header(ss);
  const std::size_t rss_before = peak_rss_kib();
  EXPECT_THROW(persist::read_training_state(ss, 4, version), Error);
  EXPECT_LT(peak_rss_kib() - rss_before, std::size_t{64} * 1024)
      << "peak RSS grew by more than 64 MiB";
}

TEST(Persist, GridWorldSaveLoadRoundTrip) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 4;
  GridWorldFrlSystem sys(cfg, 5);
  sys.train(60);
  std::stringstream ss;
  sys.save(ss);

  GridWorldFrlSystem other(cfg, 999);  // different seed: different weights
  other.load(ss);
  EXPECT_EQ(other.episode(), 60u);
  EXPECT_EQ(other.agent_network(2).flat_parameters(),
            sys.agent_network(2).flat_parameters());
}

TEST(Persist, GridWorldLoadedSystemContinuesTraining) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 4;
  GridWorldFrlSystem a(cfg, 6);
  a.train(40);
  std::stringstream ss;
  a.save(ss);
  a.train(20);
  GridWorldFrlSystem b(cfg, 6);
  b.load(ss);
  b.train(20);
  EXPECT_EQ(a.agent_network(0).flat_parameters(),
            b.agent_network(0).flat_parameters());
}

TEST(Persist, GridWorldRejectsAgentCountMismatch) {
  GridWorldFrlSystem::Config small;
  small.n_agents = 2;
  GridWorldFrlSystem sys(small, 7);
  std::stringstream ss;
  sys.save(ss);
  GridWorldFrlSystem::Config big;
  big.n_agents = 4;
  GridWorldFrlSystem other(big, 7);
  EXPECT_THROW(other.load(ss), Error);
}

TEST(Persist, GridWorldRejectsWrongLengthCheckpoint) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = 4;
  MitigationPlan mit;
  mit.enabled = true;
  GridWorldFrlSystem sys(cfg, 9);
  sys.set_mitigation(mit);
  sys.train(40);
  ASSERT_GT(sys.mitigation_stats().checkpoints_taken, 0u);
  std::stringstream ss;
  sys.save(ss);
  const std::string good = ss.str();

  // The stream ends with the checkpoint (u64 length + floats) and five u64
  // counters. Shorten the checkpoint by one float, length field included,
  // so the stream itself stays well formed.
  const std::size_t dim = sys.agent_network(0).parameter_count();
  const std::size_t tail = 5 * sizeof(std::uint64_t);
  const std::size_t len_at =
      good.size() - tail - dim * sizeof(float) - sizeof(std::uint64_t);
  std::uint64_t len = 0;
  std::memcpy(&len, good.data() + len_at, sizeof len);
  ASSERT_EQ(len, dim);
  --len;
  std::string bad = good.substr(0, len_at);
  bad.append(reinterpret_cast<const char*>(&len), sizeof len);
  bad.append(good, len_at + sizeof len, (dim - 1) * sizeof(float));
  bad.append(good, good.size() - tail, tail);

  GridWorldFrlSystem intact(cfg, 9);
  intact.set_mitigation(mit);
  std::stringstream good_in(good);
  EXPECT_NO_THROW(intact.load(good_in));
  GridWorldFrlSystem other(cfg, 9);
  other.set_mitigation(mit);
  std::stringstream bad_in(bad);
  EXPECT_THROW(other.load(bad_in), Error);
}

TEST(Persist, DroneSaveLoadRoundTrip) {
  DroneFrlSystem::Config cfg;
  cfg.n_drones = 2;
  cfg.imitation_episodes = 20;
  DroneFrlSystem sys(cfg, 8);
  sys.train(4);
  std::stringstream ss;
  sys.save(ss);

  DroneFrlSystem other(cfg, 8);
  other.load(ss);
  EXPECT_EQ(other.episode(), 4u);
  EXPECT_EQ(other.drone_network(1).flat_parameters(),
            sys.drone_network(1).flat_parameters());
  // Baseline state restored too: continued training replays identically.
  sys.train(4);
  other.train(4);
  EXPECT_EQ(other.drone_network(0).flat_parameters(),
            sys.drone_network(0).flat_parameters());
}

}  // namespace
}  // namespace frlfi
