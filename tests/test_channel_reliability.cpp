/// \file test_channel_reliability.cpp
/// The correlated-fault & unreliable-transport plane:
///  * a *degenerate* Gilbert–Elliott config (equal-state BERs, no
///    erasure/reordering) is locked bit-identical to the i.i.d. channel —
///    delivered bits, cost counters and RNG stream position — at the
///    channel level and through full engine training on both paper
///    systems across thread counts {1, 2, 7};
///  * the non-degenerate burst plane never advances the caller's RNG,
///    replays deterministically from (stream, seq), erases and reorders
///    chunks as configured, and degraded training under it is
///    thread-count invariant;
///  * the retry protocol of transmit_uploads: a disabled or zero-retry
///    protocol is byte-for-byte the plain transmit; retry/backoff/
///    deadline accounting matches the closed-form schedule under both
///    the serial and the fleet attempt keying; failed uploads restore
///    the clean payload;
///  * an upload that exhausts its budget is absorbed by the
///    participation plane: reported dropped/stale, excluded from
///    aggregate and downlink, the aggregate stays finite;
///  * burst-length-1 injectors (byte and fixed-point domains) are locked
///    bit-identical to the single-bit golden injectors, and multi-bit
///    bursts match an independent XOR-parity reference;
///  * snapshot/save-load mid-campaign under a bursty plan + retry
///    protocol replays the uninterrupted run bit-for-bit (the persisted
///    transmit_seq is what keys the channel weather).

#include "federated/channel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "fault/overlay.hpp"
#include "federated/participation.hpp"
#include "federated/round_engine.hpp"
#include "federated/server.hpp"
#include "frl/drone_system.hpp"
#include "core/parallel.hpp"
#include "frl/gridworld_system.hpp"
#include "golden/golden.hpp"
#include "numeric/bitutil.hpp"

namespace frlfi {
namespace {

/// One upload through transmit_uploads under `cfg` (serial stream when
/// `pool` is null, fleet keying otherwise).
CommChannel::UploadOutcome reliable_upload(CommChannel& ch, float* row,
                                           std::size_t dim, Rng& rng,
                                           const UploadProtocolConfig& cfg,
                                           ThreadPool* pool = nullptr) {
  CommChannel::UploadOutcome out;
  ch.transmit_uploads(&row, 1, dim, rng, pool, &cfg, nullptr, &out);
  return out;
}

std::vector<float> random_row(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

BurstyChannelConfig degenerate_ge(double ber) {
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_good = ber;
  cfg.ber_bad = ber;  // equal states, no erasure/reorder: degenerate
  return cfg;
}

TEST(BurstyChannel, ValidatesConfig) {
  CommChannel ch;
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_bad = 1.5;
  EXPECT_THROW(ch.set_bursty(cfg), Error);
  cfg.ber_bad = 0.1;
  cfg.erasure_rate = -0.1;
  EXPECT_THROW(ch.set_bursty(cfg), Error);
  cfg.erasure_rate = 0.1;
  cfg.chunk_elems = 0;
  EXPECT_THROW(ch.set_bursty(cfg), Error);
  cfg.chunk_elems = 16;
  ch.set_bursty(cfg);  // sane config arms
  EXPECT_TRUE(ch.bursty().active);
  // Inactive configs are stored without validation side effects.
  ch.set_bursty(BurstyChannelConfig{});
  EXPECT_FALSE(ch.bursty().active);
}

TEST(BurstyChannel, DegenerateConfigIsBitIdenticalToIid) {
  // The acceptance lock: equal-state GE with no erasure/reordering must
  // not change a single delivered bit, counter, or RNG draw vs the
  // i.i.d. channel at the same BER — the delegation is structural.
  const double kBer = 0.01;
  const std::size_t dim = 97;
  std::vector<float> iid_rows, ge_rows;
  for (std::size_t r = 0; r < 3; ++r) {
    const auto row = random_row(dim, 100 + r);
    iid_rows.insert(iid_rows.end(), row.begin(), row.end());
    ge_rows.insert(ge_rows.end(), row.begin(), row.end());
  }
  CommChannel iid(kBer);
  CommChannel ge;  // scalar BER 0: the active degenerate config replaces it
  ge.set_bursty(degenerate_ge(kBer));
  Rng rng_iid(42), rng_ge(42);
  iid.transmit_rows(iid_rows.data(), 3, dim, rng_iid);
  ge.transmit_rows(ge_rows.data(), 3, dim, rng_ge);
  EXPECT_EQ(iid_rows, ge_rows);
  EXPECT_EQ(iid.messages_sent(), ge.messages_sent());
  EXPECT_EQ(iid.bytes_sent(), ge.bytes_sent());
  EXPECT_EQ(iid.bits_corrupted(), ge.bits_corrupted());
  EXPECT_EQ(ge.chunks_erased(), 0u);
  EXPECT_EQ(ge.messages_reordered(), 0u);
  // RNG stream position: the delegated path consumed identical draws.
  EXPECT_EQ(rng_iid.next_u64(), rng_ge.next_u64());

  // And it matches the frozen scalar i.i.d. transmit.
  const auto payload = random_row(33, 7);
  Rng ra(5), rb(5);
  golden::ScalarChannel a(kBer);
  CommChannel b;
  b.set_bursty(degenerate_ge(kBer));
  auto delivered = payload;
  b.transmit_rows(delivered.data(), 1, delivered.size(), rb);
  EXPECT_EQ(a.transmit(payload, ra), delivered);
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

TEST(BurstyChannel, NonDegeneratePathNeverAdvancesCallerRng) {
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_good = 1e-3;
  cfg.ber_bad = 0.2;
  cfg.erasure_rate = 0.1;
  cfg.reorder_rate = 0.3;
  cfg.chunk_elems = 8;
  CommChannel ch;
  ch.set_bursty(cfg);
  auto rows = random_row(128, 3);
  Rng rng(99), untouched(99);
  ch.transmit_rows(rows.data(), 2, 64, rng);
  // All burst-plane draws come from derived (non-advancing) streams.
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(BurstyChannel, ReplaysFromSequenceNumber) {
  // Same (caller stream, seq) → same weather and noise; advancing the
  // sequence changes the message's fate. This is exactly the state the
  // engine persists for bit-exact resume.
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_bad = 0.3;
  cfg.p_good_to_bad = 0.4;
  cfg.p_bad_to_good = 0.5;
  cfg.chunk_elems = 4;
  const auto orig = random_row(64, 11);
  auto once = orig, again = orig, shifted = orig;
  CommChannel c1, c2, c3;
  c1.set_bursty(cfg);
  c2.set_bursty(cfg);
  c3.set_bursty(cfg);
  c3.set_transmit_seq(17);
  Rng r1(8), r2(8), r3(8);
  c1.transmit_rows(once.data(), 1, 64, r1);
  c2.transmit_rows(again.data(), 1, 64, r2);
  c3.transmit_rows(shifted.data(), 1, 64, r3);
  EXPECT_EQ(once, again);
  EXPECT_NE(shifted, once);  // different seq, different weather
  EXPECT_EQ(c1.transmit_seq(), 1u);
  EXPECT_EQ(c3.transmit_seq(), 18u);
  // reset_counters leaves the timeline state alone.
  c3.reset_counters();
  EXPECT_EQ(c3.transmit_seq(), 18u);
  EXPECT_EQ(c3.bytes_sent(), 0u);
}

TEST(BurstyChannel, ErasureZeroFillsLostChunks) {
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.erasure_rate = 1.0;  // every chunk lost
  cfg.chunk_elems = 8;
  CommChannel ch;
  ch.set_bursty(cfg);
  auto row = random_row(60, 21);  // 8 chunks, short tail chunk
  Rng rng(4);
  ch.transmit_rows(row.data(), 1, 60, rng);
  for (float v : row) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(ch.chunks_erased(), 8u);
  EXPECT_EQ(ch.bits_corrupted(), 0u);  // lost chunks draw no flip noise
}

TEST(BurstyChannel, ReorderPermutesChunks) {
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.reorder_rate = 1.0;
  cfg.chunk_elems = 8;
  CommChannel ch;
  ch.set_bursty(cfg);
  std::vector<float> row(64);
  for (std::size_t i = 0; i < row.size(); ++i)
    row[i] = static_cast<float>(i);
  const auto orig = row;
  Rng rng(12);
  ch.transmit_rows(row.data(), 1, 64, rng);
  EXPECT_EQ(ch.messages_reordered(), 1u);
  EXPECT_NE(row, orig);
  // No noise/erasure: the delivered elements are a chunk permutation.
  auto sorted = row, sorted_orig = orig;
  std::sort(sorted.begin(), sorted.end());
  std::sort(sorted_orig.begin(), sorted_orig.end());
  EXPECT_EQ(sorted, sorted_orig);
  for (std::size_t k = 0; k < 8; ++k) {
    // Each aligned 8-run is one original chunk, contiguous and in order.
    const float base = row[k * 8];
    EXPECT_EQ(std::fmod(base, 8.0f), 0.0f);
    for (std::size_t d = 1; d < 8; ++d)
      EXPECT_EQ(row[k * 8 + d], base + static_cast<float>(d));
  }
}

TEST(ReliableUpload, DisabledOrZeroRetryIsPlainTransmit) {
  // The degenerate-protocol lock: bits, counters and RNG position all
  // match the plain path.
  const std::size_t dim = 50;
  for (const bool enabled : {false, true}) {
    UploadProtocolConfig cfg;
    cfg.enabled = enabled;
    cfg.max_retries = 0;
    auto plain = random_row(dim, 31);
    auto reliable = plain;
    CommChannel a(0.02), b(0.02);
    Rng ra(6), rb(6);
    a.transmit_rows(plain.data(), 1, dim, ra);
    const CommChannel::UploadOutcome out =
        reliable_upload(b, reliable.data(), dim, rb, cfg);
    EXPECT_EQ(plain, reliable);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_TRUE(out.delivered);
    EXPECT_EQ(out.backoff, 0.0);
    EXPECT_EQ(a.bytes_sent(), b.bytes_sent());
    EXPECT_EQ(a.bits_corrupted(), b.bits_corrupted());
    EXPECT_EQ(b.retransmit_bytes(), 0u);
    EXPECT_EQ(ra.next_u64(), rb.next_u64());
  }
}

TEST(ReliableUpload, CleanChannelDeliversFirstAttempt) {
  UploadProtocolConfig cfg;
  cfg.enabled = true;
  auto row = random_row(40, 77);
  const auto orig = row;
  CommChannel ch;  // BER 0
  Rng rng(3);
  const auto out = reliable_upload(ch, row.data(), 40, rng, cfg);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.attempts, 1u);
  EXPECT_EQ(row, orig);
  EXPECT_EQ(ch.retransmit_bytes(), 0u);
}

TEST(ReliableUpload, ExhaustsRetriesAndRestoresCleanPayload) {
  // Total erasure: no attempt can ever pass the checksum. The upload
  // burns 1 + max_retries attempts, charges each retransmission, sums
  // the exponential backoff, and hands back the clean payload.
  BurstyChannelConfig bursty;
  bursty.active = true;
  bursty.erasure_rate = 1.0;
  bursty.chunk_elems = 8;
  UploadProtocolConfig cfg;
  cfg.enabled = true;
  cfg.max_retries = 3;
  cfg.attempt_timeout = 1.0;
  cfg.backoff_base = 0.5;
  cfg.deadline = 16.0;
  const std::size_t dim = 24;
  ThreadPool pool(1);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto row = random_row(dim, 13);
    const auto orig = row;
    CommChannel ch;
    ch.set_bursty(bursty);
    Rng rng(9);
    const auto out = reliable_upload(ch, row.data(), dim, rng, cfg, p);
    EXPECT_FALSE(out.delivered);
    EXPECT_EQ(out.attempts, 4u);
    EXPECT_EQ(out.backoff, 0.5 + 1.0 + 2.0);  // backoff_base * 2^(k-1)
    EXPECT_EQ(row, orig);  // what the late retransmission delivers
    EXPECT_EQ(ch.retransmit_bytes(), 3 * (dim + sizeof(float)));
    EXPECT_EQ(ch.bytes_sent(), 4 * (dim + sizeof(float)));
    EXPECT_EQ(ch.messages_sent(), 4u);
    // The serial stream claims a sequence number per attempt, the fleet
    // keying one per upload.
    EXPECT_EQ(ch.transmit_seq(), p == nullptr ? 4u : 1u);
    EXPECT_EQ(rng.next_u64(), Rng(9).next_u64());  // burst plane: no draws
  }
}

TEST(ReliableUpload, DeadlineBoundsAttempts) {
  BurstyChannelConfig bursty;
  bursty.active = true;
  bursty.erasure_rate = 1.0;
  UploadProtocolConfig cfg;
  cfg.enabled = true;
  cfg.max_retries = 10;
  cfg.attempt_timeout = 1.0;
  cfg.backoff_base = 0.5;
  cfg.deadline = 3.0;  // 1 + (0.5 + 1) fits; the next retry would not
  ThreadPool pool(1);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    auto row = random_row(16, 2);
    CommChannel ch;
    ch.set_bursty(bursty);
    Rng rng(1);
    const auto out = reliable_upload(ch, row.data(), 16, rng, cfg, p);
    EXPECT_FALSE(out.delivered);
    EXPECT_EQ(out.attempts, 2u);
    EXPECT_EQ(out.backoff, 0.5);
  }
}

// ---------------------------------------------------------------------------
// Burst injectors (correlated memory upsets).

FaultSpec burst_spec(double ber, std::size_t length, BurstAxis axis,
                     FaultModel model = FaultModel::TransientPersistent,
                     FlipDirection dir = FlipDirection::Any) {
  FaultSpec spec;
  spec.model = model;
  spec.ber = ber;
  spec.direction = dir;
  spec.burst.length = length;
  spec.burst.axis = axis;
  return spec;
}

TEST(BurstInjector, LengthOneIsBitIdenticalToSingleBitGolden) {
  // The golden-identity lock: a burst of length 1 consumes the same
  // event stream and produces the same flips as the single-bit
  // injectors, for every temporal model.
  for (const FaultModel model :
       {FaultModel::TransientPersistent, FaultModel::StuckAt0,
        FaultModel::StuckAt1}) {
    std::vector<std::uint8_t> ref(64), burst(64);
    Rng fill(5);
    for (std::size_t i = 0; i < ref.size(); ++i)
      ref[i] = burst[i] = static_cast<std::uint8_t>(fill.next_u64());
    FaultSpec spec = burst_spec(0.02, 1, BurstAxis::Row, model);
    Rng rg(44), rb(44);
    const std::size_t ng =
        model == FaultModel::TransientPersistent
            ? golden::flip_bits_ber(ref, spec.ber, rg, spec.direction)
            : golden::stick_bits_ber(ref, spec.ber,
                                     model == FaultModel::StuckAt1, rg);
    const std::size_t nb = corrupt_bits_burst(burst, spec, rb);
    EXPECT_EQ(ref, burst) << to_string(model);
    EXPECT_EQ(ng, nb);
    EXPECT_GT(nb, 0u);  // the lock is exercised, not vacuous
    EXPECT_EQ(rg.next_u64(), rb.next_u64());
  }
}

TEST(BurstInjector, MultiBitBurstMatchesXorParityReference) {
  // Independent reference: replay the event stream on a probe RNG, then
  // compute the expected result as XOR parity of the event coverage
  // (valid for transient/Any — each covered bit flips once per covering
  // event, order-free).
  for (const BurstAxis axis : {BurstAxis::Row, BurstAxis::Column}) {
    std::vector<std::uint8_t> bytes(48);
    Rng fill(23);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(fill.next_u64());
    const auto orig = bytes;
    const FaultSpec spec = burst_spec(0.01, 3, axis);
    const std::size_t nbits = bit_count(bytes);
    const std::size_t stride = axis == BurstAxis::Row ? 1 : 8;

    Rng probe(66);
    auto expected = orig;
    std::size_t expected_changed = 0;
    for (std::size_t i = 0; i < nbits; ++i) {
      if (!probe.bernoulli(spec.ber)) continue;
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t j = i + k * stride;
        if (j >= nbits) break;
        flip_bit(expected, j);
      }
    }
    for (std::size_t i = 0; i < nbits; ++i)
      expected_changed += get_bit(expected, i) != get_bit(orig, i) ? 1 : 0;

    Rng rng(66);
    const std::size_t changed = corrupt_bits_burst(bytes, spec, rng);
    EXPECT_EQ(bytes, expected) << to_string(axis);
    EXPECT_EQ(changed, expected_changed);
    EXPECT_GT(changed, 1u);  // bursts actually spread
    EXPECT_EQ(rng.next_u64(), probe.next_u64());
  }
}

TEST(BurstInjector, FixedWordsLengthOneMatchesGoldenReference) {
  const FixedPointFormat fmt{3, 8};  // Q(1,3,8)
  auto ref = random_row(80, 19);
  auto burst = ref;
  const FaultSpec spec = burst_spec(0.01, 1, BurstAxis::Row);
  Rng rg(55), rb(55);
  const InjectionReport report =
      golden::inject_fixed_point_reference(ref, fmt, spec, rg);
  // Drive the fixed-word kernel as the strike does: encode → corrupt →
  // decode.
  const FixedPointCodec codec(fmt);
  std::vector<std::uint32_t> words(burst.size());
  for (std::size_t i = 0; i < burst.size(); ++i)
    words[i] = codec.encode(burst[i]);
  const std::size_t changed =
      corrupt_fixed_words_burst(words, fmt.word_bits(), spec, rb);
  for (std::size_t i = 0; i < burst.size(); ++i)
    burst[i] = static_cast<float>(codec.decode(words[i]));
  EXPECT_EQ(ref, burst);
  EXPECT_EQ(report.bits_flipped, changed);
  EXPECT_GT(changed, 0u);
  EXPECT_EQ(rg.next_u64(), rb.next_u64());
}

TEST(BurstInjector, OverlayBurstMatchesInPlaceInjection) {
  // The DeployedWeights strike and the frozen in-place injectors must
  // stay bit-aligned under bursts exactly as they are for single-bit
  // faults — int8 and fixed-point representations both.
  const FaultSpec spec = burst_spec(0.01, 4, BurstAxis::Column);
  const auto clean = random_row(120, 91);

  {  // int8
    std::vector<float> inplace = clean;
    Rng ri(14), ro(14);
    const InjectionReport a = golden::inject_int8(inplace, spec, ri);
    const DeployedWeights deployed = DeployedWeights::int8_image(clean);
    WeightOverlay overlay;
    const InjectionReport b = deployed.inject(spec, ro, overlay);
    std::vector<float> materialized = deployed.base();
    overlay.apply_to(materialized);
    EXPECT_EQ(inplace, materialized);
    EXPECT_EQ(a.bits_flipped, b.bits_flipped);
    EXPECT_GT(a.bits_flipped, 0u);
    EXPECT_EQ(ri.next_u64(), ro.next_u64());
  }
  {  // fixed point (bursts span words; overlay indices stay ascending)
    const FixedPointFormat fmt{2, 9};
    std::vector<float> inplace = clean;
    Rng ri(15), ro(15);
    const InjectionReport a =
        golden::inject_fixed_point_reference(inplace, fmt, spec, ri);
    const DeployedWeights deployed =
        DeployedWeights::fixed_point_image(clean, fmt);
    WeightOverlay overlay;
    const InjectionReport b = deployed.inject(spec, ro, overlay);
    std::vector<float> materialized = deployed.base();
    overlay.apply_to(materialized);
    EXPECT_EQ(inplace, materialized);
    EXPECT_EQ(a.bits_flipped, b.bits_flipped);
    EXPECT_GT(a.bits_flipped, 0u);
    EXPECT_EQ(ri.next_u64(), ro.next_u64());
    EXPECT_TRUE(std::is_sorted(overlay.indices.begin(),
                               overlay.indices.end()));
  }
}

// ---------------------------------------------------------------------------
// Engine-level locks on both paper systems.

GridWorldFrlSystem::Config grid_config(std::size_t n_agents,
                                       std::size_t threads) {
  GridWorldFrlSystem::Config cfg;
  cfg.n_agents = n_agents;
  cfg.eps_span = 420;
  cfg.channel_ber = 1e-3;
  cfg.threads = threads;
  return cfg;
}

std::vector<std::vector<float>> grid_params(GridWorldFrlSystem& sys,
                                            std::size_t n) {
  std::vector<std::vector<float>> out;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(sys.agent_network(i).flat_parameters());
  return out;
}

TEST(ChannelEngine, DegenerateBurstTrainingIsBitIdenticalToIid) {
  // Engine-level degenerate lock on GridWorld: an armed equal-state GE
  // channel trains bit-identically to the plain i.i.d. channel at the
  // same BER — continued training past the compare point catches any
  // stray RNG consumption — at thread counts 1, 2 and 7.
  GridWorldFrlSystem reference(grid_config(4, 1), 77);
  reference.train(30);
  const auto ref_params = grid_params(reference, 4);
  reference.train(10);
  const auto ref_params_cont = grid_params(reference, 4);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    GridWorldFrlSystem::Config cfg = grid_config(4, threads);
    cfg.channel_ber = 0.0;  // the active bursty plane replaces the scalar
    cfg.channel_bursty = degenerate_ge(1e-3);
    GridWorldFrlSystem sys(cfg, 77);
    sys.train(30);
    EXPECT_EQ(grid_params(sys, 4), ref_params) << threads << " threads";
    sys.train(10);
    EXPECT_EQ(grid_params(sys, 4), ref_params_cont) << threads << " threads";
    EXPECT_EQ(sys.communication_bytes(), reference.communication_bytes());
  }
}

TEST(ChannelEngine, DroneDegenerateBurstTrainingIsBitIdentical) {
  DroneFrlSystem::Config ref_cfg;
  ref_cfg.n_drones = 3;
  ref_cfg.imitation_episodes = 8;
  ref_cfg.channel_ber = 1e-3;
  DroneFrlSystem reference(ref_cfg, 57);
  reference.train(8);
  std::vector<std::vector<float>> ref_params;
  for (std::size_t i = 0; i < 3; ++i)
    ref_params.push_back(reference.drone_network(i).flat_parameters());

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    DroneFrlSystem::Config cfg = ref_cfg;
    cfg.threads = threads;
    cfg.channel_ber = 0.0;
    cfg.channel_bursty = degenerate_ge(1e-3);
    DroneFrlSystem sys(cfg, 57);
    sys.train(8);
    std::vector<std::vector<float>> params;
    for (std::size_t i = 0; i < 3; ++i)
      params.push_back(sys.drone_network(i).flat_parameters());
    EXPECT_EQ(params, ref_params) << threads << " threads";
    EXPECT_EQ(sys.communication_bytes(), reference.communication_bytes());
  }
}

BurstyChannelConfig stormy_channel() {
  BurstyChannelConfig cfg;
  cfg.active = true;
  cfg.ber_good = 1e-4;
  cfg.ber_bad = 0.05;
  cfg.p_good_to_bad = 0.2;
  cfg.p_bad_to_good = 0.5;  // mean burst length 2 chunks
  cfg.erasure_rate = 0.05;
  cfg.reorder_rate = 0.1;
  cfg.chunk_elems = 16;
  return cfg;
}

TEST(ChannelEngine, BurstyTrainingIsThreadCountInvariant) {
  std::vector<std::vector<float>> serial;
  std::size_t serial_erased = 0, serial_reordered = 0, serial_corrupted = 0;
  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    GridWorldFrlSystem::Config cfg = grid_config(4, threads);
    cfg.channel_bursty = stormy_channel();
    GridWorldFrlSystem sys(cfg, 101);
    sys.train(25);
    const auto params = grid_params(sys, 4);
    const CommChannel* ch = sys.comm_channel();
    ASSERT_NE(ch, nullptr);
    if (threads == 1) {
      serial = params;
      serial_erased = ch->chunks_erased();
      serial_reordered = ch->messages_reordered();
      serial_corrupted = ch->bits_corrupted();
      // The storm actually hit something at this seed.
      EXPECT_GT(serial_erased, 0u);
      EXPECT_GT(serial_corrupted, 0u);
    } else {
      EXPECT_EQ(params, serial) << threads << " threads";
      EXPECT_EQ(ch->chunks_erased(), serial_erased);
      EXPECT_EQ(ch->messages_reordered(), serial_reordered);
      EXPECT_EQ(ch->bits_corrupted(), serial_corrupted);
    }
  }
}

/// The degraded plan of test_participation's campaigns, with the retry
/// protocol armed on top.
ParticipationPlan retry_plan() {
  ParticipationPlan plan;
  plan.active = true;
  plan.dropout_rate = 0.2;
  plan.crash_rounds = 2;
  plan.straggler_rate = 0.2;
  plan.straggler_lag = 2;
  plan.stale_decay = 0.5;
  plan.max_staleness = 4;
  plan.upload.enabled = true;
  plan.upload.max_retries = 2;
  return plan;
}

TEST(ChannelEngine, ZeroRetryProtocolIsBitIdenticalToPlanPath) {
  // A protocol that cannot retry must not change a bit of a degraded
  // campaign — server rounds take the plain plan path verbatim.
  ParticipationPlan plain = retry_plan();
  plain.upload = UploadProtocolConfig{};
  ParticipationPlan zero = retry_plan();
  zero.upload.max_retries = 0;

  GridWorldFrlSystem a(grid_config(4, 1), 505);
  a.set_participation_plan(plain);
  a.train(30);
  const auto plain_params = grid_params(a, 4);

  for (const std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    GridWorldFrlSystem b(grid_config(4, threads), 505);
    b.set_participation_plan(zero);
    b.train(30);
    EXPECT_EQ(grid_params(b, 4), plain_params) << threads << " threads";
    EXPECT_EQ(b.communication_bytes(), a.communication_bytes());
    EXPECT_EQ(b.participation_stats().upload_attempts, 0u);
    EXPECT_EQ(b.participation_stats().uploads_failed, 0u);
  }
}

TEST(ChannelEngine, ExhaustedUploadDegradesIntoParticipationPlane) {
  // Total erasure + armed protocol: every on-time upload fails its
  // checksum, burns its retries, and must be absorbed — reported as
  // failed/stale, excluded from aggregate and downlink — leaving every
  // parameter finite.
  GridWorldFrlSystem::Config cfg = grid_config(4, 2);
  cfg.channel_bursty = stormy_channel();
  cfg.channel_bursty.erasure_rate = 1.0;
  GridWorldFrlSystem sys(cfg, 606);
  ParticipationPlan plan;
  plan.active = true;
  plan.upload.enabled = true;
  plan.upload.max_retries = 2;
  sys.set_participation_plan(plan);
  std::vector<RoundParticipationReport> reports;
  sys.set_round_observer(
      [&](const RoundParticipationReport& rep) { reports.push_back(rep); });
  sys.train(10);

  ASSERT_EQ(reports.size(), 10u);
  for (const auto& rep : reports) {
    EXPECT_EQ(rep.uploads_failed, rep.present);  // nothing ever delivers
    EXPECT_EQ(rep.upload_attempts, 3 * rep.present);  // 1 + 2 retries
    ASSERT_EQ(rep.upload_failed.size(), 4u);
    EXPECT_GT(rep.backoff_seconds, 0.0);
  }
  const ParticipationStats& stats = sys.participation_stats();
  EXPECT_GT(stats.uploads_failed, 0u);
  EXPECT_EQ(stats.failed_stale, stats.uploads_failed);  // lag 1 <= max 4
  EXPECT_EQ(stats.failed_dropped, 0u);
  const CommChannel* ch = sys.comm_channel();
  ASSERT_NE(ch, nullptr);
  EXPECT_GT(ch->retransmit_bytes(), 0u);
  for (const auto& params : grid_params(sys, 4))
    for (float v : params) EXPECT_TRUE(std::isfinite(v));
}

TEST(ChannelEngine, FailedUploadsDropWhenStaleFoldDisabled) {
  GridWorldFrlSystem::Config cfg = grid_config(3, 1);
  cfg.channel_bursty = stormy_channel();
  cfg.channel_bursty.erasure_rate = 1.0;
  GridWorldFrlSystem sys(cfg, 707);
  ParticipationPlan plan;
  plan.active = true;
  plan.upload.enabled = true;
  plan.upload.max_retries = 1;
  plan.upload.exhausted_to_stale = false;
  sys.set_participation_plan(plan);
  sys.train(6);
  const ParticipationStats& stats = sys.participation_stats();
  EXPECT_GT(stats.uploads_failed, 0u);
  EXPECT_EQ(stats.failed_dropped, stats.uploads_failed);
  EXPECT_EQ(stats.failed_stale, 0u);
}

TEST(ChannelEngine, ValidatesUploadProtocolPlan) {
  GridWorldFrlSystem sys(grid_config(2, 1), 1);
  ParticipationPlan plan;
  plan.active = true;
  plan.upload.enabled = true;
  plan.upload.attempt_timeout = 0.0;
  EXPECT_THROW(sys.set_participation_plan(plan), Error);
  plan.upload.attempt_timeout = 1.0;
  plan.upload.deadline = 0.0;
  EXPECT_THROW(sys.set_participation_plan(plan), Error);
  plan.upload.deadline = 8.0;
  sys.set_participation_plan(plan);  // sane protocol passes
}

// ---------------------------------------------------------------------------
// Mid-campaign resume under a bursty plan: the persisted transmit_seq.

TEST(ChannelEngine, SnapshotRestoreUnderBurstyPlanReplaysBitForBit) {
  GridWorldFrlSystem::Config cfg = grid_config(4, 2);
  cfg.channel_bursty = stormy_channel();
  GridWorldFrlSystem sys(cfg, 808);
  sys.set_participation_plan(retry_plan());
  sys.train(21);
  const auto snap = sys.snapshot();
  ASSERT_NE(sys.comm_channel(), nullptr);
  EXPECT_EQ(snap.engine.channel_seq, sys.comm_channel()->transmit_seq());
  EXPECT_GT(snap.engine.channel_seq, 0u);
  sys.train(15);
  const auto direct = grid_params(sys, 4);

  sys.restore(snap);
  EXPECT_EQ(sys.episode(), 21u);
  EXPECT_EQ(sys.comm_channel()->transmit_seq(), snap.engine.channel_seq);
  sys.train(15);
  // Without the restored sequence number the post-resume rounds would
  // draw different channel weather and the campaigns would diverge.
  EXPECT_EQ(grid_params(sys, 4), direct);
}

TEST(ChannelEngine, SaveLoadRoundTripResumesBurstyCampaign) {
  GridWorldFrlSystem::Config cfg = grid_config(4, 1);
  cfg.channel_bursty = stormy_channel();
  GridWorldFrlSystem sys(cfg, 808);
  sys.set_participation_plan(retry_plan());
  sys.train(21);
  std::stringstream buf;
  sys.save(buf);
  sys.train(15);
  const auto direct = grid_params(sys, 4);

  GridWorldFrlSystem loaded(cfg, 808);
  loaded.set_participation_plan(retry_plan());
  loaded.load(buf);
  EXPECT_EQ(loaded.episode(), 21u);
  ASSERT_NE(loaded.comm_channel(), nullptr);
  EXPECT_GT(loaded.comm_channel()->transmit_seq(), 0u);
  loaded.train(15);
  EXPECT_EQ(grid_params(loaded, 4), direct);
}

}  // namespace
}  // namespace frlfi
