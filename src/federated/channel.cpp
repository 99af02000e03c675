#include "federated/channel.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <span>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "numeric/quantize.hpp"

namespace frlfi {

namespace {

void check_probability(double p, const char* what) {
  FRLFI_CHECK_MSG(p >= 0.0 && p <= 1.0, what << " " << p);
}

// One element's i.i.d. flips: always 8 Bernoulli draws (one per bit of
// the int8 wire word, hit or not), collected into one XOR mask. Returns
// the number of flipped bits.
std::size_t flip_word(float& v, const Int8Quantizer& q, double ber,
                      Rng& noise) {
  std::uint8_t mask = 0;
  for (int b = 0; b < 8; ++b)
    if (noise.bernoulli(ber)) mask = static_cast<std::uint8_t>(mask | (1u << b));
  if (mask == 0) return 0;
  v = q.dequantize(static_cast<std::int8_t>(
      static_cast<std::uint8_t>(q.quantize(v)) ^ mask));
  return static_cast<std::size_t>(std::popcount(mask));
}

// The checksum/backoff/deadline retry loop around `attempt(k)` (k = 0 for
// the first transmission, k for the k-th retry). An attempt is delivered
// iff the payload arrived bit-exact; before each retry the clean payload
// (kept in `orig`) is restored. A failed upload leaves the clean payload
// in the row: that is what the eventual off-deadline retransmission
// delivers, and what the server folds into the staleness buffer.
template <class Attempt>
CommChannel::UploadOutcome retry_until_clean(float* row, std::size_t dim,
                                             const UploadProtocolConfig& cfg,
                                             std::vector<float>& orig,
                                             std::size_t& retransmit_bytes,
                                             const Attempt& attempt) {
  CommChannel::UploadOutcome out;
  orig.assign(row, row + dim);
  const auto clean = [&] { return std::equal(row, row + dim, orig.begin()); };
  double elapsed = cfg.attempt_timeout;
  attempt(0);
  while (!clean()) {
    if (out.attempts > cfg.max_retries) break;
    const double backoff =
        cfg.backoff_base * std::ldexp(1.0, static_cast<int>(out.attempts) - 1);
    if (elapsed + backoff + cfg.attempt_timeout > cfg.deadline) break;
    elapsed += backoff + cfg.attempt_timeout;
    out.backoff += backoff;
    ++out.attempts;
    retransmit_bytes += dim + sizeof(float);
    std::copy(orig.begin(), orig.end(), row);
    attempt(out.attempts - 1);
  }
  out.delivered = clean();
  if (!out.delivered) std::copy(orig.begin(), orig.end(), row);
  return out;
}

}  // namespace

CommChannel::CommChannel(double bit_error_rate) : ber_(bit_error_rate) {
  FRLFI_CHECK_MSG(ber_ >= 0.0 && ber_ <= 1.0, "channel BER " << ber_);
}

void CommChannel::set_bit_error_rate(double ber) {
  FRLFI_CHECK_MSG(ber >= 0.0 && ber <= 1.0, "channel BER " << ber);
  ber_ = ber;
}

void CommChannel::set_bursty(const BurstyChannelConfig& cfg) {
  if (cfg.active) {
    check_probability(cfg.ber_good, "bursty ber_good");
    check_probability(cfg.ber_bad, "bursty ber_bad");
    check_probability(cfg.p_good_to_bad, "bursty p_good_to_bad");
    check_probability(cfg.p_bad_to_good, "bursty p_bad_to_good");
    check_probability(cfg.erasure_rate, "bursty erasure_rate");
    check_probability(cfg.reorder_rate, "bursty reorder_rate");
    FRLFI_CHECK_MSG(cfg.chunk_elems >= 1, "bursty chunk_elems 0");
  }
  bursty_ = cfg;
}

void CommChannel::transmit_message(float* row, std::size_t dim,
                                   const Rng& base, Rng* serial_noise,
                                   std::uint64_t seq, std::uint64_t attempt,
                                   RowScratch& scratch,
                                   LaneCounters& cnt) const {
  ++cnt.messages;
  if (dim == 0) return;  // empty payload: counted, no bytes
  // Wire format: 8-bit body (1 byte per parameter — the paper's policies
  // are 8-bit quantized over the air) plus a protected scale header.
  // Elements untouched by channel errors are delivered losslessly: the
  // endpoints share the codec, so a clean link is exact, while an element
  // that takes a bit flip materializes the corrupted quantized word.
  cnt.bytes += dim + sizeof(float);
  if (bursty_.active && !bursty_degenerate(bursty_)) {
    transmit_bursty(row, dim, base, seq, attempt, scratch, cnt);
    return;
  }
  // A degenerate bursty config IS the i.i.d. channel at ber_good: same
  // code, same draws, same counters — the lock is structural.
  const double ber = bursty_.active ? bursty_.ber_good : ber_;
  if (ber <= 0.0) return;
  const Int8Quantizer q =
      Int8Quantizer::calibrate(std::span<const float>(row, dim));
  if (serial_noise != nullptr) {
    for (std::size_t d = 0; d < dim; ++d)
      cnt.corrupted += flip_word(row[d], q, ber, *serial_noise);
    return;
  }
  Rng noise =
      attempt == 0
          ? base.derive_stream({bursty_.stream_tag, kChannelNoiseTag, seq})
          : base.derive_stream(
                {bursty_.stream_tag, kChannelNoiseTag, seq, attempt});
  for (std::size_t d = 0; d < dim; ++d)
    cnt.corrupted += flip_word(row[d], q, ber, noise);
}

void CommChannel::transmit_bursty(float* row, std::size_t dim,
                                  const Rng& base, std::uint64_t seq,
                                  std::uint64_t attempt, RowScratch& scratch,
                                  LaneCounters& cnt) const {
  const BurstyChannelConfig& c = bursty_;
  // Every burst-plane draw lives on per-message streams derived off the
  // caller's RNG — split/derive never advance it, so arming the burst
  // plane cannot move the training stream, and the (persisted) sequence
  // key makes a restored campaign replay the same weather. Fleet-mode
  // retry attempt k > 0 extends the key so each attempt meets fresh
  // weather without claiming a new sequence number.
  Rng state = attempt == 0
                  ? base.derive_stream({c.stream_tag, kChannelStateTag, seq})
                  : base.derive_stream(
                        {c.stream_tag, kChannelStateTag, seq, attempt});
  Rng noise = attempt == 0
                  ? base.derive_stream({c.stream_tag, kChannelNoiseTag, seq})
                  : base.derive_stream(
                        {c.stream_tag, kChannelNoiseTag, seq, attempt});

  const std::size_t chunk = c.chunk_elems;
  const std::size_t n_chunks = (dim + chunk - 1) / chunk;

  // Gilbert–Elliott weather: start from the stationary distribution and
  // evolve per chunk; a sticky bad state (small p_bad_to_good) is what
  // makes errors arrive in bursts.
  scratch.chunk_bad.assign(n_chunks, 0);
  const double denom = c.p_good_to_bad + c.p_bad_to_good;
  bool bad = denom > 0.0 && state.bernoulli(c.p_good_to_bad / denom);
  for (std::size_t k = 0; k < n_chunks; ++k) {
    scratch.chunk_bad[k] = bad ? 1 : 0;
    bad = bad ? !state.bernoulli(c.p_bad_to_good)
              : state.bernoulli(c.p_good_to_bad);
  }
  scratch.chunk_lost.assign(n_chunks, 0);
  if (c.erasure_rate > 0.0)
    for (std::size_t k = 0; k < n_chunks; ++k)
      scratch.chunk_lost[k] = state.bernoulli(c.erasure_rate) ? 1 : 0;

  // Flips: the i.i.d. per-element word draws, but at the chunk's state
  // BER and from the per-message noise stream. Lost chunks never arrive,
  // so they draw no noise.
  const Int8Quantizer q =
      Int8Quantizer::calibrate(std::span<const float>(row, dim));
  for (std::size_t d = 0; d < dim; ++d) {
    const std::size_t k = d / chunk;
    if (scratch.chunk_lost[k]) continue;
    const double ber = scratch.chunk_bad[k] ? c.ber_bad : c.ber_good;
    if (ber > 0.0) cnt.corrupted += flip_word(row[d], q, ber, noise);
  }

  // Erasure: the receiver substitutes zeros for chunks that never came.
  for (std::size_t k = 0; k < n_chunks; ++k) {
    if (!scratch.chunk_lost[k]) continue;
    ++cnt.chunks_erased;
    const std::size_t lo = k * chunk;
    const std::size_t hi = std::min(dim, lo + chunk);
    std::fill(row + lo, row + hi, 0.0f);
  }

  // Reordering: chunks arrive as a random permutation and the receiver
  // writes them back in arrival order (lengths preserved, so the tail
  // chunk reshapes the boundaries — exactly the out-of-order damage a
  // sequence-number-less transport suffers).
  if (c.reorder_rate > 0.0 && n_chunks > 1 &&
      state.bernoulli(c.reorder_rate)) {
    scratch.perm.resize(n_chunks);
    for (std::size_t k = 0; k < n_chunks; ++k) scratch.perm[k] = k;
    state.shuffle(scratch.perm);
    scratch.reorder.assign(row, row + dim);
    std::size_t pos = 0;
    for (std::size_t k = 0; k < n_chunks; ++k) {
      const std::size_t src = scratch.perm[k];
      const std::size_t lo = src * chunk;
      const std::size_t len = std::min(dim, lo + chunk) - lo;
      std::copy(scratch.reorder.begin() + static_cast<std::ptrdiff_t>(lo),
                scratch.reorder.begin() + static_cast<std::ptrdiff_t>(lo + len),
                row + pos);
      pos += len;
    }
    ++cnt.reordered;
  }
}

void CommChannel::transmit_uploads(float* const* uploads,
                                   std::size_t n_uploads, std::size_t dim,
                                   Rng& rng, ThreadPool* pool,
                                   const UploadProtocolConfig* proto,
                                   const std::uint8_t* reliable_mask,
                                   UploadOutcome* outcomes) {
  if (n_uploads == 0) return;
  // Fleet keying claims the whole call's sequence numbers up front:
  // upload u rides seq_base + u no matter how the lanes carve the range,
  // which is the entire thread-count-invariance argument. The serial
  // stream claims one number per attempt as it goes.
  const bool fleet = pool != nullptr;
  const std::uint64_t seq_base = seq_;
  if (fleet) seq_ += n_uploads;
  const std::size_t lanes = fleet ? std::min(pool->size(), n_uploads) : 1;
  if (lane_scratch_.size() < lanes) lane_scratch_.resize(lanes);
  lane_counters_.assign(lanes, LaneCounters{});
  const bool armed = proto != nullptr && reliable_upload_armed(*proto);
  // Lane-indexed body: each lane re-derives its contiguous upload shard
  // from shard_range, so scratch and counters are strictly lane-local
  // until the fold below.
  parallel_for(pool, lanes, [&](std::size_t lane_b, std::size_t lane_e) {
    for (std::size_t lane = lane_b; lane < lane_e; ++lane) {
      RowScratch& scratch = lane_scratch_[lane];
      LaneCounters& cnt = lane_counters_[lane];
      std::size_t b = 0, e = 0;
      shard_range(n_uploads, lanes, lane, b, e);
      for (std::size_t u = b; u < e; ++u) {
        float* row = uploads[u];
        const auto attempt = [&](std::uint64_t k) {
          if (fleet)
            transmit_message(row, dim, rng, nullptr, seq_base + u, k,
                             scratch, cnt);
          else
            transmit_message(row, dim, rng, &rng, seq_++, 0, scratch, cnt);
        };
        UploadOutcome out;
        if (armed && (reliable_mask == nullptr || reliable_mask[u] != 0))
          out = retry_until_clean(row, dim, *proto, scratch.orig,
                                  cnt.retransmit_bytes, attempt);
        else
          attempt(0);
        if (outcomes != nullptr) outcomes[u] = out;
      }
    }
  });
  for (const LaneCounters& cnt : lane_counters_) {
    messages_ += cnt.messages;
    bytes_ += cnt.bytes;
    corrupted_ += cnt.corrupted;
    retransmit_bytes_ += cnt.retransmit_bytes;
    chunks_erased_ += cnt.chunks_erased;
    reordered_ += cnt.reordered;
  }
}

void CommChannel::transmit_rows(float* rows, std::size_t n_rows,
                                std::size_t dim, Rng& rng) {
  row_ptrs_.resize(n_rows);
  for (std::size_t r = 0; r < n_rows; ++r) row_ptrs_[r] = rows + r * dim;
  transmit_uploads(row_ptrs_.data(), n_rows, dim, rng, nullptr);
}

void CommChannel::reset_counters() {
  messages_ = 0;
  bytes_ = 0;
  corrupted_ = 0;
  retransmit_bytes_ = 0;
  chunks_erased_ = 0;
  reordered_ = 0;
}

}  // namespace frlfi
