#pragma once

/// \file channel.hpp
/// The agent<->server communication link. Transports int8-quantized
/// parameter payloads, optionally corrupting them with a wireless bit
/// error rate (interference/distortion/synchronization faults, §III-C),
/// and accounts communication cost (the Fig. 6b trade-off metric).
///
/// Two fault planes ride the link:
///
///  * **I.i.d. flips** (the paper's model): every bit of every payload
///    flips independently at `bit_error_rate()`.
///  * **The bursty/unreliable plane** (BurstyChannelConfig): a
///    Gilbert–Elliott two-state channel whose per-chunk BER switches
///    between a good and a bad state, plus chunk-level erasure (lost
///    chunks arrive as zeros) and chunk reordering. All burst-plane
///    draws — channel weather, erasure, reordering, and the flip noise
///    itself — come from per-message streams derived off the caller's
///    RNG with the non-advancing split discipline, keyed by a persistent
///    transmit sequence number. The caller's stream is never advanced by
///    the bursty path, a degenerate config (equal-state BERs, no
///    erasure/reordering) takes the i.i.d. path verbatim (bits, counters
///    and RNG stream position locked identical), and the sequence number
///    travels with the engine's TrainingState so a mid-campaign resume
///    replays the same channel weather.
///
/// transmit_uploads() is the one upload entry point: it optionally runs
/// the checksum/retry/timeout protocol of UploadProtocolConfig on top of
/// either plane (see server.hpp for how exhausted uploads degrade into
/// the participation plane). Only how an attempt is *keyed* depends on
/// whether a ThreadPool is passed:
///
///  * **No pool (the legacy serial stream).** Uploads go in order, every
///    attempt claims the next sequence number, and i.i.d. flips draw from
///    the caller's advancing RNG.
///  * **A pool (the fleet fan).** Each upload claims one sequence number
///    up front and rides derived (non-advancing) streams keyed by it —
///    retry attempt k > 0 adds k to the key — so the uploads fan across
///    the pool with bit-identical results at any lane count. Burst-plane
///    bits of single-attempt uploads match the serial stream exactly
///    (both are per-seq derived); i.i.d. flips move onto the derived
///    discipline (keyed under the bursty stream_tag, a valid namespace
///    even when the burst plane is off), a different — equally i.i.d. —
///    noise realization than the advancing stream.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/rng.hpp"

namespace frlfi {

class ThreadPool;

/// Sub-stream kinds of the bursty-channel RNG plane (derived as
/// rng.derive_stream({stream_tag, kind, transmit_seq})).
inline constexpr std::uint64_t kChannelStateTag = 0x6E15ULL;  // weather
inline constexpr std::uint64_t kChannelNoiseTag = 0xB17FULL;  // flip noise

/// Gilbert–Elliott bursty-channel configuration. Inactive configs change
/// nothing; an active config whose two states share one BER with erasure
/// and reordering off is *degenerate* and takes the i.i.d. path verbatim.
struct BurstyChannelConfig {
  bool active = false;
  /// Per-bit flip probability in the good / bad channel state.
  double ber_good = 0.0;
  double ber_bad = 0.0;
  /// Per-chunk state transition probabilities. The mean bad-state dwell
  /// (mean burst length) is 1 / p_bad_to_good chunks; the chain starts
  /// each message from its stationary distribution.
  double p_good_to_bad = 0.05;
  double p_bad_to_good = 1.0;
  /// Per-chunk erasure probability: erased chunks never arrive and the
  /// receiver substitutes zeros.
  double erasure_rate = 0.0;
  /// Per-message probability the chunks are delivered out of order
  /// (a uniformly random permutation of the chunk sequence).
  double reorder_rate = 0.0;
  /// Chunk size in parameters (elements), >= 1.
  std::size_t chunk_elems = 32;
  /// Tag of the burst RNG plane under the caller's stream.
  std::uint64_t stream_tag = 0xC4A2'77B1ULL;
};

/// True when `cfg` perturbs nothing beyond i.i.d. flips at ber_good —
/// the configuration the bursty path is locked bit-identical against.
inline bool bursty_degenerate(const BurstyChannelConfig& cfg) {
  return cfg.ber_good == cfg.ber_bad && cfg.erasure_rate == 0.0 &&
         cfg.reorder_rate == 0.0;
}

/// Checksum/retry/timeout upload protocol. The checksum is idealized: an
/// attempt is delivered iff the payload arrived bit-exact (a CRC over the
/// quantized wire words detecting every corruption). With max_retries ==
/// 0 a single attempt is accepted as-is — no verification is possible
/// without the ability to retransmit — so a zero-retry protocol is
/// byte-for-byte the plain transmit path (the degenerate lock).
struct UploadProtocolConfig {
  bool enabled = false;
  /// Retransmissions allowed after the first attempt.
  std::size_t max_retries = 3;
  /// Simulated seconds charged per transmit attempt.
  double attempt_timeout = 1.0;
  /// Backoff before retry k is backoff_base * 2^(k-1) simulated seconds.
  double backoff_base = 0.5;
  /// Total simulated time budget per upload (attempts + backoff); an
  /// upload stops retrying once the next attempt would overrun it.
  double deadline = 16.0;
  /// When an upload exhausts its budget: fold the clean payload into the
  /// staleness buffer straggler_lag rounds late (true) or drop it (false).
  bool exhausted_to_stale = true;
};

/// True when the protocol can actually retry (and therefore changes the
/// round path); disabled or zero-retry protocols take the plain path.
inline bool reliable_upload_armed(const UploadProtocolConfig& cfg) {
  return cfg.enabled && cfg.max_retries > 0;
}

/// A lossy parameter transport with cost accounting.
class CommChannel {
 public:
  /// \param bit_error_rate  per-bit flip probability applied to every
  ///        payload in transit (0 = clean channel).
  explicit CommChannel(double bit_error_rate = 0.0);

  /// Outcome of one upload under the retry protocol.
  struct UploadOutcome {
    std::size_t attempts = 1;
    bool delivered = true;
    /// Simulated seconds spent backing off between attempts.
    double backoff = 0.0;
  };

  /// Transmit `n_uploads` payloads (uploads[u] points at dim floats,
  /// corrupted in place): quantize to int8 with per-payload calibration,
  /// flip bits on the active plane, dequantize the touched words. Clean
  /// channels deliver losslessly — the endpoints share the codec.
  ///
  /// `pool` selects the attempt keying (see the file comment): null is
  /// the legacy serial stream on `rng`; a pool fans the uploads on
  /// derived streams and never advances `rng`.
  ///
  /// With `proto` armed (reliable_upload_armed), each upload marked
  /// nonzero in `reliable_mask` (all of them when the mask is null)
  /// verifies its checksum and retransmits with exponential backoff until
  /// delivered, out of retries, or out of deadline budget. A delivered
  /// upload holds the clean payload; a failed one is restored to the
  /// original payload (what an eventual late retransmission would deliver
  /// — the server routes it into the staleness buffer). Unmarked uploads
  /// take the plain single attempt, as the server does for stragglers.
  /// Outcomes land in `outcomes[u]` when provided. Every attempt charges
  /// messages_sent and bytes_sent; retries also charge retransmit_bytes.
  void transmit_uploads(float* const* uploads, std::size_t n_uploads,
                        std::size_t dim, Rng& rng, ThreadPool* pool,
                        const UploadProtocolConfig* proto = nullptr,
                        const std::uint8_t* reliable_mask = nullptr,
                        UploadOutcome* outcomes = nullptr);

  /// transmit_uploads on the rows of a row-major n_rows x dim matrix, on
  /// the legacy serial stream.
  void transmit_rows(float* rows, std::size_t n_rows, std::size_t dim,
                     Rng& rng);

  /// Channel BER currently in force (the i.i.d. plane; ignored while a
  /// bursty config is active).
  double bit_error_rate() const { return ber_; }

  /// Change the channel BER (fault-scenario control).
  void set_bit_error_rate(double ber);

  /// Arm (or disarm, with cfg.active = false) the bursty/unreliable
  /// plane; validates probabilities and the chunk size.
  void set_bursty(const BurstyChannelConfig& cfg);
  const BurstyChannelConfig& bursty() const { return bursty_; }

  /// Messages transmitted so far.
  std::size_t messages_sent() const { return messages_; }

  /// Total payload bytes transmitted so far (int8 wire format),
  /// retransmissions included.
  std::size_t bytes_sent() const { return bytes_; }

  /// Bits flipped in transit so far.
  std::size_t bits_corrupted() const { return corrupted_; }

  /// Bytes charged by protocol retransmissions (also counted in
  /// bytes_sent — this is the Fig. 6b retry overhead, broken out).
  std::size_t retransmit_bytes() const { return retransmit_bytes_; }

  /// Chunks erased / messages delivered out of order by the burst plane.
  std::size_t chunks_erased() const { return chunks_erased_; }
  std::size_t messages_reordered() const { return reordered_; }

  /// The persistent transmit sequence number keying the burst plane's
  /// per-message derived streams. Unlike the cost counters it is
  /// timeline state: the engine persists it in TrainingState so a
  /// restored campaign replays the same channel weather.
  std::uint64_t transmit_seq() const { return seq_; }
  void set_transmit_seq(std::uint64_t seq) { seq_ = seq; }

  /// Reset the cost/corruption counters (transmit_seq is timeline state,
  /// not a counter, and is left alone).
  void reset_counters();

 private:
  /// Per-message scratch for the burst plane and the retry protocol.
  /// Fleet lanes each own one, so transmits on distinct lanes never
  /// share mutable state.
  struct RowScratch {
    std::vector<std::uint8_t> chunk_bad;
    std::vector<std::uint8_t> chunk_lost;
    std::vector<std::size_t> perm;
    std::vector<float> reorder;
    std::vector<float> orig;
  };

  /// Cost/corruption counters accumulated lane-locally during a call and
  /// folded into the channel totals after it — size_t sums are
  /// associative, so the totals are lane-count invariant.
  struct LaneCounters {
    std::size_t messages = 0;
    std::size_t bytes = 0;
    std::size_t corrupted = 0;
    std::size_t retransmit_bytes = 0;
    std::size_t chunks_erased = 0;
    std::size_t reordered = 0;
  };

  /// One message attempt: counters/bytes accounting plus the plane
  /// dispatch (burst plane, i.i.d. flips, or clean). I.i.d. flips draw
  /// from `serial_noise` when it is non-null (the legacy advancing
  /// stream), else from a noise stream derived off `base` and keyed by
  /// (seq, attempt). Burst-plane streams are always derived: attempt 0
  /// keys them by (tag, kind, seq), retry attempt k > 0 by
  /// (tag, kind, seq, k).
  void transmit_message(float* row, std::size_t dim, const Rng& base,
                        Rng* serial_noise, std::uint64_t seq,
                        std::uint64_t attempt, RowScratch& scratch,
                        LaneCounters& cnt) const;

  /// One message through the non-degenerate burst plane: weather/erasure/
  /// reorder from the state stream, flips from the noise stream.
  void transmit_bursty(float* row, std::size_t dim, const Rng& base,
                       std::uint64_t seq, std::uint64_t attempt,
                       RowScratch& scratch, LaneCounters& cnt) const;

  double ber_;
  BurstyChannelConfig bursty_;
  std::size_t messages_ = 0;
  std::size_t bytes_ = 0;
  std::size_t corrupted_ = 0;
  std::size_t retransmit_bytes_ = 0;
  std::size_t chunks_erased_ = 0;
  std::size_t reordered_ = 0;
  std::uint64_t seq_ = 0;
  // Per-lane scratch and counter blocks (grow-only across calls; the
  // serial stream uses lane 0) and transmit_rows' row-pointer table.
  std::vector<RowScratch> lane_scratch_;
  std::vector<LaneCounters> lane_counters_;
  std::vector<float*> row_ptrs_;
};

}  // namespace frlfi
