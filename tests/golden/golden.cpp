#include "golden/golden.hpp"

#include "core/error.hpp"
#include "fault/injector.hpp"
#include "federated/aggregation.hpp"
#include "numeric/bitutil.hpp"
#include "numeric/quantize.hpp"

namespace frlfi::golden {

ScalarChannel::ScalarChannel(double bit_error_rate) : ber_(bit_error_rate) {
  FRLFI_CHECK_MSG(ber_ >= 0.0 && ber_ <= 1.0, "channel BER " << ber_);
}

void ScalarChannel::set_bursty(const BurstyChannelConfig& cfg) {
  if (!cfg.active) return;
  FRLFI_CHECK_MSG(bursty_degenerate(cfg),
                  "the scalar channel has no burst-plane reference");
  ber_ = cfg.ber_good;
}

std::vector<float> ScalarChannel::transmit(const std::vector<float>& payload,
                                           Rng& rng) {
  ++messages_;
  ++seq_;
  if (payload.empty()) return payload;
  bytes_ += payload.size() + sizeof(float);
  if (ber_ <= 0.0) return payload;

  const Int8Quantizer q = Int8Quantizer::calibrate(payload);
  std::vector<float> out = payload;
  for (auto& v : out) {
    std::uint8_t word = static_cast<std::uint8_t>(q.quantize(v));
    bool touched = false;
    for (int b = 0; b < 8; ++b) {
      if (rng.bernoulli(ber_)) {
        word = static_cast<std::uint8_t>(word ^ (1u << b));
        touched = true;
        ++corrupted_;
      }
    }
    if (touched) v = q.dequantize(static_cast<std::int8_t>(word));
  }
  return out;
}

std::vector<std::vector<float>> smoothing_average(
    const std::vector<std::vector<float>>& uploads, double alpha) {
  const std::size_t n = uploads.size();
  FRLFI_CHECK_MSG(n >= 2, "smoothing_average needs >= 2 agents");
  FRLFI_CHECK_MSG(alpha > 0.0 && alpha < 1.0, "alpha " << alpha);
  const std::size_t dim = uploads[0].size();
  for (const auto& u : uploads)
    FRLFI_CHECK_MSG(u.size() == dim, "parameter size mismatch");

  const float beta =
      static_cast<float>((1.0 - alpha) / static_cast<double>(n - 1));
  const auto alpha_f = static_cast<float>(alpha);

  // sum_j theta_j computed once; each agent's result is
  // alpha*theta_i + beta*(total - theta_i).
  std::vector<float> total(dim, 0.0f);
  for (const auto& u : uploads)
    for (std::size_t d = 0; d < dim; ++d) total[d] += u[d];

  std::vector<std::vector<float>> out(n, std::vector<float>(dim));
  for (std::size_t i = 0; i < n; ++i) {
    const auto& self = uploads[i];
    auto& dst = out[i];
    for (std::size_t d = 0; d < dim; ++d)
      dst[d] = alpha_f * self[d] + beta * (total[d] - self[d]);
  }
  return out;
}

std::vector<std::vector<float>> frozen_scalar_round(
    const std::vector<std::vector<float>>& uploads, ScalarChannel& channel,
    double alpha, Rng& rng, std::vector<float>* consensus_out,
    const std::function<void(std::vector<std::vector<float>>&)>& hook) {
  std::vector<std::vector<float>> up;
  up.reserve(uploads.size());
  for (const auto& p : uploads) up.push_back(channel.transmit(p, rng));
  std::vector<std::vector<float>> agg = smoothing_average(up, alpha);
  if (consensus_out != nullptr) *consensus_out = mean_parameters(agg);
  if (hook) hook(agg);
  std::vector<std::vector<float>> down;
  down.reserve(agg.size());
  for (const auto& p : agg) down.push_back(channel.transmit(p, rng));
  return down;
}

std::size_t flip_bits_ber(std::span<std::uint8_t> bytes, double ber, Rng& rng,
                          FlipDirection direction) {
  FRLFI_CHECK_MSG(ber >= 0.0 && ber <= 1.0, "BER " << ber);
  if (ber == 0.0 || bytes.empty()) return 0;
  std::size_t flipped = 0;
  const std::size_t nbits = bit_count(bytes);
  for (std::size_t i = 0; i < nbits; ++i) {
    if (!rng.bernoulli(ber)) continue;
    const bool current = get_bit(bytes, i);
    if (direction == FlipDirection::ZeroToOne && current) continue;
    if (direction == FlipDirection::OneToZero && !current) continue;
    flip_bit(bytes, i);
    ++flipped;
  }
  return flipped;
}

std::size_t stick_bits_ber(std::span<std::uint8_t> bytes, double ber,
                           bool value, Rng& rng) {
  FRLFI_CHECK_MSG(ber >= 0.0 && ber <= 1.0, "BER " << ber);
  if (ber == 0.0 || bytes.empty()) return 0;
  std::size_t changed = 0;
  const std::size_t nbits = bit_count(bytes);
  for (std::size_t i = 0; i < nbits; ++i) {
    if (!rng.bernoulli(ber)) continue;
    if (get_bit(bytes, i) != value) {
      set_bit(bytes, i, value);
      ++changed;
    }
  }
  return changed;
}

InjectionReport inject_int8(std::span<float> weights, const FaultSpec& spec,
                            Rng& rng, float headroom) {
  FRLFI_CHECK_MSG(headroom >= 1.0f, "headroom " << headroom);
  InjectionReport report;
  if (weights.empty()) return report;
  const Int8Quantizer base = Int8Quantizer::calibrate(
      std::span<const float>(weights.data(), weights.size()));
  const Int8Quantizer q(base.scale() * headroom);
  std::vector<std::int8_t> qs(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) qs[i] = q.quantize(weights[i]);
  auto bytes = std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(qs.data()), qs.size());
  report.bits_total = bit_count(bytes);
  if (spec.burst.length > 1) {
    report.bits_flipped = corrupt_bits_burst(bytes, spec, rng);
  } else if (spec.model == FaultModel::StuckAt0 ||
             spec.model == FaultModel::StuckAt1) {
    report.bits_flipped =
        stick_bits_ber(bytes, spec.ber, spec.model == FaultModel::StuckAt1, rng);
  } else {
    report.bits_flipped = flip_bits_ber(bytes, spec.ber, rng, spec.direction);
  }
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights[i] = q.dequantize(qs[i]);
  return report;
}

InjectionReport inject_fixed_point_reference(std::vector<float>& weights,
                                             const FixedPointFormat& format,
                                             const FaultSpec& spec, Rng& rng) {
  InjectionReport report;
  if (weights.empty()) return report;
  const FixedPointCodec codec(format);
  const int word_bits = format.word_bits();
  report.bits_total = weights.size() * static_cast<std::size_t>(word_bits);
  std::vector<std::uint32_t> words(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i)
    words[i] = codec.encode(weights[i]);
  if (spec.burst.length > 1) {
    report.bits_flipped = corrupt_fixed_words_burst(words, word_bits, spec, rng);
  } else {
    for (std::uint32_t& raw : words) {
      for (int b = 0; b < word_bits; ++b) {
        if (!rng.bernoulli(spec.ber)) continue;
        const bool current = (raw >> b) & 1u;
        const bool flip =
            spec.model == FaultModel::StuckAt0   ? current
            : spec.model == FaultModel::StuckAt1 ? !current
            : spec.direction == FlipDirection::ZeroToOne ? !current
            : spec.direction == FlipDirection::OneToZero ? current
                                                         : true;
        if (!flip) continue;
        raw = codec.flip_bit(raw, b);
        ++report.bits_flipped;
      }
    }
  }
  for (std::size_t i = 0; i < weights.size(); ++i)
    weights[i] = static_cast<float>(codec.decode(words[i]));
  return report;
}

InjectionReport apply_static_inference_fault(
    Network& policy, const InferenceFaultScenario& scenario, Rng& rng) {
  std::vector<float> flat = policy.flat_parameters();
  const InjectionReport report =
      scenario.use_int8
          ? inject_int8(flat, scenario.spec, rng, scenario.int8_headroom)
          : inject_fixed_point_reference(flat, scenario.fixed_format,
                                         scenario.spec, rng);
  policy.set_flat_parameters(flat);
  if (scenario.detector != nullptr) scenario.detector->scan_and_suppress(policy);
  return report;
}

// ------------------------------------------------ serial evaluators ----

EpisodeStats greedy_episode_quant(Network& policy, Environment& env, Rng& rng,
                                  std::size_t max_steps,
                                  const QuantWeightView& qview) {
  FRLFI_CHECK(max_steps >= 1);
  EpisodeStats stats;
  Tensor obs = env.reset(rng);
  for (std::size_t t = 0; t < max_steps; ++t) {
    const std::size_t action = policy.forward_quant(obs, qview).argmax();
    StepResult r = env.step(action, rng);
    stats.total_reward += r.reward;
    ++stats.steps;
    if (r.done) {
      stats.success = r.success;
      return stats;
    }
    obs = std::move(r.observation);
  }
  stats.success = false;
  return stats;
}

EpisodeStats greedy_episode_trans1(Network& policy, Environment& env, Rng& rng,
                                   std::size_t max_steps,
                                   const InferenceFaultScenario& scenario) {
  FRLFI_CHECK(max_steps >= 1);
  // The faulty read strikes at one uniformly chosen step of the episode.
  // Episodes that terminate before that step simply never experience it —
  // matching a fault arriving at a random wall-clock time.
  const std::size_t fault_step =
      static_cast<std::size_t>(rng.uniform_index(max_steps));

  // Int8-native plane: the whole episode executes the deployed image
  // directly, the strike riding a word overlay — the serial golden the
  // batched quant runner reproduces bit-for-bit. Same rng order as the
  // float branch (fault-step draw, reset, strike draw at the fault step).
  if (scenario.mode == InferenceMode::Int8) {
    FRLFI_CHECK_MSG(scenario.use_int8,
                    "InferenceMode::Int8 requires an int8 deployment "
                    "(scenario.use_int8)");
    const DeployedWeights deployed = make_deployed_weights(policy, scenario);
    const QuantWeightView base_view = deployed.quant_view(nullptr);
    EpisodeStats stats;
    Tensor obs = env.reset(rng);
    for (std::size_t t = 0; t < max_steps; ++t) {
      std::size_t action;
      if (t == fault_step) {
        QuantOverlay overlay;
        trans1_strike_overlay_quant(deployed, scenario, rng, overlay);
        const QuantWeightView struck = deployed.quant_view(&overlay);
        action = policy.forward_quant(obs, struck).argmax();
      } else {
        action = policy.forward_quant(obs, base_view).argmax();
      }
      StepResult r = env.step(action, rng);
      stats.total_reward += r.reward;
      ++stats.steps;
      if (r.done) {
        stats.success = r.success;
        return stats;
      }
      obs = std::move(r.observation);
    }
    stats.success = false;
    return stats;
  }

  EpisodeStats stats;
  Tensor obs = env.reset(rng);
  for (std::size_t t = 0; t < max_steps; ++t) {
    std::size_t action;
    if (t == fault_step) {
      WeightRestoreGuard guard(policy);  // restores after the single read
      golden::apply_static_inference_fault(policy, scenario, rng);
      action = policy.forward(obs).argmax();
    } else {
      action = policy.forward(obs).argmax();
    }
    StepResult r = env.step(action, rng);
    stats.total_reward += r.reward;
    ++stats.steps;
    if (r.done) {
      stats.success = r.success;
      return stats;
    }
    obs = std::move(r.observation);
  }
  stats.success = false;
  return stats;
}

}  // namespace frlfi::golden
