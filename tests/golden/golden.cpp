#include "golden/golden.hpp"

#include "core/error.hpp"
#include "federated/aggregation.hpp"
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

}  // namespace frlfi::golden
