// Linear QoE model of Yin et al. [47], used verbatim by the paper (§7.1).
//
//   QoE = sum_k q(R_k)                         (average video quality)
//       - lambda * sum_k |q(R_{k+1}) - q(R_k)| (quality variation)
//       - mu     * sum_k rebuffer_k            (total rebuffer time)
//       - mu_s   * startup_delay               (startup penalty)
//
// with q(R) = R (identity in kbps). The paper sets lambda = 1 and
// mu = 3000 following [47]'s QoE_lin. The exact mu_s is illegible in the
// paper source; we default it to 300 (startup delay tolerated an order of
// magnitude more than midstream stalls, consistent with QoE measurement
// studies) — with mu_s = mu, starting at the lowest rung strictly dominates
// and initial bitrate selection could never help QoE, contradicting the
// paper's own Table 1 motivation. All weights are knobs.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace cs2p {

/// QoE weighting parameters.
struct QoeParams {
  double lambda = 1.0;  ///< quality-variation weight
  double mu = 3000.0;   ///< rebuffer penalty per second (kbps-equivalent)
  double mu_s = 300.0;  ///< startup-delay penalty per second
};

/// Per-chunk telemetry emitted by the player simulator.
struct ChunkRecord {
  double bitrate_kbps = 0.0;
  double rebuffer_seconds = 0.0;  ///< stall time incurred downloading it
  double download_seconds = 0.0;
  double predicted_throughput_mbps = 0.0;
  double actual_throughput_mbps = 0.0;
  /// serve_flags:: bits of the predictor when this chunk's forecast was
  /// made (0 = primary model; see predictors/predictor.h).
  unsigned serve_flags = 0;
};

/// Full session outcome.
struct PlaybackResult {
  std::vector<ChunkRecord> chunks;
  double startup_delay_seconds = 0.0;
  /// Chunks whose forecast was served off the primary path (any non-zero
  /// serve_flags: guardrail fallback, drifted cluster, global model,
  /// client-side fallback).
  std::size_t degraded_chunks = 0;
};

/// QoE score plus its components (the paper reports AvgBitrate and GoodRatio
/// separately in §7.5).
struct QoeBreakdown {
  double total = 0.0;
  double quality_sum_kbps = 0.0;
  double switching_penalty_kbps = 0.0;
  double rebuffer_seconds = 0.0;
  double startup_seconds = 0.0;
  double avg_bitrate_kbps = 0.0;   ///< AvgBitrate metric
  double good_ratio = 0.0;         ///< fraction of chunks with no rebuffering
  std::size_t num_switches = 0;
};

/// Scores a playback under the linear QoE model.
QoeBreakdown compute_qoe(const PlaybackResult& playback, const QoeParams& params = {});

/// Direct form used by the offline-optimal DP: bitrates + rebuffer times.
double qoe_from_series(std::span<const double> bitrates_kbps,
                       std::span<const double> rebuffer_seconds,
                       double startup_delay_seconds, const QoeParams& params = {});

}  // namespace cs2p
