// Trace-driven video player simulator (paper §7.1: "a custom simulator
// simulating the video download and playback process and the buffer
// dynamics; the throughput changes according to previously recorded
// traces").
//
// Time model: one chunk per epoch, matching the paper's setup ("the chunk
// size is equal to the epoch length"). Chunk k downloads at the trace's
// epoch-k throughput, held constant within the epoch; past the end of the
// trace the last value holds. This chunk-indexed model keeps the simulator,
// FastMPC's lookahead and the offline-optimal DP on identical dynamics, so
// n-QoE comparisons are apples-to-apples.
//
// Buffer dynamics per chunk k with buffer b_k (seconds of video):
//   download time  d_k = bits(R_k) / throughput_k
//   rebuffer_k     = max(0, d_k - b_k)          (0 for k = 0: startup)
//   b_{k+1}        = max(b_k - d_k, 0) + chunk_seconds, capped at capacity
//                    (the player idles before the next request when full).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "predictors/predictor.h"
#include "qoe/qoe.h"

namespace cs2p {

/// The encoded video (defaults mirror §7.1: the 260-s Envivio DASH test
/// clip, bitrate ladder {350, 600, 1000, 2000, 3000} kbps, 6-s chunks,
/// 30-s buffer).
struct VideoSpec {
  std::vector<double> bitrates_kbps = {350, 600, 1000, 2000, 3000};
  double chunk_seconds = 6.0;
  std::size_t num_chunks = 44;  ///< ~260 s
  double buffer_capacity_seconds = 30.0;
};

/// What an ABR controller sees at each decision point.
struct AbrState {
  std::size_t chunk_index = 0;         ///< chunk being decided (0 = first)
  double buffer_seconds = 0.0;         ///< current buffer occupancy
  int last_bitrate_index = -1;         ///< -1 before the first chunk
  double last_throughput_mbps = 0.0;   ///< measured during previous chunk
  const SessionPredictor* predictor = nullptr;  ///< may be null (e.g. BB)
};

/// Bitrate-adaptation policy. Implementations live in src/abr.
class AbrController {
 public:
  virtual ~AbrController() = default;
  virtual std::string name() const = 0;

  /// Returns the bitrate-ladder index for the chunk described by `state`.
  /// Must be < video.bitrates_kbps.size().
  virtual std::size_t select_bitrate(const AbrState& state,
                                     const VideoSpec& video) = 0;

  /// Called when a new session starts (controllers may keep state).
  virtual void reset() {}
};

/// Throughput trace with hold-last-value extension.
class ThroughputTrace {
 public:
  explicit ThroughputTrace(std::vector<double> epochs_mbps);

  /// Throughput (Mbps) governing chunk `k`'s download.
  double at(std::size_t k) const noexcept;
  std::size_t length() const noexcept { return epochs_mbps_.size(); }
  const std::vector<double>& samples() const noexcept { return epochs_mbps_; }

 private:
  std::vector<double> epochs_mbps_;
};

/// Simulates one playback. `predictor` may be null for predictor-free
/// controllers; when present, it is fed the measured per-chunk throughput
/// after each download, exactly like a real player integration (§5.3).
PlaybackResult simulate_playback(const VideoSpec& video, const ThroughputTrace& trace,
                                 AbrController& controller,
                                 SessionPredictor* predictor);

}  // namespace cs2p
