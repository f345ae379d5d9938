#include "sim/player.h"

#include <algorithm>
#include <stdexcept>

namespace cs2p {

ThroughputTrace::ThroughputTrace(std::vector<double> epochs_mbps)
    : epochs_mbps_(std::move(epochs_mbps)) {
  if (epochs_mbps_.empty())
    throw std::invalid_argument("ThroughputTrace: empty trace");
  for (double w : epochs_mbps_)
    if (!(w > 0.0))
      throw std::invalid_argument("ThroughputTrace: non-positive throughput sample");
}

double ThroughputTrace::at(std::size_t k) const noexcept {
  return epochs_mbps_[std::min(k, epochs_mbps_.size() - 1)];
}

PlaybackResult simulate_playback(const VideoSpec& video, const ThroughputTrace& trace,
                                 AbrController& controller,
                                 SessionPredictor* predictor) {
  if (video.bitrates_kbps.empty() || video.num_chunks == 0 ||
      video.chunk_seconds <= 0.0) {
    throw std::invalid_argument("simulate_playback: malformed video spec");
  }

  controller.reset();
  PlaybackResult result;
  result.chunks.reserve(video.num_chunks);

  double buffer = 0.0;
  int last_bitrate_index = -1;
  double last_throughput = 0.0;

  for (std::size_t k = 0; k < video.num_chunks; ++k) {
    AbrState state;
    state.chunk_index = k;
    state.buffer_seconds = buffer;
    state.last_bitrate_index = last_bitrate_index;
    state.last_throughput_mbps = last_throughput;
    state.predictor = predictor;

    const std::size_t choice = controller.select_bitrate(state, video);
    if (choice >= video.bitrates_kbps.size())
      throw std::out_of_range("simulate_playback: controller chose invalid bitrate");

    const double bitrate_kbps = video.bitrates_kbps[choice];
    const double throughput_mbps = trace.at(k);
    const double chunk_megabits = bitrate_kbps * video.chunk_seconds / 1000.0;
    const double download_seconds = chunk_megabits / throughput_mbps;

    ChunkRecord record;
    record.bitrate_kbps = bitrate_kbps;
    record.download_seconds = download_seconds;
    record.actual_throughput_mbps = throughput_mbps;
    if (predictor != nullptr) {
      record.predicted_throughput_mbps =
          k == 0 ? predictor->predict_initial().value_or(0.0) : predictor->predict(1);
      record.serve_flags = predictor->serve_flags();
      if (record.serve_flags != 0) ++result.degraded_chunks;
    }

    if (k == 0) {
      // First chunk: the wait is startup delay, not rebuffering.
      result.startup_delay_seconds = download_seconds;
      buffer = video.chunk_seconds;
    } else {
      record.rebuffer_seconds = std::max(0.0, download_seconds - buffer);
      buffer = std::max(buffer - download_seconds, 0.0) + video.chunk_seconds;
    }
    buffer = std::min(buffer, video.buffer_capacity_seconds);

    // Feed the measured throughput to the predictor, as the real player
    // reports the last epoch's throughput to the prediction engine (§6).
    if (predictor != nullptr) predictor->observe(throughput_mbps);

    last_bitrate_index = static_cast<int>(choice);
    last_throughput = throughput_mbps;
    result.chunks.push_back(record);
  }
  return result;
}

}  // namespace cs2p
