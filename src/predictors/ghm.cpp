#include "predictors/ghm.h"

#include <stdexcept>

#include "predictors/hmm_session.h"
#include "util/rng.h"
#include "util/stats.h"

namespace cs2p {

GlobalHmmModel::GlobalHmmModel(const Dataset& training, const GhmConfig& config) {
  if (training.empty()) throw std::invalid_argument("GlobalHmmModel: empty training set");

  std::vector<double> initials;
  for (const auto& s : training.sessions())
    if (!s.throughput_mbps.empty()) initials.push_back(s.initial_throughput());
  if (initials.empty())
    throw std::invalid_argument("GlobalHmmModel: no observations");
  initial_median_ = median(initials);

  // Subsample sequences to bound EM cost on large datasets.
  Rng rng(config.seed);
  std::vector<std::vector<double>> sequences;
  const auto& sessions = training.sessions();
  if (sessions.size() <= config.max_training_sequences) {
    for (const auto& s : sessions)
      if (s.throughput_mbps.size() >= 2) sequences.push_back(s.throughput_mbps);
  } else {
    const auto order = rng.permutation(sessions.size());
    for (std::size_t i = 0;
         i < order.size() && sequences.size() < config.max_training_sequences; ++i) {
      const auto& s = sessions[order[i]];
      if (s.throughput_mbps.size() >= 2) sequences.push_back(s.throughput_mbps);
    }
  }
  if (sequences.empty())
    throw std::invalid_argument("GlobalHmmModel: no usable sequences");
  kernel_ = HmmKernel::create(train_hmm(sequences, config.training).model);
}

std::unique_ptr<SessionPredictor> GlobalHmmModel::make_session(
    const SessionContext&) const {
  return std::make_unique<HmmSessionPredictor>(kernel_, initial_median_);
}

std::optional<DownloadableModel> GlobalHmmModel::downloadable_model(
    const SessionContext&) const {
  return DownloadableModel{initial_median_, true, kernel_->model()};
}

}  // namespace cs2p
