#include "hmm/model_selection.h"

#include <limits>
#include <stdexcept>

#include "hmm/online_filter.h"
#include "util/error_metrics.h"

namespace cs2p {

double one_step_cv_error(const GaussianHmm& model,
                         const std::vector<std::vector<double>>& sequences) {
  double total = 0.0;
  std::size_t count = 0;
  // One kernel (validation and cached powers) shared by every replay.
  const auto kernel = HmmKernel::create(model);
  for (const auto& seq : sequences) {
    if (seq.size() < 2) continue;
    OnlineHmmFilter filter(kernel);
    filter.observe(seq[0]);
    for (std::size_t t = 1; t < seq.size(); ++t) {
      total += absolute_normalized_error(filter.predict(), seq[t]);
      filter.observe(seq[t]);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

ModelSelectionResult select_state_count(
    const std::vector<std::vector<double>>& sequences,
    const std::vector<std::size_t>& candidate_states, int folds,
    const BaumWelchConfig& base_config) {
  if (sequences.empty())
    throw std::invalid_argument("select_state_count: no sequences");
  if (candidate_states.empty())
    throw std::invalid_argument("select_state_count: no candidates");
  if (folds < 2) throw std::invalid_argument("select_state_count: folds must be >= 2");

  ModelSelectionResult result;
  double best_error = std::numeric_limits<double>::max();

  for (std::size_t n : candidate_states) {
    double fold_error_sum = 0.0;
    int usable_folds = 0;
    for (int f = 0; f < folds; ++f) {
      std::vector<std::vector<double>> train, held_out;
      for (std::size_t i = 0; i < sequences.size(); ++i) {
        if (static_cast<int>(i % static_cast<std::size_t>(folds)) == f)
          held_out.push_back(sequences[i]);
        else
          train.push_back(sequences[i]);
      }
      if (train.empty() || held_out.empty()) continue;
      BaumWelchConfig config = base_config;
      config.num_states = n;
      const BaumWelchResult trained = train_hmm(train, config);
      fold_error_sum += one_step_cv_error(trained.model, held_out);
      ++usable_folds;
    }
    const double score = usable_folds == 0
                             ? std::numeric_limits<double>::max()
                             : fold_error_sum / usable_folds;
    result.scores.push_back({n, score});
    if (score < best_error) {  // strict: ties keep the earlier (smaller) N
      best_error = score;
      result.best_num_states = n;
    }
  }
  return result;
}

}  // namespace cs2p
