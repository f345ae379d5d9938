// GHM — Global Hidden Markov Model baseline (paper §7.2).
//
// One HMM trained on all training sequences without session clustering. The
// paper compares CS2P against it to show that a per-cluster HMM is necessary
// ("the prediction accuracy of CS2P outperforms GHM"). Initial prediction is
// the global median, since a global HMM has no cross-session feature signal.
#pragma once

#include "dataset/dataset.h"
#include "hmm/baum_welch.h"
#include "hmm/kernel.h"
#include "predictors/predictor.h"

namespace cs2p {

struct GhmConfig {
  BaumWelchConfig training;          ///< HMM training knobs (N = 6 default)
  std::size_t max_training_sequences = 2000;  ///< subsample bound (EM cost)
  std::uint64_t seed = 23;
};

class GlobalHmmModel final : public PredictorModel {
 public:
  /// Trains one HMM over (a subsample of) all training sessions.
  explicit GlobalHmmModel(const Dataset& training, const GhmConfig& config = {});

  std::string name() const override { return "GHM"; }
  std::unique_ptr<SessionPredictor> make_session(
      const SessionContext& context) const override;
  std::optional<DownloadableModel> downloadable_model(
      const SessionContext& context) const override;

  const GaussianHmm& model() const noexcept { return kernel_->model(); }

 private:
  /// Built once: every session shares it (validation, cached powers).
  std::shared_ptr<const HmmKernel> kernel_;
  double initial_median_ = 0.0;
};

}  // namespace cs2p
