// Baum-Welch (EM) training for Gaussian HMMs over multiple sequences.
//
// The paper trains one HMM per session cluster on all throughput sequences
// of the cluster's sessions (§5.2, "Offline training"). This implementation
// supports multi-sequence EM with Rabiner scaling, k-means++ initialisation
// of emission means, and sigma flooring to avoid variance collapse.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "hmm/model.h"
#include "util/rng.h"

namespace cs2p {

/// EM failed to produce a valid model: non-finite observations reached the
/// E step, the log-likelihood diverged to NaN/Inf (numerical collapse), or
/// the fitted parameters do not validate. Distinct from std::invalid_argument
/// (caller misuse: empty input, bad config) so callers can quarantine a bad
/// training *run* without masking programming errors.
class TrainingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Training configuration.
struct BaumWelchConfig {
  std::size_t num_states = 6;     ///< N (paper uses 6 after cross-validation)
  int max_iterations = 60;        ///< EM iteration cap
  double tolerance = 1e-4;        ///< stop when log-likelihood gain/obs < tol
  double min_sigma = 0.05;        ///< variance floor: emission sigma >= this (Mbps), must be > 0
  double transition_prior = 1e-2; ///< Dirichlet-like smoothing of P rows
  std::uint64_t seed = 7;         ///< k-means init seed
};

/// Training result: the model plus convergence diagnostics.
struct BaumWelchResult {
  GaussianHmm model;
  /// log P(sequences | theta) for the parameters that entered the last
  /// iteration, computed by its E step before its M step — not the score of
  /// the returned `model`, which is one M step further on.
  double final_log_likelihood = 0.0;
  int iterations_run = 0;
  bool converged = false;
};

/// Trains a Gaussian HMM on `sequences` (each a session's per-epoch
/// throughput series). Sequences shorter than 2 observations are ignored for
/// transition statistics but still inform emissions. Throws
/// std::invalid_argument on caller misuse (no observations,
/// config.num_states == 0, non-positive/non-finite sigma floor) and
/// TrainingError when EM itself fails (non-finite observation, diverged
/// log-likelihood, invalid fitted parameters) — the result is always a
/// model that passes GaussianHmm::validate.
BaumWelchResult train_hmm(const std::vector<std::vector<double>>& sequences,
                          const BaumWelchConfig& config);

/// k-means++ clustering of scalar observations; exposed for tests and for
/// initialising state means. Returns exactly `k` ascending centroids
/// (duplicated observations allowed). Throws on empty input or k == 0.
std::vector<double> kmeans_1d(std::span<const double> xs, std::size_t k, Rng& rng,
                              int iterations = 25);

}  // namespace cs2p
