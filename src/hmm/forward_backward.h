// Scaled forward-backward recursion for Gaussian HMMs.
//
// Standard Rabiner-style scaling: at each step the forward variable alpha_t
// is normalised to sum to 1 and the scaling factor c_t is retained, so the
// sequence log-likelihood is sum_t log(c_t) and no underflow occurs on long
// sessions.
//
// One recursion serves every caller: forward(), backward() and
// posterior_marginals() wrap forward_recursion()/backward_recursion(), which
// Baum-Welch's E step also runs on its per-fit workspace. Both read a
// precomputed emission table, so each density is evaluated once per epoch.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hmm/model.h"

namespace cs2p {

/// Scaled forward recursion on flat buffers. `emissions` is the T x N
/// row-major table e(t, i) = f(w_t | x_i) (emission_densities per epoch),
/// `transition` the row-major N x N matrix P. Writes alpha (T x N) and the
/// normalisers c_t (a zero normaliser is stored as 1e-300) and returns
/// sum_t log c_t. Requires t_len >= 1.
double forward_recursion(const double* initial, const double* transition,
                         const double* emissions, std::size_t t_len,
                         std::size_t n, double* alpha, double* scale) noexcept;

/// Scaled backward recursion on the same emission table and the forward
/// scales: beta(t, i) = sum_j P_ij e(t+1, j) beta(t+1, j) / c_{t+1}.
/// Writes beta (T x N). Requires t_len >= 1.
void backward_recursion(const double* transition, const double* emissions,
                        const double* scale, std::size_t t_len, std::size_t n,
                        double* beta) noexcept;

/// Output of the forward pass.
struct ForwardResult {
  Matrix alpha;            ///< T x N, alpha(t, i) = P(X_t = i | w_1..w_t)
  std::vector<double> scale;  ///< c_t, the per-step normalisers
  double log_likelihood = 0.0;
};

/// Output of the backward pass (uses the forward scales).
struct BackwardResult {
  Matrix beta;  ///< T x N, scaled backward variables
};

/// Runs the scaled forward recursion over an observation sequence.
/// Requires a validated model and a non-empty sequence.
ForwardResult forward(const GaussianHmm& model, std::span<const double> obs);

/// Runs the scaled backward recursion (needs the forward scales).
BackwardResult backward(const GaussianHmm& model, std::span<const double> obs,
                        std::span<const double> scale);

/// Sequence log-likelihood log P(w_1..w_T | theta).
double log_likelihood(const GaussianHmm& model, std::span<const double> obs);

/// Posterior state marginals gamma(t, i) = P(X_t = i | w_1..w_T).
Matrix posterior_marginals(const GaussianHmm& model, std::span<const double> obs);

}  // namespace cs2p
