#include "hmm/baum_welch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "hmm/forward_backward.h"
#include "hmm/kernel.h"

namespace cs2p {
namespace {

/// Everything one E step needs beyond its accumulators, allocated once per
/// train_hmm call and sized to the longest sequence, so EM allocates nothing
/// per epoch or per sequence.
struct EStepWorkspace {
  EStepWorkspace(std::size_t n, std::size_t max_len)
      : mu(n), sigma(n), log_sigma(n), emissions(max_len * n),
        alpha(max_len * n), beta(max_len * n), scale(max_len), gamma(n),
        xi(n * n) {}

  /// The current model's hoisted emission constants (hoist_emission_constants).
  std::vector<double> mu, sigma, log_sigma;
  /// T x N tables of the sequence in flight, and its forward scales.
  std::vector<double> emissions, alpha, beta, scale;
  std::vector<double> gamma;  ///< gamma_t, N
  std::vector<double> xi;     ///< xi_t, N x N
};

/// Initialises the model from data: emission means by 1-D k-means++, sigmas
/// from within-cluster spread, near-diagonal transitions (persistence prior
/// matching the paper's observation that states are sticky), uniform pi.
GaussianHmm initialize_model(const std::vector<std::vector<double>>& sequences,
                             const BaumWelchConfig& config, Rng& rng) {
  std::vector<double> all;
  for (const auto& seq : sequences) all.insert(all.end(), seq.begin(), seq.end());

  const std::size_t n = config.num_states;
  const std::vector<double> centroids = kmeans_1d(all, n, rng);

  // Within-cluster standard deviations.
  std::vector<double> sum(n, 0.0), sum_sq(n, 0.0);
  std::vector<std::size_t> count(n, 0);
  for (double x : all) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < n; ++c)
      if (std::abs(x - centroids[c]) < std::abs(x - centroids[best])) best = c;
    sum[best] += x;
    sum_sq[best] += x * x;
    ++count[best];
  }

  GaussianHmm model;
  model.states.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    model.states[c].mean = centroids[c];
    double sigma = config.min_sigma;
    if (count[c] >= 2) {
      const double mu = sum[c] / static_cast<double>(count[c]);
      const double var =
          sum_sq[c] / static_cast<double>(count[c]) - mu * mu;
      sigma = std::sqrt(std::max(var, 0.0));
    }
    model.states[c].sigma = std::max(sigma, config.min_sigma);
  }

  model.initial.assign(n, 1.0 / static_cast<double>(n));
  model.transition = Matrix(n, n, 0.0);
  const double stay = 0.8;
  const double leave = n > 1 ? (1.0 - stay) / static_cast<double>(n - 1) : 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      model.transition(i, j) = (i == j) ? (n > 1 ? stay : 1.0) : leave;
  return model;
}

}  // namespace

std::vector<double> kmeans_1d(std::span<const double> xs, std::size_t k, Rng& rng,
                              int iterations) {
  if (xs.empty()) throw std::invalid_argument("kmeans_1d: empty input");
  if (k == 0) throw std::invalid_argument("kmeans_1d: k must be > 0");

  // k-means++ seeding.
  std::vector<double> centroids;
  centroids.reserve(k);
  centroids.push_back(xs[rng.uniform_index(xs.size())]);
  std::vector<double> dist2(xs.size());
  while (centroids.size() < k) {
    double total = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      double best = std::numeric_limits<double>::max();
      for (double c : centroids) best = std::min(best, (xs[i] - c) * (xs[i] - c));
      dist2[i] = best;
      total += best;
    }
    if (total <= 0.0) {
      // All points coincide with existing centroids; duplicate one.
      centroids.push_back(centroids.back());
      continue;
    }
    centroids.push_back(xs[rng.categorical(dist2)]);
  }

  // Lloyd iterations.
  std::vector<double> sum(k);
  std::vector<std::size_t> count(k);
  for (int it = 0; it < iterations; ++it) {
    std::fill(sum.begin(), sum.end(), 0.0);
    std::fill(count.begin(), count.end(), std::size_t{0});
    for (double x : xs) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < k; ++c)
        if (std::abs(x - centroids[c]) < std::abs(x - centroids[best])) best = c;
      sum[best] += x;
      ++count[best];
    }
    bool moved = false;
    for (std::size_t c = 0; c < k; ++c) {
      if (count[c] == 0) continue;  // keep empty clusters where they are
      const double next = sum[c] / static_cast<double>(count[c]);
      if (std::abs(next - centroids[c]) > 1e-12) moved = true;
      centroids[c] = next;
    }
    if (!moved) break;
  }
  std::sort(centroids.begin(), centroids.end());
  return centroids;
}

BaumWelchResult train_hmm(const std::vector<std::vector<double>>& sequences,
                          const BaumWelchConfig& config) {
  if (config.num_states == 0)
    throw std::invalid_argument("train_hmm: num_states must be > 0");
  if (config.num_states > kMaxHmmStates)
    throw std::invalid_argument("train_hmm: num_states exceeds kMaxHmmStates");
  if (!(config.min_sigma > 0.0) || !std::isfinite(config.min_sigma))
    throw std::invalid_argument(
        "train_hmm: min_sigma (variance floor) must be positive and finite");
  if (config.max_iterations <= 0)
    throw std::invalid_argument("train_hmm: max_iterations must be > 0");
  std::size_t total_obs = 0;
  for (const auto& seq : sequences) {
    for (double w : seq)
      if (!std::isfinite(w))
        throw TrainingError("train_hmm: non-finite observation in input");
    total_obs += seq.size();
  }
  if (total_obs == 0) throw std::invalid_argument("train_hmm: no observations");

  Rng rng(config.seed);
  const std::size_t n = config.num_states;

  BaumWelchResult result;
  result.model = initialize_model(sequences, config, rng);

  std::size_t max_len = 0;
  for (const auto& seq : sequences) max_len = std::max(max_len, seq.size());
  EStepWorkspace ws(n, max_len);

  double prev_ll = -std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    // E step accumulators.
    Vec pi_acc(n, 0.0);
    Matrix xi_acc(n, n, config.transition_prior);  // smoothed
    Vec gamma_acc(n, 0.0);
    Vec weighted_sum(n, 0.0);
    Vec weighted_sq(n, 0.0);
    double total_ll = 0.0;

    hoist_emission_constants(result.model.states, ws.mu.data(),
                             ws.sigma.data(), ws.log_sigma.data());
    const double* p = result.model.transition.data().data();
    double* xi_sum = xi_acc.data().data();
    double* e = ws.emissions.data();
    double* alpha = ws.alpha.data();
    double* beta = ws.beta.data();
    double* g = ws.gamma.data();
    double* xi = ws.xi.data();

    for (const auto& seq : sequences) {
      if (seq.empty()) continue;
      const std::size_t t_len = seq.size();
      // Each (epoch, state) density once; forward, backward and xi all read
      // this table.
      for (std::size_t t = 0; t < t_len; ++t)
        emission_densities(seq[t], ws.mu.data(), ws.sigma.data(),
                           ws.log_sigma.data(), n, e + t * n);
      total_ll += forward_recursion(result.model.initial.data(), p, e, t_len,
                                    n, alpha, ws.scale.data());
      backward_recursion(p, e, ws.scale.data(), t_len, n, beta);

      for (std::size_t t = 0; t < t_len; ++t) {
        const double* a = alpha + t * n;
        // gamma_t and emission statistics.
        for (std::size_t i = 0; i < n; ++i) g[i] = a[i] * beta[t * n + i];
        normalize_belief(g, n);
        const double x = seq[t];
        for (std::size_t i = 0; i < n; ++i) {
          gamma_acc[i] += g[i];
          weighted_sum[i] += g[i] * x;
          weighted_sq[i] += g[i] * x * x;
        }
        if (t == 0)
          for (std::size_t i = 0; i < n; ++i) pi_acc[i] += g[i];
        if (t + 1 == t_len) continue;

        // xi_t(i, j) for transitions.
        const double* e_next = e + (t + 1) * n;
        const double* b_next = beta + (t + 1) * n;
        double norm = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const double v = a[i] * p[i * n + j] * e_next[j] * b_next[j];
            xi[i * n + j] = v;
            norm += v;
          }
        }
        if (norm <= 0.0) continue;
        for (std::size_t k = 0; k < n * n; ++k) xi_sum[k] += xi[k] / norm;
      }
    }

    // M step.
    normalize_in_place(pi_acc);
    result.model.initial = pi_acc;
    for (std::size_t i = 0; i < n; ++i) {
      Vec row(n);
      for (std::size_t j = 0; j < n; ++j) row[j] = xi_acc(i, j);
      normalize_in_place(row);
      for (std::size_t j = 0; j < n; ++j) result.model.transition(i, j) = row[j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (gamma_acc[i] <= 1e-12) continue;  // starving state: keep parameters
      const double mu = weighted_sum[i] / gamma_acc[i];
      const double var = weighted_sq[i] / gamma_acc[i] - mu * mu;
      result.model.states[i].mean = mu;
      result.model.states[i].sigma =
          std::max(std::sqrt(std::max(var, 0.0)), config.min_sigma);
    }

    result.iterations_run = iter + 1;
    result.final_log_likelihood = total_ll;
    // Non-convergence handling: a NaN/Inf likelihood means the E step
    // collapsed (degenerate cluster, all-identical observations past the
    // variance floor). Stop here with a typed error instead of iterating on
    // — and eventually returning — poisoned sufficient statistics.
    if (!std::isfinite(total_ll))
      throw TrainingError(
          "train_hmm: log-likelihood diverged to non-finite (EM collapse)");
    const double gain = (total_ll - prev_ll) / static_cast<double>(total_obs);
    if (iter > 0 && gain < config.tolerance) {
      result.converged = true;
      break;
    }
    prev_ll = total_ll;
  }

  // Keep states sorted by mean so state indices are comparable across models
  // (helps tests and cluster introspection). Requires permuting pi and P.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return result.model.states[a].mean < result.model.states[b].mean;
  });
  GaussianHmm sorted;
  sorted.states.resize(n);
  sorted.initial.resize(n);
  sorted.transition = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    sorted.states[i] = result.model.states[order[i]];
    sorted.initial[i] = result.model.initial[order[i]];
    for (std::size_t j = 0; j < n; ++j)
      sorted.transition(i, j) = result.model.transition(order[i], order[j]);
  }
  result.model = std::move(sorted);
  try {
    result.model.validate(1e-6);
  } catch (const std::invalid_argument& e) {
    throw TrainingError(std::string("train_hmm: fitted model invalid: ") +
                        e.what());
  }
  return result;
}

}  // namespace cs2p
