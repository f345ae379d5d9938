#include "hmm/forward_backward.h"

#include <cmath>
#include <stdexcept>

#include "hmm/kernel.h"

namespace cs2p {
namespace {

/// e(t, i) for every epoch of `obs`, T x N row-major.
std::vector<double> emission_table(const GaussianHmm& model,
                                   std::span<const double> obs) {
  const std::size_t n = model.num_states();
  std::vector<double> constants(3 * n);
  double* mu = constants.data();
  double* sigma = mu + n;
  double* log_sigma = sigma + n;
  hoist_emission_constants(model.states, mu, sigma, log_sigma);
  std::vector<double> table(obs.size() * n);
  for (std::size_t t = 0; t < obs.size(); ++t)
    emission_densities(obs[t], mu, sigma, log_sigma, n, table.data() + t * n);
  return table;
}

}  // namespace

double forward_recursion(const double* initial, const double* transition,
                         const double* emissions, std::size_t t_len,
                         std::size_t n, double* alpha, double* scale) noexcept {
  double log_likelihood = 0.0;
  for (std::size_t t = 0; t < t_len; ++t) {
    double* a = alpha + t * n;
    const double* e = emissions + t * n;
    if (t == 0) {
      // alpha_0 = pi .* e(w_0).
      for (std::size_t i = 0; i < n; ++i) a[i] = initial[i] * e[i];
    } else {
      propagate_belief(a - n, transition, n, a);
      for (std::size_t i = 0; i < n; ++i) a[i] *= e[i];
    }
    const double c = normalize_belief(a, n);
    // A zero normaliser means the observation is impossible under every
    // state; normalize_belief already reset alpha to uniform. Use a tiny
    // scale so the log-likelihood reflects the surprise without being -inf.
    scale[t] = c > 0.0 ? c : 1e-300;
    log_likelihood += std::log(scale[t]);
  }
  return log_likelihood;
}

void backward_recursion(const double* transition, const double* emissions,
                        const double* scale, std::size_t t_len, std::size_t n,
                        double* beta) noexcept {
  double* last = beta + (t_len - 1) * n;
  for (std::size_t i = 0; i < n; ++i) last[i] = 1.0;
  for (std::size_t t = t_len - 1; t-- > 0;) {
    const double* e = emissions + (t + 1) * n;
    const double* next = beta + (t + 1) * n;
    double* b = beta + t * n;
    const double c = scale[t + 1] > 0.0 ? scale[t + 1] : 1e-300;
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = transition + i * n;
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) sum += row[j] * e[j] * next[j];
      b[i] = sum / c;
    }
  }
}

ForwardResult forward(const GaussianHmm& model, std::span<const double> obs) {
  if (obs.empty()) throw std::invalid_argument("forward: empty observation sequence");
  const std::size_t n = model.num_states();
  const std::vector<double> emissions = emission_table(model, obs);
  ForwardResult out;
  out.alpha = Matrix(obs.size(), n);
  out.scale.resize(obs.size());
  out.log_likelihood = forward_recursion(
      model.initial.data(), model.transition.data().data(), emissions.data(),
      obs.size(), n, out.alpha.data().data(), out.scale.data());
  return out;
}

BackwardResult backward(const GaussianHmm& model, std::span<const double> obs,
                        std::span<const double> scale) {
  if (obs.empty()) throw std::invalid_argument("backward: empty observation sequence");
  if (scale.size() != obs.size())
    throw std::invalid_argument("backward: scale length mismatch");
  const std::size_t n = model.num_states();
  const std::vector<double> emissions = emission_table(model, obs);
  BackwardResult out;
  out.beta = Matrix(obs.size(), n);
  backward_recursion(model.transition.data().data(), emissions.data(),
                     scale.data(), obs.size(), n, out.beta.data().data());
  return out;
}

double log_likelihood(const GaussianHmm& model, std::span<const double> obs) {
  return forward(model, obs).log_likelihood;
}

Matrix posterior_marginals(const GaussianHmm& model, std::span<const double> obs) {
  const ForwardResult fwd = forward(model, obs);
  const BackwardResult bwd = backward(model, obs, fwd.scale);
  const std::size_t n = model.num_states();
  Matrix gamma(obs.size(), n);
  for (std::size_t t = 0; t < obs.size(); ++t) {
    double* g = gamma.row(t).data();
    for (std::size_t i = 0; i < n; ++i) g[i] = fwd.alpha(t, i) * bwd.beta(t, i);
    normalize_belief(g, n);
  }
  return gamma;
}

}  // namespace cs2p
