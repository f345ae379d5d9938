#include "hmm/kernel.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <numbers>
#include <stdexcept>

#include "util/gaussian.h"

namespace cs2p {

namespace {

constexpr std::size_t kAlignDoubles = 8;  // 64 bytes / sizeof(double)

std::size_t round_up(std::size_t n) {
  return (n + kAlignDoubles - 1) / kAlignDoubles * kAlignDoubles;
}

}  // namespace

void hoist_emission_constants(std::span<const EmissionState> states, double* mu,
                              double* sigma, double* log_sigma) noexcept {
  for (std::size_t i = 0; i < states.size(); ++i) {
    mu[i] = states[i].mean;
    // The floor gaussian_log_pdf applies per call, hoisted — log(s) is then
    // a per-state constant.
    sigma[i] = std::max(states[i].sigma, kMinEmissionSigma);
    log_sigma[i] = std::log(sigma[i]);
  }
}

void emission_densities(double w, const double* mu, const double* sigma,
                        const double* log_sigma, std::size_t n,
                        double* e) noexcept {
  // Same expression as gaussian_log_pdf's constant term (folded at compile
  // time on both sides).
  const double half_log_2pi = 0.5 * std::log(2.0 * std::numbers::pi);
  for (std::size_t i = 0; i < n; ++i) {
    const double z = (w - mu[i]) / sigma[i];
    e[i] = std::exp(-0.5 * z * z - log_sigma[i] - half_log_2pi);
  }
}

void propagate_belief(const double* in, const double* p, std::size_t n,
                      double* out) noexcept {
  for (std::size_t j = 0; j < n; ++j) out[j] = 0.0;
  // vec_mat's i-outer/j-inner walk. vec_mat skips in[i] == 0.0 rows; adding
  // the +0.0 products back is bit-identical (belief entries are >= +0.0 and
  // accumulators stay >= +0.0, so x + 0.0*row == x exactly), and the
  // branchless form is what auto-vectorizes.
  for (std::size_t i = 0; i < n; ++i) {
    const double vi = in[i];
    const double* row = p + i * n;
    for (std::size_t j = 0; j < n; ++j) out[j] += vi * row[j];
  }
}

double normalize_belief(double* v, std::size_t n) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += v[i];
  if (sum <= 0.0 || !std::isfinite(sum)) {
    const double uniform = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = uniform;
    return sum;
  }
  for (std::size_t i = 0; i < n; ++i) v[i] /= sum;
  return sum;
}

void HmmKernel::AlignedFree::operator()(double* p) const noexcept {
  ::operator delete[](p, std::align_val_t{64});
}

std::shared_ptr<const HmmKernel> HmmKernel::create(GaussianHmm model) {
  model.validate(1e-3);

  // shared_ptr<HmmKernel> first so the private constructor stays private.
  std::shared_ptr<HmmKernel> kernel(new HmmKernel());
  kernel->model_ = std::move(model);
  const GaussianHmm& m = kernel->model_;
  const std::size_t n = m.states.size();
  kernel->n_ = n;
  kernel->power_stride_ = round_up(n * n);

  // Cache as many horizon powers as the byte budget allows; always at least
  // P^1 (a verbatim copy of the transition matrix).
  const std::size_t per_power_bytes = kernel->power_stride_ * sizeof(double);
  std::size_t affordable = kMaxPowerCacheBytes / std::max<std::size_t>(per_power_bytes, 1);
  kernel->cached_powers_ = static_cast<unsigned>(std::clamp<std::size_t>(
      affordable, 1, kMaxCachedPowers));

  const std::size_t vec_section = round_up(n);
  const std::size_t total = 4 * vec_section +
                            static_cast<std::size_t>(kernel->cached_powers_) *
                                kernel->power_stride_;
  double* block = static_cast<double*>(
      ::operator new[](total * sizeof(double), std::align_val_t{64}));
  kernel->block_.reset(block);
  std::fill(block, block + total, 0.0);

  double* mu = block;
  double* sigma = mu + vec_section;
  double* log_sigma = sigma + vec_section;
  double* initial = log_sigma + vec_section;
  double* powers = initial + vec_section;
  kernel->mu_ = mu;
  kernel->sigma_ = sigma;
  kernel->log_sigma_ = log_sigma;
  kernel->initial_ = initial;
  kernel->powers_ = powers;

  hoist_emission_constants(m.states, mu, sigma, log_sigma);
  std::copy(m.initial.begin(), m.initial.end(), initial);

  // Matrix::pow (repeated squaring) for every cached horizon, so a cached
  // P^tau is the exact double-for-double matrix the scalar filter used to
  // compute per call.
  for (unsigned tau = 1; tau <= kernel->cached_powers_; ++tau) {
    const Matrix p = m.transition.pow(tau);
    double* dst = powers + (static_cast<std::size_t>(tau) - 1) * kernel->power_stride_;
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) dst[i * n + j] = p(i, j);
  }
  return kernel;
}

void HmmKernel::propagate_steps(const double* in, unsigned steps,
                                double* out) const {
  if (steps == 0)
    throw std::invalid_argument("HmmKernel::propagate_steps: steps must be >= 1");
  if (const double* p = power(steps)) {
    propagate(in, p, out);
    return;
  }
  const Matrix p = model_.transition.pow(steps);
  propagate(in, p.data().data(), out);
}

}  // namespace cs2p
