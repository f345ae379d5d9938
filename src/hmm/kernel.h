// Contiguous SoA inference kernel for a frozen GaussianHmm (DESIGN.md §16).
//
// The paper's deployment argument (§6) is that HMM prediction is "two matrix
// multiplications" per epoch — cheap enough for the request path. Making that
// true at >1M predictions/s requires the per-model constants to live in one
// contiguous, cache-line-aligned block instead of scattered heap nodes:
//
//   mu[n] | sigma[n] | log_sigma[n] | initial[n] | P^1 | P^2 | ... | P^k
//
// so belief propagation (pi · P^tau) and Gaussian emission evaluation are
// tight auto-vectorizable loops over flat arrays. One kernel is built per
// model and shared (read-only) by every session pinned to that model.
//
// Numerical contract: every kernel operation reproduces the historical
// Vec/Matrix path bit-for-bit. Powers are computed with Matrix::pow (the
// same repeated-squaring the filter used before the kernel existed), the
// emission formula mirrors gaussian_log_pdf's expression tree exactly, and
// propagation keeps vec_mat's i-outer/j-inner accumulation order. The kernel
// sources compile with -ffp-contract=off (see src/hmm/CMakeLists.txt) so FMA
// contraction cannot silently split the kernel from that reference.
#pragma once

#include <cstddef>
#include <memory>
#include <span>

#include "hmm/model.h"

namespace cs2p {

// Flat-buffer primitives shared by the kernel and Baum-Welch's E step
// (forward_backward.h), so serving and training evaluate one density and one
// propagation. Compiled with -ffp-contract=off like the rest of the kernel.

/// Hoists gaussian_pdf's per-call constants for each state: mu[i],
/// sigma[i] = max(sigma_i, kMinEmissionSigma) (util/gaussian.h) and
/// log_sigma[i] = log(sigma[i]).
void hoist_emission_constants(std::span<const EmissionState> states, double* mu,
                              double* sigma, double* log_sigma) noexcept;

/// e[i] = N(w; mu[i], sigma[i]^2) for i < n from hoisted constants,
/// bit-identical to gaussian_pdf: its expression tree with the logs
/// precomputed, -0.5*z*z - log(s) - 0.5*log(2 pi), then exp.
void emission_densities(double w, const double* mu, const double* sigma,
                        const double* log_sigma, std::size_t n,
                        double* e) noexcept;

/// out[j] = sum_i in[i] * p[i*n + j] for a row-major n x n `p`, in
/// vec_mat's i-outer/j-inner accumulation order. Requires in[i] >= +0.0
/// (beliefs), which makes the branchless walk equal vec_mat's bit for bit.
void propagate_belief(const double* in, const double* p, std::size_t n,
                      double* out) noexcept;

/// normalize_in_place (util/matrix.h) on a flat buffer: scales v to sum 1,
/// or fills it uniform when the sum is non-positive or non-finite. Returns
/// the pre-normalisation sum.
double normalize_belief(double* v, std::size_t n) noexcept;

class HmmKernel {
 public:
  /// Horizon powers P^1..P^kMaxCachedPowers are precomputed at build time
  /// (subject to the memory cap below); longer horizons fall back to an
  /// on-demand Matrix::pow with identical results.
  static constexpr unsigned kMaxCachedPowers = 16;
  /// Upper bound on the bytes spent caching powers per kernel — a 256-state
  /// model caches fewer horizons rather than megabytes of matrices.
  static constexpr std::size_t kMaxPowerCacheBytes = 256 * 1024;

  /// Validates `model` (same 1e-3 tolerance the filter constructor enforced)
  /// and freezes it into the SoA block. Throws std::invalid_argument on an
  /// invalid model. The result is immutable and safe to share across
  /// threads without synchronization.
  static std::shared_ptr<const HmmKernel> create(GaussianHmm model);

  std::size_t num_states() const noexcept { return n_; }
  const GaussianHmm& model() const noexcept { return model_; }
  unsigned cached_powers() const noexcept { return cached_powers_; }

  const double* mu() const noexcept { return mu_; }
  /// Emission sigmas, floored at kMinEmissionSigma (util/gaussian.h).
  const double* sigma() const noexcept { return sigma_; }
  /// log(sigma()) — the per-state constant of the log-density.
  const double* log_sigma() const noexcept { return log_sigma_; }
  const double* initial() const noexcept { return initial_; }

  /// Row-major P^steps for 1 <= steps <= cached_powers(); nullptr beyond
  /// the cache (callers fall back to propagate_steps / Matrix::pow).
  const double* power(unsigned steps) const noexcept {
    if (steps == 0 || steps > cached_powers_) return nullptr;
    return powers_ + (static_cast<std::size_t>(steps) - 1) * power_stride_;
  }

  /// propagate_belief with `p` one of the cached powers (or any row-major
  /// n x n matrix).
  void propagate(const double* in, const double* p, double* out) const noexcept {
    propagate_belief(in, p, n_, out);
  }

  /// out = in · P^steps, served from the power cache when possible and
  /// Matrix::pow beyond it. Requires steps >= 1.
  void propagate_steps(const double* in, unsigned steps, double* out) const;

  /// e[i] = N(w; mu_i, sigma_i^2), bit-identical to gaussian_pdf.
  void emissions(double w, double* e) const noexcept {
    emission_densities(w, mu_, sigma_, log_sigma_, n_, e);
  }

 private:
  HmmKernel() = default;

  struct AlignedFree {
    void operator()(double* p) const noexcept;
  };

  GaussianHmm model_;
  std::size_t n_ = 0;
  std::size_t power_stride_ = 0;  ///< doubles per cached power (n*n padded)
  unsigned cached_powers_ = 0;
  /// One 64-byte-aligned allocation carved into the sections below.
  std::unique_ptr<double[], AlignedFree> block_;
  const double* mu_ = nullptr;
  const double* sigma_ = nullptr;
  const double* log_sigma_ = nullptr;
  const double* initial_ = nullptr;
  const double* powers_ = nullptr;
};

}  // namespace cs2p
