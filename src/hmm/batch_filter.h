// Batched HMM inference: advance/predict many sessions sharing one model in
// a single state-matrix walk (DESIGN.md §16).
//
// The scalar filter's per-session cost is dominated by walking P once per
// session. When B sessions share a kernel, staging their beliefs column-major
// (buf[state * B + session]) turns propagation into one pass over P whose
// inner loop is a contiguous span of B lanes — each transition entry is
// loaded once per batch instead of once per session, and the lane loop
// auto-vectorizes.
//
// Numerical contract: observe() is bit-identical to OnlineHmmFilter — the
// per-(session, state) accumulation runs in the same i-ascending order as
// the scalar propagate, emissions use the same expression tree, and the
// degenerate-likelihood boundary (sum <= 0 or non-finite -> uniform reset +
// counted update) is the same branch on the same double. predict() extracts
// from the unnormalized projected mass (normalization is a positive per-lane
// scale): the MLE-state rule is exactly the scalar argmax, and the posterior
// mean divides once at the end, landing within a couple of ulp of the scalar
// result. The equivalence property test (tests/test_batch_filter.cpp) holds
// every observable to 1e-9.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "hmm/kernel.h"
#include "hmm/online_filter.h"

namespace cs2p {

/// Reusable batch workspace. Not thread-safe: one instance per worker
/// thread; scratch buffers grow to the high-water batch width and are
/// reused across calls.
class BatchHmmFilter {
 public:
  BatchHmmFilter() = default;

  /// Advances every filter by one forward step on its observation —
  /// equivalent to filters[b]->observe(observations[b]) for all b, with the
  /// belief/log-likelihood/degenerate-count/observation-count side effects.
  /// Every filter must run on `kernel` (share the same kernel pointer), and
  /// a filter must appear at most once per call (a repeated session has a
  /// sequential dependence a gather/scatter batch cannot honor — the server
  /// runs a repeated session in a later wave).
  void observe(const HmmKernel& kernel,
               std::span<OnlineHmmFilter* const> filters,
               std::span<const double> observations);

  /// out[b] = filters[b]->predict(steps_ahead) without mutating any filter.
  /// Same sharing/uniqueness requirements as observe(); steps_ahead >= 1.
  void predict(const HmmKernel& kernel,
               std::span<const OnlineHmmFilter* const> filters,
               unsigned steps_ahead, std::span<double> out);

 private:
  struct AlignedFree {
    void operator()(double* p) const noexcept;
  };

  /// Ensures the scratch block holds `doubles` and returns its (64-byte
  /// aligned) base. Contents are not preserved across growth — pure scratch.
  double* ensure_scratch(std::size_t doubles);

  /// One cache-line-aligned allocation, carved per call into column-major
  /// staging (element (state x, lane b) at [x * padded_width + b]) plus the
  /// lane-indexed tail scratch (sums / posterior-mean / argmax-value rows).
  /// The lane count is padded to a multiple of 8 so every row starts on a
  /// cache line and the lane loops run whole vectors with no tail.
  std::unique_ptr<double[], AlignedFree> block_;
  std::size_t block_capacity_ = 0;
  std::vector<std::size_t> best_idx_;
};

}  // namespace cs2p
