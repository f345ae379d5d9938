#include "util/rng.h"

#include <cmath>
#include <numbers>

#include "util/hash.h"

namespace cs2p {
namespace {

constexpr std::uint64_t rotl(std::uint64_t v, int k) noexcept {
  return (v << k) | (v >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    s += kSplitMix64Gamma;
    word = mix64(s);
  }
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  // Lemire's unbiased bounded generation.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = -n % n;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::gaussian() noexcept {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double angle = 2.0 * std::numbers::pi * u2;
  cached_gaussian_ = radius * std::sin(angle);
  has_cached_gaussian_ = true;
  return radius * std::cos(angle);
}

double Rng::gaussian(double mean, double sigma) noexcept {
  return mean + sigma * gaussian();
}

double Rng::log_normal(double mu, double sigma) noexcept {
  return std::exp(gaussian(mu, sigma));
}

double Rng::exponential(double lambda) noexcept {
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / lambda;
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::size_t Rng::categorical(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0 || weights.empty()) return weights.empty() ? 0 : weights.size() - 1;
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (target < w) return i;
    target -= w;
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::permutation(std::size_t n) noexcept {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = uniform_index(i);
    std::swap(idx[i - 1], idx[j]);
  }
  return idx;
}

Rng Rng::split() noexcept { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace cs2p
