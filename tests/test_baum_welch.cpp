// Tests for Baum-Welch EM training (hmm/baum_welch.h).

#include "hmm/baum_welch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <string>
#include <typeinfo>

#include "hmm/forward_backward.h"
#include "hmm_test_util.h"

// Replacement global operator new/delete, counting allocations inside the
// window FitAllocationsDoNotScaleWithEpochs opens. Every form goes through
// malloc/free, so new/delete pairs stay matched under sanitizers too.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_malloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

// Out of line so GCC does not inline free() into delete-expressions and
// flag it as mismatched with the new-expression's operator new.
[[gnu::noinline]] void free_block(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { free_block(p); }
void operator delete[](void* p) noexcept { free_block(p); }
void operator delete(void* p, std::size_t) noexcept { free_block(p); }
void operator delete[](void* p, std::size_t) noexcept { free_block(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { free_block(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { free_block(p); }

namespace cs2p {
namespace {

using testing_support::sample_sequence;
using testing_support::two_state_model;

// A direct, allocating transcription of the fit: k-means++ initialisation,
// forward/backward over per-step Vecs with every density recomputed through
// GaussianHmm::emission_probabilities, then the E and M steps as textbook
// loops. train_hmm must reproduce it bit for bit (this file compiles with
// -ffp-contract=off, like the library's HMM sources).
namespace reference {

GaussianHmm initialize_model(const std::vector<std::vector<double>>& sequences,
                             const BaumWelchConfig& config, Rng& rng) {
  std::vector<double> all;
  for (const auto& seq : sequences) all.insert(all.end(), seq.begin(), seq.end());
  const std::size_t n = config.num_states;
  const std::vector<double> centroids = kmeans_1d(all, n, rng);
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
      const double var = sum_sq[c] / static_cast<double>(count[c]) - mu * mu;
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

ForwardResult forward(const GaussianHmm& model, std::span<const double> obs) {
  const std::size_t n = model.num_states();
  ForwardResult out;
  out.alpha = Matrix(obs.size(), n);
  out.scale.resize(obs.size());
  Vec e = model.emission_probabilities(obs[0]);
  Vec alpha = hadamard(model.initial, e);
  double c = normalize_in_place(alpha);
  out.scale[0] = c > 0.0 ? c : 1e-300;
  for (std::size_t i = 0; i < n; ++i) out.alpha(0, i) = alpha[i];
  for (std::size_t t = 1; t < obs.size(); ++t) {
    Vec propagated = vec_mat(alpha, model.transition);
    e = model.emission_probabilities(obs[t]);
    alpha = hadamard(propagated, e);
    c = normalize_in_place(alpha);
    out.scale[t] = c > 0.0 ? c : 1e-300;
    for (std::size_t i = 0; i < n; ++i) out.alpha(t, i) = alpha[i];
  }
  out.log_likelihood = 0.0;
  for (double s : out.scale) out.log_likelihood += std::log(s);
  return out;
}

Matrix backward(const GaussianHmm& model, std::span<const double> obs,
                std::span<const double> scale) {
  const std::size_t n = model.num_states();
  const std::size_t t_len = obs.size();
  Matrix beta(t_len, n);
  for (std::size_t i = 0; i < n; ++i) beta(t_len - 1, i) = 1.0;
  for (std::size_t t = t_len - 1; t-- > 0;) {
    const Vec e = model.emission_probabilities(obs[t + 1]);
    const double c = scale[t + 1] > 0.0 ? scale[t + 1] : 1e-300;
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j)
        sum += model.transition(i, j) * e[j] * beta(t + 1, j);
      beta(t, i) = sum / c;
    }
  }
  return beta;
}

BaumWelchResult train(const std::vector<std::vector<double>>& sequences,
                      const BaumWelchConfig& config) {
  if (config.num_states == 0 || config.num_states > kMaxHmmStates ||
      !(config.min_sigma > 0.0) || !std::isfinite(config.min_sigma) ||
      config.max_iterations <= 0)
    throw std::invalid_argument("reference::train: bad config");
  std::size_t total_obs = 0;
  for (const auto& seq : sequences) {
    for (double w : seq)
      if (!std::isfinite(w)) throw TrainingError("reference::train: non-finite");
    total_obs += seq.size();
  }
  if (total_obs == 0) throw std::invalid_argument("reference::train: empty");

  Rng rng(config.seed);
  const std::size_t n = config.num_states;
  BaumWelchResult result;
  result.model = initialize_model(sequences, config, rng);
  double prev_ll = -std::numeric_limits<double>::infinity();
  for (int iter = 0; iter < config.max_iterations; ++iter) {
    Vec pi_acc(n, 0.0);
    Matrix xi_acc(n, n, config.transition_prior);
    Vec gamma_acc(n, 0.0);
    Vec weighted_sum(n, 0.0);
    Vec weighted_sq(n, 0.0);
    double total_ll = 0.0;
    for (const auto& seq : sequences) {
      if (seq.empty()) continue;
      const ForwardResult fwd = reference::forward(result.model, seq);
      const Matrix beta = reference::backward(result.model, seq, fwd.scale);
      total_ll += fwd.log_likelihood;
      const std::size_t t_len = seq.size();
      for (std::size_t t = 0; t < t_len; ++t) {
        Vec g(n);
        for (std::size_t i = 0; i < n; ++i) g[i] = fwd.alpha(t, i) * beta(t, i);
        normalize_in_place(g);
        for (std::size_t i = 0; i < n; ++i) {
          gamma_acc[i] += g[i];
          weighted_sum[i] += g[i] * seq[t];
          weighted_sq[i] += g[i] * seq[t] * seq[t];
          if (t == 0) pi_acc[i] += g[i];
        }
      }
      for (std::size_t t = 0; t + 1 < t_len; ++t) {
        const Vec e_next = result.model.emission_probabilities(seq[t + 1]);
        Matrix xi(n, n);
        double norm = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const double v = fwd.alpha(t, i) * result.model.transition(i, j) *
                             e_next[j] * beta(t + 1, j);
            xi(i, j) = v;
            norm += v;
          }
        }
        if (norm <= 0.0) continue;
        for (std::size_t i = 0; i < n; ++i)
          for (std::size_t j = 0; j < n; ++j) xi_acc(i, j) += xi(i, j) / norm;
      }
    }

    normalize_in_place(pi_acc);
    result.model.initial = pi_acc;
    for (std::size_t i = 0; i < n; ++i) {
      Vec row(n);
      for (std::size_t j = 0; j < n; ++j) row[j] = xi_acc(i, j);
      normalize_in_place(row);
      for (std::size_t j = 0; j < n; ++j) result.model.transition(i, j) = row[j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (gamma_acc[i] <= 1e-12) continue;
      const double mu = weighted_sum[i] / gamma_acc[i];
      const double var = weighted_sq[i] / gamma_acc[i] - mu * mu;
      result.model.states[i].mean = mu;
      result.model.states[i].sigma =
          std::max(std::sqrt(std::max(var, 0.0)), config.min_sigma);
    }

    result.iterations_run = iter + 1;
    result.final_log_likelihood = total_ll;
    if (!std::isfinite(total_ll)) throw TrainingError("reference::train: diverged");
    const double gain = (total_ll - prev_ll) / static_cast<double>(total_obs);
    if (iter > 0 && gain < config.tolerance) {
      result.converged = true;
      break;
    }
    prev_ll = total_ll;
  }

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
    throw TrainingError(std::string("reference::train: invalid: ") + e.what());
  }
  return result;
}

}  // namespace reference

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Number of fields (parameters and diagnostics) whose bits differ.
std::size_t bit_mismatches(const BaumWelchResult& want, const BaumWelchResult& got) {
  std::size_t bad = 0;
  const GaussianHmm& a = want.model;
  const GaussianHmm& b = got.model;
  if (a.num_states() != b.num_states() || a.initial.size() != b.initial.size() ||
      a.transition.data().size() != b.transition.data().size())
    return 1;
  for (std::size_t i = 0; i < a.num_states(); ++i) {
    bad += !same_bits(a.states[i].mean, b.states[i].mean);
    bad += !same_bits(a.states[i].sigma, b.states[i].sigma);
    bad += !same_bits(a.initial[i], b.initial[i]);
  }
  for (std::size_t k = 0; k < a.transition.data().size(); ++k)
    bad += !same_bits(a.transition.data()[k], b.transition.data()[k]);
  bad += want.iterations_run != got.iterations_run;
  bad += want.converged != got.converged;
  bad += !same_bits(want.final_log_likelihood, got.final_log_likelihood);
  return bad;
}

TEST(Kmeans1d, RecoversSeparatedCentroids) {
  Rng rng(1);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.gaussian(1.0, 0.05));
  for (int i = 0; i < 200; ++i) xs.push_back(rng.gaussian(5.0, 0.05));
  const auto centroids = kmeans_1d(xs, 2, rng);
  ASSERT_EQ(centroids.size(), 2u);
  EXPECT_NEAR(centroids[0], 1.0, 0.1);
  EXPECT_NEAR(centroids[1], 5.0, 0.1);
}

TEST(Kmeans1d, CentroidsAreSorted) {
  Rng rng(2);
  std::vector<double> xs;
  for (int i = 0; i < 300; ++i) xs.push_back(rng.uniform(0.0, 10.0));
  const auto centroids = kmeans_1d(xs, 4, rng);
  EXPECT_TRUE(std::is_sorted(centroids.begin(), centroids.end()));
}

TEST(Kmeans1d, MoreClustersThanPointsDuplicates) {
  Rng rng(3);
  const std::vector<double> xs = {1.0, 1.0, 1.0};
  const auto centroids = kmeans_1d(xs, 5, rng);
  EXPECT_EQ(centroids.size(), 5u);
  for (double c : centroids) EXPECT_DOUBLE_EQ(c, 1.0);
}

TEST(Kmeans1d, ErrorPaths) {
  Rng rng(4);
  EXPECT_THROW(kmeans_1d({}, 2, rng), std::invalid_argument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(kmeans_1d(xs, 0, rng), std::invalid_argument);
}

TEST(BaumWelch, RecoverTwoStateParameters) {
  // Generate data from a known model and check EM finds parameters close to
  // the truth (states are sorted by mean, so indices are comparable).
  const GaussianHmm truth = two_state_model();
  Rng rng(42);
  std::vector<std::vector<double>> sequences;
  for (int s = 0; s < 40; ++s) sequences.push_back(sample_sequence(truth, 80, rng));

  BaumWelchConfig config;
  config.num_states = 2;
  config.max_iterations = 80;
  config.min_sigma = 0.01;
  const BaumWelchResult result = train_hmm(sequences, config);

  EXPECT_NEAR(result.model.states[0].mean, 1.0, 0.1);
  EXPECT_NEAR(result.model.states[1].mean, 5.0, 0.25);
  EXPECT_NEAR(result.model.states[0].sigma, 0.1, 0.05);
  EXPECT_NEAR(result.model.transition(0, 0), 0.9, 0.05);
  EXPECT_NEAR(result.model.transition(1, 1), 0.8, 0.07);
}

TEST(BaumWelch, LikelihoodImprovesOverInitialization) {
  const GaussianHmm truth = testing_support::three_state_model();
  Rng rng(7);
  std::vector<std::vector<double>> sequences;
  for (int s = 0; s < 15; ++s) sequences.push_back(sample_sequence(truth, 60, rng));

  BaumWelchConfig one_iter;
  one_iter.num_states = 3;
  one_iter.max_iterations = 1;
  BaumWelchConfig many_iters = one_iter;
  many_iters.max_iterations = 50;

  const double ll_start = train_hmm(sequences, one_iter).final_log_likelihood;
  const double ll_end = train_hmm(sequences, many_iters).final_log_likelihood;
  EXPECT_GT(ll_end, ll_start);
}

TEST(BaumWelch, ResultIsValidStochasticModel) {
  Rng rng(9);
  const GaussianHmm truth = two_state_model();
  std::vector<std::vector<double>> sequences = {sample_sequence(truth, 50, rng),
                                                sample_sequence(truth, 30, rng)};
  BaumWelchConfig config;
  config.num_states = 4;  // over-parameterised on purpose
  const BaumWelchResult result = train_hmm(sequences, config);
  EXPECT_NO_THROW(result.model.validate(1e-6));
  EXPECT_EQ(result.model.num_states(), 4u);
}

TEST(BaumWelch, StatesSortedByMean) {
  Rng rng(11);
  const GaussianHmm truth = testing_support::three_state_model();
  std::vector<std::vector<double>> sequences = {sample_sequence(truth, 200, rng)};
  BaumWelchConfig config;
  config.num_states = 3;
  const auto result = train_hmm(sequences, config);
  for (std::size_t i = 1; i < 3; ++i)
    EXPECT_LE(result.model.states[i - 1].mean, result.model.states[i].mean);
}

TEST(BaumWelch, SigmaFloorHolds) {
  // Constant observations would collapse variance to zero without a floor.
  std::vector<std::vector<double>> sequences = {
      std::vector<double>(50, 2.0), std::vector<double>(50, 2.0)};
  BaumWelchConfig config;
  config.num_states = 2;
  config.min_sigma = 0.05;
  const auto result = train_hmm(sequences, config);
  for (const auto& state : result.model.states)
    EXPECT_GE(state.sigma, 0.05 - 1e-12);
}

TEST(BaumWelch, SingleStateModel) {
  std::vector<std::vector<double>> sequences = {{1.0, 1.2, 0.8, 1.1, 0.9}};
  BaumWelchConfig config;
  config.num_states = 1;
  const auto result = train_hmm(sequences, config);
  EXPECT_NEAR(result.model.states[0].mean, 1.0, 0.05);
  EXPECT_DOUBLE_EQ(result.model.transition(0, 0), 1.0);
}

TEST(BaumWelch, ShortAndEmptySequencesHandled) {
  std::vector<std::vector<double>> sequences = {{1.0}, {}, {2.0, 2.1, 1.9}};
  BaumWelchConfig config;
  config.num_states = 2;
  EXPECT_NO_THROW(train_hmm(sequences, config));
}

TEST(BaumWelch, ErrorPaths) {
  BaumWelchConfig config;
  config.num_states = 0;
  EXPECT_THROW(train_hmm({{1.0, 2.0}}, config), std::invalid_argument);
  config.num_states = 2;
  EXPECT_THROW(train_hmm({}, config), std::invalid_argument);
  EXPECT_THROW(train_hmm({{}, {}}, config), std::invalid_argument);
}

TEST(BaumWelch, RejectsMisuseAsInvalidArgument) {
  // Caller bugs (bad config) are invalid_argument, distinct from data-driven
  // TrainingError so the engine can quarantine the latter without masking
  // the former.
  BaumWelchConfig config;
  config.num_states = kMaxHmmStates + 1;
  EXPECT_THROW(train_hmm({{1.0, 2.0, 3.0}}, config), std::invalid_argument);

  config = BaumWelchConfig{};
  config.min_sigma = 0.0;
  EXPECT_THROW(train_hmm({{1.0, 2.0, 3.0}}, config), std::invalid_argument);
  config.min_sigma = -1.0;
  EXPECT_THROW(train_hmm({{1.0, 2.0, 3.0}}, config), std::invalid_argument);
  config.min_sigma = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(train_hmm({{1.0, 2.0, 3.0}}, config), std::invalid_argument);

  config = BaumWelchConfig{};
  config.max_iterations = 0;
  EXPECT_THROW(train_hmm({{1.0, 2.0, 3.0}}, config), std::invalid_argument);
}

TEST(BaumWelch, NonFiniteObservationsAreTrainingErrors) {
  BaumWelchConfig config;
  config.num_states = 2;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(train_hmm({{1.0, bad, 2.0}}, config), TrainingError);
  }
}

TEST(BaumWelch, VarianceFloorSurvivesDegenerateData) {
  // All-identical observations drive every per-state variance to zero; the
  // min_sigma floor must keep the fitted model valid instead of collapsing
  // EM into NaN likelihoods.
  BaumWelchConfig config;
  config.num_states = 2;
  config.max_iterations = 25;
  const std::vector<std::vector<double>> constant(6,
                                                  std::vector<double>(8, 3.0));
  const BaumWelchResult result = train_hmm(constant, config);
  EXPECT_NO_THROW(result.model.validate());
  for (const auto& s : result.model.states) {
    EXPECT_GE(s.sigma, config.min_sigma);
    EXPECT_TRUE(std::isfinite(s.mean));
  }
}

TEST(BaumWelch, DeterministicForFixedSeed) {
  Rng rng(13);
  const GaussianHmm truth = two_state_model();
  std::vector<std::vector<double>> sequences = {sample_sequence(truth, 100, rng)};
  BaumWelchConfig config;
  config.num_states = 2;
  const auto a = train_hmm(sequences, config);
  const auto b = train_hmm(sequences, config);
  EXPECT_DOUBLE_EQ(a.final_log_likelihood, b.final_log_likelihood);
  EXPECT_DOUBLE_EQ(a.model.states[0].mean, b.model.states[0].mean);
}

TEST(BaumWelch, FitIsBitIdenticalToReference) {
  Rng rng(2016);
  const GaussianHmm truth = testing_support::three_state_model();
  // Lengths 1, 2 and ~400 mixed, plus an empty sequence the E step skips.
  std::vector<std::vector<double>> mixed;
  for (const std::size_t len : {1, 400, 2, 397, 1, 403, 2, 0, 60})
    mixed.push_back(sample_sequence(truth, len, rng));
  // One epoch ~1e6 Mbps from every state mean: every density underflows, so
  // the forward step resets to uniform with a 1e-300 scale and xi is skipped.
  std::vector<std::vector<double>> outlier = mixed;
  outlier[1][200] = 1e6;
  // Constant sequences: every variance collapses onto the floor.
  const std::vector<std::vector<double>> constant(5, std::vector<double>(40, 3.0));
  // Two distinct values: with more states than values some state starves.
  std::vector<std::vector<double>> two_values;
  for (int s = 0; s < 6; ++s) {
    std::vector<double> seq;
    for (int t = 0; t < 50; ++t) seq.push_back(rng.uniform() < 0.5 ? 1.0 : 4.0);
    two_values.push_back(seq);
  }
  // Squares overflow: EM collapses, and both sides must throw alike.
  std::vector<std::vector<double>> overflow = mixed;
  overflow[3][10] = 1e300;

  const std::vector<std::pair<std::string, std::vector<std::vector<double>>>>
      sets = {{"mixed", mixed},
              {"outlier", outlier},
              {"constant", constant},
              {"two_values", two_values},
              {"overflow", overflow}};
  std::size_t fits = 0;
  for (const auto& [name, sequences] : sets) {
    for (const std::size_t n : {1, 2, 3, 6, 8}) {
      // The default floor, and one below kMinEmissionSigma so the density's
      // own floor binds on collapsed states.
      for (const double min_sigma : {0.05, 5e-4}) {
        BaumWelchConfig config;
        config.num_states = n;
        config.min_sigma = min_sigma;
        config.seed = 17 + n;
        const std::string label = name + " N=" + std::to_string(n) +
                                  " min_sigma=" + std::to_string(min_sigma);
        BaumWelchResult want;
        std::string want_error;
        try {
          want = reference::train(sequences, config);
        } catch (const std::exception& e) {
          want_error = typeid(e).name();
        }
        BaumWelchResult got;
        std::string got_error;
        try {
          got = train_hmm(sequences, config);
        } catch (const std::exception& e) {
          got_error = typeid(e).name();
        }
        EXPECT_EQ(want_error, got_error) << label;
        if (want_error.empty() && got_error.empty()) {
          EXPECT_EQ(bit_mismatches(want, got), 0u) << label;
          ++fits;
        }
      }
    }
  }
  EXPECT_GE(fits, 30u);  // most cases fit; the overflow set may throw
}

TEST(BaumWelch, FitAllocationsDoNotScaleWithEpochs) {
  Rng rng(21);
  const GaussianHmm truth = testing_support::three_state_model();
  std::vector<std::vector<double>> sequences;
  for (int s = 0; s < 10; ++s) sequences.push_back(sample_sequence(truth, 500, rng));
  BaumWelchConfig config;
  config.max_iterations = 5;

  g_allocations.store(0);
  g_count_allocations.store(true);
  const BaumWelchResult result = train_hmm(sequences, config);
  g_count_allocations.store(false);
  const std::size_t allocations = g_allocations.load();

  EXPECT_EQ(result.iterations_run, 5);
  // 5,000 epochs: an E step that allocated per epoch (or per sequence and
  // iteration at this length) would blow through this bound.
  EXPECT_LT(allocations, 5000u) << allocations << " allocations";
}

// Property sweep: training converges and yields valid models across state
// counts (parameterised gtest).
class BaumWelchStateSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BaumWelchStateSweep, TrainsValidModel) {
  Rng rng(100 + GetParam());
  const GaussianHmm truth = testing_support::three_state_model();
  std::vector<std::vector<double>> sequences;
  for (int s = 0; s < 10; ++s) sequences.push_back(sample_sequence(truth, 50, rng));
  BaumWelchConfig config;
  config.num_states = GetParam();
  const auto result = train_hmm(sequences, config);
  EXPECT_NO_THROW(result.model.validate(1e-6));
  EXPECT_GT(result.iterations_run, 0);
  // Held-in likelihood should be finite.
  EXPECT_TRUE(std::isfinite(result.final_log_likelihood));
}

INSTANTIATE_TEST_SUITE_P(StateCounts, BaumWelchStateSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 10));

}  // namespace
}  // namespace cs2p
