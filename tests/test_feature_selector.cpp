// Tests for the data-driven feature-set selection (core/feature_selector.h).

#include "core/feature_selector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "dataset/synthetic.h"
#include "util/rng.h"

namespace cs2p {
namespace {

/// Builds a training set where throughput is fully determined by the City
/// feature (two cities at far-apart levels), with enough sessions per city
/// to pass the min-cluster-size threshold. The ISP feature is shared, so an
/// ISP-only cluster mixes both levels and predicts poorly.
Dataset city_determined_dataset(std::size_t per_city, double noise_seed = 3.0) {
  Dataset train;
  Rng rng(static_cast<std::uint64_t>(noise_seed));
  std::int64_t id = 0;
  for (const auto& [city, level] :
       std::vector<std::pair<std::string, double>>{{"low-city", 1.0},
                                                   {"high-city", 8.0}}) {
    for (std::size_t i = 0; i < per_city; ++i) {
      Session s;
      s.id = id++;
      s.features = {"ISP0", "AS0", "P0", city, "S0", "Pfx-" + city};
      s.start_hour = rng.uniform(0.0, 24.0);
      const double w = level * (1.0 + rng.uniform(-0.05, 0.05));
      s.throughput_mbps = {w, w, w};
      train.add(s);
    }
  }
  return train;
}

TEST(FeatureSelector, PrefersTheDiscriminativeFeature) {
  const Dataset train = city_determined_dataset(60);
  FeatureSelectorConfig config;
  config.min_cluster_size = 10;
  const ClusterIndex index(train, enumerate_candidates(), config.min_cluster_size);
  const FeatureSelector selector(index, config);

  const SelectionResult result =
      selector.select(train.sessions()[0].features, 12.0);
  ASSERT_NE(result.cluster, nullptr);
  const CandidateSpec chosen = index.candidates()[result.candidate_id];
  // Any usable candidate must include a city-determining feature (City or
  // the per-city prefix); ISP-only candidates mix both levels.
  EXPECT_TRUE(mask_contains(chosen.mask, FeatureId::kCity) ||
              mask_contains(chosen.mask, FeatureId::kClientPrefix))
      << candidate_to_string(chosen);
  EXPECT_LT(result.estimated_error, 0.2);
}

TEST(FeatureSelector, ErrorTableMarksSmallClustersUnusable) {
  const Dataset train = city_determined_dataset(5);  // below threshold
  FeatureSelectorConfig config;
  config.min_cluster_size = 50;
  const ClusterIndex index(train, enumerate_candidates(), config.min_cluster_size);
  const FeatureSelector selector(index, config);
  for (std::size_t c = 0; c < index.num_candidates(); ++c)
    EXPECT_TRUE(std::isinf(selector.error_entry(c, 0)));
}

TEST(FeatureSelector, FallsBackWhenNothingUsable) {
  const Dataset train = city_determined_dataset(5);
  FeatureSelectorConfig config;
  config.min_cluster_size = 50;
  const ClusterIndex index(train, enumerate_candidates(), config.min_cluster_size);
  const FeatureSelector selector(index, config);
  const SelectionResult result =
      selector.select(train.sessions()[0].features, 12.0);
  EXPECT_EQ(result.cluster, nullptr);
}

TEST(FeatureSelector, UnseenFeatureValuesFallBack) {
  const Dataset train = city_determined_dataset(60);
  const ClusterIndex index(train, enumerate_candidates(),
                           FeatureSelectorConfig{}.min_cluster_size);
  const FeatureSelector selector(index, {});
  SessionFeatures alien = {"ISP-never", "AS-never", "P-never", "C-never",
                           "S-never", "Pfx-never"};
  const SelectionResult result = selector.select(alien, 12.0);
  EXPECT_EQ(result.cluster, nullptr);
}

TEST(FeatureSelector, ErrorEntriesReflectClusterQuality) {
  const Dataset train = city_determined_dataset(60);
  FeatureSelectorConfig config;
  config.min_cluster_size = 10;
  const ClusterIndex index(train, enumerate_candidates(), config.min_cluster_size);
  const FeatureSelector selector(index, config);

  // Locate the ISP-only any-time candidate and the City-only any-time one.
  std::size_t isp_only = 0, city_only = 0;
  for (std::size_t c = 0; c < index.num_candidates(); ++c) {
    const auto& spec = index.candidates()[c];
    if (spec.window != TimeGranularity::kAll) continue;
    if (spec.mask == (1U << static_cast<unsigned>(FeatureId::kIsp))) isp_only = c;
    if (spec.mask == (1U << static_cast<unsigned>(FeatureId::kCity))) city_only = c;
  }
  // For any session, the city-only candidate predicts nearly exactly; the
  // ISP-only candidate straddles the two levels.
  double isp_err = 0.0, city_err = 0.0;
  for (std::size_t i = 0; i < train.size(); ++i) {
    isp_err += selector.error_entry(isp_only, i);
    city_err += selector.error_entry(city_only, i);
  }
  EXPECT_LT(city_err, isp_err);
}

// select() hands back the cluster it matched: the one the chosen candidate's
// index finds for the session, null when it regresses to the global model.
TEST(FeatureSelector, SelectReturnsTheMatchedCluster) {
  Dataset train = city_determined_dataset(30);
  Rng rng(11);
  for (std::size_t i = 0; i < 40; ++i) {  // a thin second ISP and city
    Session s;
    s.id = static_cast<std::int64_t>(train.size());
    s.features = {i % 2 ? "ISP1" : "ISP0", "AS1", "P1", "mid-city", "S1", "Pfx-mid"};
    s.start_hour = rng.uniform(0.0, 24.0);
    s.throughput_mbps = {3.0, 3.5, 2.5};
    train.add(s);
  }
  FeatureSelectorConfig config;
  config.min_cluster_size = 10;
  const ClusterIndex index(train, enumerate_candidates(), config.min_cluster_size);
  const FeatureSelector selector(index, config);
  std::size_t matched = 0;
  for (const Session& s : train.sessions()) {
    const SelectionResult result = selector.select(s.features, s.start_hour);
    if (result.cluster == nullptr) continue;
    EXPECT_EQ(result.cluster,
              index.index_for(result.candidate_id).find(s.features, s.start_hour));
    ++matched;
  }
  EXPECT_GT(matched, 0u);
}

// The relaxation rule: a session whose ISP+City pool holds fewer than 5
// training sessions ranks candidates over the first estimation_set_size
// sessions of its ISP's pool, not its city's and not the global slice.
TEST(FeatureSelector, ThinCityRanksAgainstItsIspPool) {
  Dataset train;
  Rng rng(5);
  const auto add = [&](const std::string& isp, const std::string& city, double level) {
    Session s;
    s.id = static_cast<std::int64_t>(train.size());
    s.features = {isp, "AS-" + isp, "P0", city, "S" + std::to_string(s.id % 3),
                  "Pfx-" + city};
    s.start_hour = rng.uniform(0.0, 24.0);
    const double w = level * (1.0 + rng.uniform(-0.2, 0.2));
    s.throughput_mbps = {w, w * 1.1, w * 0.9};
    train.add(s);
  };
  // The global slice (the first sessions) is all ISP-other, so ranking
  // against it would pick from different error rows than ISP-main's pool.
  for (int i = 0; i < 50; ++i) add("ISP-other", "far-city", 9.0);
  for (int i = 0; i < 30; ++i) add("ISP-main", i % 2 ? "city-a" : "city-b", i % 2 ? 1.0 : 4.0);
  for (int i = 0; i < 3; ++i) add("ISP-main", "thin-city", 2.0);
  for (int i = 0; i < 30; ++i) add("ISP-main", "city-c", 6.0);

  FeatureSelectorConfig config;
  config.min_cluster_size = 5;
  config.estimation_set_size = 40;
  const ClusterIndex index(train, enumerate_candidates(), config.min_cluster_size);
  const FeatureSelector selector(index, config);

  const Session& probe = train.sessions()[80];  // the first thin-city session
  ASSERT_EQ(probe.features.city, "thin-city");
  std::vector<std::size_t> est;  // ISP-main's pool, in index order, capped
  for (std::size_t i = 0; i < train.size() && est.size() < config.estimation_set_size; ++i)
    if (train.sessions()[i].features.isp == "ISP-main") est.push_back(i);

  double best = std::numeric_limits<double>::infinity();
  std::size_t best_candidate = 0;
  for (std::size_t c = 0; c < index.num_candidates(); ++c) {
    double sum = 0.0;
    std::size_t usable = 0;
    for (std::size_t i : est) {
      if (std::isinf(selector.error_entry(c, i))) continue;
      sum += selector.error_entry(c, i);
      ++usable;
    }
    if (usable * 4 < est.size() || usable < 3) continue;
    const Cluster* cluster = index.index_for(c).find(probe.features, probe.start_hour);
    if (cluster == nullptr || cluster->size() < config.min_cluster_size) continue;
    const double mean = sum / static_cast<double>(usable);
    if (mean < best) {
      best = mean;
      best_candidate = c;
    }
  }
  ASSERT_TRUE(std::isfinite(best));
  const SelectionResult result = selector.select(probe.features, probe.start_hour);
  ASSERT_NE(result.cluster, nullptr);
  EXPECT_EQ(result.candidate_id, best_candidate)
      << candidate_to_string(index.candidates()[result.candidate_id]) << " vs "
      << candidate_to_string(index.candidates()[best_candidate]);
  EXPECT_EQ(result.estimated_error, best);
}

TEST(FeatureSelector, SelectionIsDeterministic) {
  const Dataset train = city_determined_dataset(40);
  FeatureSelectorConfig config;
  config.min_cluster_size = 10;
  const ClusterIndex index(train, enumerate_candidates(), config.min_cluster_size);
  const FeatureSelector selector(index, config);
  const auto a = selector.select(train.sessions()[3].features, 9.0);
  const auto b = selector.select(train.sessions()[3].features, 9.0);
  EXPECT_EQ(a.cluster, b.cluster);
  EXPECT_EQ(a.candidate_id, b.candidate_id);
}

// The selector runs only on an index that holds exactly the buckets its own
// threshold lets it select.
TEST(FeatureSelector, RefusesAnIndexOfAnotherThreshold) {
  const Dataset train = city_determined_dataset(30);
  const ClusterIndex index(train, enumerate_candidates(), 10);
  FeatureSelectorConfig config;
  config.min_cluster_size = 20;
  EXPECT_THROW(FeatureSelector(index, config), std::invalid_argument);
  config.min_cluster_size = 10;
  const FeatureSelector matching(index, config);
  config.min_cluster_size = 5;
  EXPECT_THROW(FeatureSelector(index, config, matching.error_table()),
               std::invalid_argument);
}

// select() on the pruned index answers what CS2P's rule answers over every
// bucket: rank candidates by mean err over Est(s), then take the first whose
// bucket for s holds at least min_cluster_size sessions. The reference
// below applies that rule to threshold-1 indexes, over the benches' standard
// world at 1,000 sessions, its test day and tuples no training session has.
TEST(FeatureSelector, SelectMatchesTheRuleOverEveryBucket) {
  SyntheticConfig world = bench::standard_config();
  world.num_sessions = 1000;
  const auto split = generate_synthetic_dataset(world).split_by_day(1);
  const Dataset& train = split.first;
  const Dataset& test = split.second;
  std::vector<Session> probes = test.sessions();
  for (std::size_t k = 0; k < 16; ++k) {
    Session unseen = test.sessions()[k * 7 % test.size()];
    const std::string tag = "unseen" + std::to_string(k);
    unseen.features = {tag, tag, tag, tag, tag, tag};
    probes.push_back(unseen);
  }
  for (std::size_t k = 0; k < 16; ++k) {  // a known ISP in a new city
    Session moved = test.sessions()[k * 11 % test.size()];
    moved.features.city = "nowhere" + std::to_string(k);
    probes.push_back(moved);
  }

  const FeatureSelectorConfig config;
  const ClusterIndex index(train, enumerate_candidates(), config.min_cluster_size);
  const FeatureSelector selector(index, config);
  const ClusterIndex full(train, enumerate_candidates(), 1);

  // err(M, s') is +inf exactly where s''s own bucket is below the threshold.
  for (std::size_t c = 0; c < full.num_candidates(); ++c) {
    for (std::size_t i = 0; i < train.size(); ++i) {
      const Session& s = train.sessions()[i];
      const Cluster* bucket = full.index_for(c).find(s.features, s.start_hour);
      const bool usable =
          bucket != nullptr && bucket->size() >= config.min_cluster_size;
      ASSERT_EQ(std::isfinite(selector.error_entry(c, i)), usable) << c << " " << i;
    }
  }

  const auto est_of = [&](const SessionFeatures& features) {
    std::vector<std::size_t> isp_city, isp, first;
    for (std::size_t i = 0; i < train.size(); ++i) {
      const Session& s = train.sessions()[i];
      if (i < config.estimation_set_size) first.push_back(i);
      if (s.throughput_mbps.empty() || s.features.isp != features.isp) continue;
      isp.push_back(i);
      if (s.features.city == features.city) isp_city.push_back(i);
    }
    std::vector<std::size_t>& pool =
        isp_city.size() >= 5 ? isp_city : (!isp.empty() ? isp : first);
    if (pool.size() > config.estimation_set_size)
      pool.resize(config.estimation_set_size);
    return pool;
  };

  std::size_t clustered = 0;
  std::size_t global = 0;
  for (const Session& probe : probes) {
    const std::vector<std::size_t> est = est_of(probe.features);
    std::vector<std::pair<double, std::size_t>> ranking;
    for (std::size_t c = 0; c < full.num_candidates(); ++c) {
      double sum = 0.0;
      std::size_t usable = 0;
      for (const std::size_t i : est) {
        if (std::isinf(selector.error_entry(c, i))) continue;
        sum += selector.error_entry(c, i);
        ++usable;
      }
      if (usable * 4 < est.size() || usable < 3) continue;
      ranking.emplace_back(sum / static_cast<double>(usable), c);
    }
    std::stable_sort(ranking.begin(), ranking.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    const Cluster* want = nullptr;
    std::size_t want_candidate = 0;
    double want_error = std::numeric_limits<double>::infinity();
    for (const auto& [mean_err, c] : ranking) {
      const Cluster* bucket = full.index_for(c).find(probe.features, probe.start_hour);
      if (bucket == nullptr || bucket->size() < config.min_cluster_size) continue;
      want = bucket;
      want_candidate = c;
      want_error = mean_err;
      break;
    }

    const SelectionResult got = selector.select(probe.features, probe.start_hour);
    if (want == nullptr) {
      EXPECT_EQ(got.cluster, nullptr);
      ++global;
      continue;
    }
    ASSERT_NE(got.cluster, nullptr);
    EXPECT_EQ(got.candidate_id, want_candidate);
    EXPECT_EQ(got.estimated_error, want_error);
    EXPECT_EQ(got.cluster->session_indices, want->session_indices);
    ++clustered;
  }
  // Both outcomes occur, or the comparison above shows nothing.
  EXPECT_GT(clustered, 0u);
  EXPECT_GE(global, 16u);  // the unseen tuples at least
}

}  // namespace
}  // namespace cs2p
