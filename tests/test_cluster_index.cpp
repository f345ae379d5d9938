// Tests for the Agg(M, s) cluster index (core/cluster_index.h).

#include "core/cluster_index.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "bench/common.h"
#include "dataset/synthetic.h"

namespace cs2p {
namespace {

Session make_session(const std::string& isp, const std::string& city,
                     double hour, std::vector<double> series) {
  Session s;
  s.features = {isp, "AS0", "P0", city, "S0", "Pfx0"};
  s.start_hour = hour;
  s.throughput_mbps = std::move(series);
  return s;
}

constexpr FeatureMask isp_mask() {
  return 1U << static_cast<unsigned>(FeatureId::kIsp);
}
constexpr FeatureMask isp_city_mask() {
  return isp_mask() | (1U << static_cast<unsigned>(FeatureId::kCity));
}

TEST(Candidates, EnumerationCoversAllSubsetsAndWindows) {
  const auto candidates = enumerate_candidates();
  // (2^6 - 1) masks x 3 time granularities.
  EXPECT_EQ(candidates.size(), 63u * 3u);
  // All distinct.
  for (std::size_t i = 0; i < candidates.size(); ++i)
    for (std::size_t j = i + 1; j < candidates.size(); ++j)
      ASSERT_FALSE(candidates[i] == candidates[j]);
}

TEST(Candidates, ToString) {
  EXPECT_EQ(candidate_to_string({isp_city_mask(), TimeGranularity::kDaypart}),
            "ISP+City@daypart");
}

TEST(TimeWindows, BlockBoundaries) {
  EXPECT_EQ(num_blocks(TimeGranularity::kAll), 1);
  EXPECT_EQ(num_blocks(TimeGranularity::kDaypart), 4);
  EXPECT_EQ(num_blocks(TimeGranularity::kTriHour), 8);
  EXPECT_EQ(block_of(0.0, TimeGranularity::kDaypart), 0);
  EXPECT_EQ(block_of(5.99, TimeGranularity::kDaypart), 0);
  EXPECT_EQ(block_of(6.0, TimeGranularity::kDaypart), 1);
  EXPECT_EQ(block_of(23.99, TimeGranularity::kDaypart), 3);
  EXPECT_EQ(block_of(25.0, TimeGranularity::kDaypart), 3);  // clamped
  EXPECT_EQ(block_of(4.0, TimeGranularity::kTriHour), 1);
  // Hours no int can hold clamp like any other out-of-range hour; NaN maps
  // to block 0. Read through a volatile, so the mapping runs at run time,
  // where an unchecked double->int cast of such an hour is undefined.
  const auto block_at = [](double hour, TimeGranularity g) {
    const volatile double at = hour;
    return block_of(at, g);
  };
  EXPECT_EQ(block_at(1e300, TimeGranularity::kDaypart), 3);
  EXPECT_EQ(block_at(-1e300, TimeGranularity::kDaypart), 0);
  EXPECT_EQ(block_at(std::numeric_limits<double>::infinity(),
                     TimeGranularity::kTriHour),
            7);
  EXPECT_EQ(block_at(std::numeric_limits<double>::quiet_NaN(),
                     TimeGranularity::kDaypart),
            0);
}

TEST(CandidateIndex, GroupsByMaskedFeatures) {
  Dataset train;
  train.add(make_session("A", "X", 1.0, {1.0}));
  train.add(make_session("A", "Y", 2.0, {2.0}));
  train.add(make_session("B", "X", 3.0, {3.0}));

  const CandidateIndex by_isp(train, {isp_mask(), TimeGranularity::kAll}, 1);
  EXPECT_EQ(by_isp.num_clusters(), 2u);
  const Cluster* a = by_isp.find(train.sessions()[0].features, 12.0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->size(), 2u);
  EXPECT_DOUBLE_EQ(a->initial_median, 1.5);

  const CandidateIndex by_isp_city(train, {isp_city_mask(), TimeGranularity::kAll},
                                   1);
  EXPECT_EQ(by_isp_city.num_clusters(), 3u);
}

TEST(CandidateIndex, TimeWindowSplitsClusters) {
  Dataset train;
  train.add(make_session("A", "X", 1.0, {1.0}));    // daypart 0
  train.add(make_session("A", "X", 13.0, {3.0}));   // daypart 2
  const CandidateIndex index(train, {isp_mask(), TimeGranularity::kDaypart}, 1);
  EXPECT_EQ(index.num_clusters(), 2u);
  const Cluster* morning = index.find(train.sessions()[0].features, 2.0);
  ASSERT_NE(morning, nullptr);
  EXPECT_EQ(morning->size(), 1u);
  EXPECT_EQ(index.find(train.sessions()[0].features, 7.0), nullptr);
}

TEST(CandidateIndex, SkipsEmptySessions) {
  Dataset train;
  train.add(make_session("A", "X", 1.0, {}));
  const CandidateIndex index(train, {isp_mask(), TimeGranularity::kAll}, 1);
  EXPECT_EQ(index.num_clusters(), 0u);
}

TEST(CandidateIndex, MediansComputedPerCluster) {
  Dataset train;
  train.add(make_session("A", "X", 1.0, {1.0, 3.0}));  // avg 2
  train.add(make_session("A", "X", 2.0, {3.0, 5.0}));  // avg 4
  train.add(make_session("A", "X", 3.0, {5.0, 7.0}));  // avg 6
  const CandidateIndex index(train, {isp_mask(), TimeGranularity::kAll}, 1);
  const Cluster* c = index.find(train.sessions()[0].features, 0.0);
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->initial_median, 3.0);
  EXPECT_DOUBLE_EQ(c->average_median, 4.0);
  EXPECT_DOUBLE_EQ(c->average_dispersion, 2.0 / 4.0);  // IQR([2,4,6]) = 2
}

TEST(ClusterIndex, BuildsAllCandidates) {
  Dataset train;
  train.add(make_session("A", "X", 1.0, {1.0}));
  const ClusterIndex index(train, enumerate_candidates(), 1);
  EXPECT_EQ(index.num_candidates(), 189u);
  EXPECT_EQ(index.index_for(0).num_clusters(), 1u);
}

TEST(ClusterIndex, FindMissReturnsNull) {
  Dataset train;
  train.add(make_session("A", "X", 1.0, {1.0}));
  const CandidateIndex index(train, {isp_mask(), TimeGranularity::kAll}, 1);
  SessionFeatures other = {"Z", "AS0", "P0", "X", "S0", "Pfx0"};
  EXPECT_EQ(index.find(other, 1.0), nullptr);
}

// A bucket below the threshold is dropped whole: its sessions find nothing,
// and the kept buckets are untouched.
TEST(CandidateIndex, DropsBucketsBelowTheThreshold) {
  Dataset train;
  train.add(make_session("A", "X", 1.0, {1.0}));
  train.add(make_session("A", "Y", 2.0, {2.0}));
  train.add(make_session("A", "Z", 3.0, {3.0}));
  train.add(make_session("B", "X", 4.0, {4.0}));
  const CandidateIndex index(train, {isp_mask(), TimeGranularity::kAll}, 2);
  EXPECT_EQ(index.num_clusters(), 1u);
  const Cluster* a = index.find(train.sessions()[0].features, 0.0);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->session_indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(a->initial_median, 2.0);
  EXPECT_EQ(index.find(train.sessions()[3].features, 0.0), nullptr);
  // The key of a dropped bucket is still defined (snapshots and the trainer
  // name clusters by it).
  EXPECT_FALSE(index.bucket_key_for(train.sessions()[3].features, 0.0).empty());
}

// On a real world, every candidate keeps exactly the threshold-1 index's
// buckets at or above the threshold, with the same members and medians.
TEST(ClusterIndex, KeepsExactlyTheBucketsAtOrAboveTheThreshold) {
  SyntheticConfig config = bench::standard_config();
  config.num_sessions = 1000;
  const Dataset train = generate_synthetic_dataset(config).split_by_day(1).first;
  constexpr std::size_t kThreshold = 20;
  const ClusterIndex full(train, enumerate_candidates(), 1);
  const ClusterIndex pruned(train, enumerate_candidates(), kThreshold);
  EXPECT_EQ(pruned.min_cluster_size(), kThreshold);
  ASSERT_EQ(pruned.num_candidates(), full.num_candidates());

  std::size_t kept = 0;
  std::size_t dropped = 0;
  for (std::size_t c = 0; c < full.num_candidates(); ++c) {
    const auto& all = full.index_for(c).clusters();
    const auto& some = pruned.index_for(c).clusters();
    for (const auto& [key, cluster] : some)
      EXPECT_GE(cluster.size(), kThreshold) << c << " " << key;
    std::size_t kept_here = 0;
    for (const auto& [key, cluster] : all) {
      const auto it = some.find(key);
      if (cluster.size() < kThreshold) {
        EXPECT_EQ(it, some.end()) << c << " " << key;
        ++dropped;
        continue;
      }
      ASSERT_NE(it, some.end()) << c << " " << key;
      ++kept_here;
      EXPECT_EQ(it->second.session_indices, cluster.session_indices);
      EXPECT_EQ(it->second.initial_median, cluster.initial_median);
      EXPECT_EQ(it->second.average_median, cluster.average_median);
      EXPECT_EQ(it->second.average_dispersion, cluster.average_dispersion);
    }
    EXPECT_EQ(some.size(), kept_here) << c;  // and no bucket of its own
    kept += kept_here;
  }
  // Both kinds occur, or the comparison above shows nothing.
  EXPECT_GT(kept, 0u);
  EXPECT_GT(dropped, kept);
}

}  // namespace
}  // namespace cs2p
