#include "core/cluster_index.h"

#include <algorithm>

#include "util/parallel.h"
#include "util/stats.h"

namespace cs2p {

std::string candidate_to_string(const CandidateSpec& candidate) {
  std::string out = mask_to_string(candidate.mask);
  out += "@";
  out += time_granularity_name(candidate.window);
  return out;
}

std::vector<CandidateSpec> enumerate_candidates() {
  std::vector<CandidateSpec> out;
  out.reserve((kAllFeaturesMask) * all_time_granularities().size());
  for (FeatureMask mask = 1; mask <= kAllFeaturesMask; ++mask) {
    for (TimeGranularity g : all_time_granularities()) {
      out.push_back({mask, g});
    }
  }
  return out;
}

std::string CandidateIndex::bucket_key(const SessionFeatures& features,
                                       double start_hour) const {
  std::string key = feature_key(features, spec_.mask);
  key += static_cast<char>('0' + block_of(start_hour, spec_.window));
  return key;
}

CandidateIndex::CandidateIndex(const Dataset& training, const CandidateSpec& candidate,
                               std::size_t min_cluster_size)
    : spec_(candidate) {
  const auto& sessions = training.sessions();
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const auto& s = sessions[i];
    if (s.throughput_mbps.empty()) continue;
    clusters_[bucket_key(s.features, s.start_hour)].session_indices.push_back(i);
  }
  std::erase_if(clusters_, [min_cluster_size](const auto& bucket) {
    return bucket.second.size() < min_cluster_size;  // never selectable
  });
  std::vector<double> initials;
  std::vector<double> averages;
  for (auto& [key, cluster] : clusters_) {
    initials.clear();
    averages.clear();
    for (const std::size_t i : cluster.session_indices) {
      initials.push_back(sessions[i].initial_throughput());
      averages.push_back(sessions[i].average_throughput());
    }
    cluster.initial_median = median(initials);
    std::sort(averages.begin(), averages.end());
    cluster.average_median = quantile_sorted(averages, 0.5);
    const double iqr =
        quantile_sorted(averages, 0.75) - quantile_sorted(averages, 0.25);
    cluster.average_dispersion =
        cluster.average_median > 0.0 ? iqr / cluster.average_median : 0.0;
  }
}

const Cluster* CandidateIndex::find(const SessionFeatures& features,
                                    double start_hour) const {
  const auto it = clusters_.find(bucket_key(features, start_hour));
  return it == clusters_.end() ? nullptr : &it->second;
}

ClusterIndex::ClusterIndex(const Dataset& training, std::vector<CandidateSpec> candidates,
                           std::size_t min_cluster_size)
    : training_(&training),
      min_cluster_size_(min_cluster_size),
      candidates_(std::move(candidates)) {
  // Candidate indexes are independent: build them in parallel. Slots are
  // pre-sized so each worker writes a distinct element.
  per_candidate_.resize(candidates_.size());
  parallel_for(candidates_.size(), [&](std::size_t c) {
    per_candidate_[c] = CandidateIndex(training, candidates_[c], min_cluster_size);
  });
}

}  // namespace cs2p
