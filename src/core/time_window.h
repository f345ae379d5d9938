// Time dimension of the session-clustering candidates (paper §5.1).
//
// The paper's candidate time ranges are "last 5/10/30 minutes to 10 hours"
// and "same hour of day in the last 1-7 days". Our datasets span two days
// (day 0 trains, day 1 tests), so rolling look-back windows would reach out
// of the training day; we substitute *time-of-day granularities*: a cluster
// candidate may pool all training sessions, those in the same 6-hour
// daypart, or those in the same 3-hour block. This preserves what the time
// dimension is for — capturing diurnal throughput patterns (peak-hour
// contention) — while staying precomputable. Documented in DESIGN.md.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace cs2p {

/// Time-of-day pooling granularity of a clustering candidate.
enum class TimeGranularity : std::uint8_t {
  kAll = 0,      ///< ignore time of day
  kDaypart,      ///< four 6-hour blocks
  kTriHour,      ///< eight 3-hour blocks
};

inline constexpr std::array<TimeGranularity, 3> all_time_granularities() noexcept {
  return {TimeGranularity::kAll, TimeGranularity::kDaypart, TimeGranularity::kTriHour};
}

constexpr int num_blocks(TimeGranularity g) noexcept {
  switch (g) {
    case TimeGranularity::kAll: return 1;
    case TimeGranularity::kDaypart: return 4;
    case TimeGranularity::kTriHour: return 8;
  }
  return 1;
}

/// Maps an hour of day in [0, 24) to its block under `g`. Other hours clamp:
/// NaN and negative hours to block 0, hours >= 24 to the last block. The
/// clamp compares doubles, so the cast only ever sees an in-range value.
constexpr int block_of(double hour, TimeGranularity g) noexcept {
  const int blocks = num_blocks(g);
  const double block = hour / (24.0 / blocks);
  if (!(block >= 0.0)) return 0;
  if (block >= blocks) return blocks - 1;
  return static_cast<int>(block);
}

constexpr std::string_view time_granularity_name(TimeGranularity g) noexcept {
  switch (g) {
    case TimeGranularity::kAll: return "any-time";
    case TimeGranularity::kDaypart: return "daypart";
    case TimeGranularity::kTriHour: return "3h-block";
  }
  return "?";
}

}  // namespace cs2p
