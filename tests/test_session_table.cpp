// SessionTable: sharded session state of the serving core (net/session_table.h).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "net/session_table.h"
#include "obs/metrics.h"

namespace cs2p {
namespace {

using Clock = SessionTable::Clock;

SessionTable::Entry bare_entry(Clock::time_point last_used, bool traced = false) {
  SessionTable::Entry entry;
  entry.last_used = last_used;
  entry.traced = traced;
  return entry;
}

/// Runs `fn(entry)` on one session through with_sessions; false when the
/// session is unknown.
template <typename Fn>
bool with_one(SessionTable& table, std::uint64_t id, Fn&& fn) {
  bool found = false;
  const std::uint64_t ids[] = {id};
  table.with_sessions(ids, [&](std::span<SessionTable::Entry* const> entries) {
    if (entries[0] == nullptr) return;
    found = true;
    fn(*entries[0]);
  });
  return found;
}

TEST(SessionTable, EmplaceWithSessionErase) {
  SessionTable table({.shards = 4, .ttl_ms = 0});
  const auto now = Clock::now();

  const std::uint64_t id = table.emplace([&](std::uint64_t) {
    return bare_entry(now, /*traced=*/true);
  });
  EXPECT_GE(id, 1u);
  EXPECT_EQ(table.size(), 1u);

  bool saw = false;
  EXPECT_TRUE(with_one(table, id, [&](SessionTable::Entry& entry) {
    saw = entry.traced;
    entry.last_used = now;
  }));
  EXPECT_TRUE(saw);
  EXPECT_FALSE(with_one(table, id + 999, [](SessionTable::Entry&) {}));

  bool traced = false;
  EXPECT_TRUE(table.erase(id, &traced));
  EXPECT_TRUE(traced);
  EXPECT_FALSE(table.erase(id));
  EXPECT_EQ(table.size(), 0u);
}

TEST(SessionTable, IdsAreUniqueAcrossThreads) {
  SessionTable table({.shards = 8, .ttl_ms = 0});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i)
        ids[t].push_back(table.emplace(
            [](std::uint64_t) { return bare_entry(Clock::now()); }));
    });
  }
  for (auto& t : threads) t.join();

  std::set<std::uint64_t> unique;
  for (const auto& batch : ids) unique.insert(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(table.size(), unique.size());
  EXPECT_GE(*unique.begin(), 1u);
}

TEST(SessionTable, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SessionTable({.shards = 1}).shard_count(), 1u);
  EXPECT_EQ(SessionTable({.shards = 3}).shard_count(), 4u);
  EXPECT_EQ(SessionTable({.shards = 16}).shard_count(), 16u);
  EXPECT_EQ(SessionTable({.shards = 0}).shard_count(), 16u);  // 0 = default
}

// The satellite guarantee: with 10k expired sessions in the table, no single
// eviction lock hold scans anywhere near the whole table — each hold is
// bounded by evict_scan_budget (plus at most one hash-bucket chain, since a
// hold finishes the bucket it started), while repeated ticks still drain
// every expired entry.
TEST(SessionTable, EvictionIsIncrementalOverTenThousandExpired) {
  constexpr std::size_t kSessions = 10'000;
  constexpr std::size_t kBudget = 64;
  SessionTable table({.shards = 8, .ttl_ms = 1'000, .evict_scan_budget = kBudget});

  const auto now = Clock::now();
  const auto stale = now - std::chrono::seconds(10);
  for (std::size_t i = 0; i < kSessions; ++i)
    table.emplace([&](std::uint64_t) { return bare_entry(stale); });
  ASSERT_EQ(table.size(), kSessions);

  std::atomic<std::size_t> callback_count{0};
  std::size_t ticks = 0;
  std::size_t total_scanned = 0;
  while (table.size() > 0) {
    const auto stats = table.evict_tick(
        now, [&](std::uint64_t, const SessionTable::Entry&) { ++callback_count; });
    total_scanned += stats.scanned;
    ASSERT_LT(++ticks, 10'000u) << "eviction failed to make progress";
  }

  EXPECT_EQ(callback_count.load(), kSessions);
  EXPECT_GE(total_scanned, kSessions);
  // Amortization held: the worst lock hold examined ~budget entries, not 10k.
  EXPECT_LE(table.max_scanned_in_one_hold(), 2 * kBudget);
  // And it genuinely took many small steps, not one big sweep.
  EXPECT_GT(ticks, kSessions / (kBudget * table.shard_count()) / 2);
}

TEST(SessionTable, RecentlyTouchedEntriesSurviveEviction) {
  SessionTable table({.shards = 2, .ttl_ms = 1'000, .evict_scan_budget = 64});
  const auto now = Clock::now();
  const auto stale = now - std::chrono::seconds(5);

  const std::uint64_t fresh = table.emplace(
      [&](std::uint64_t) { return bare_entry(now); });
  const std::uint64_t expired = table.emplace(
      [&](std::uint64_t) { return bare_entry(stale); });
  const std::uint64_t refreshed = table.emplace(
      [&](std::uint64_t) { return bare_entry(stale); });
  with_one(table, refreshed,
                     [&](SessionTable::Entry& e) { e.last_used = now; });

  for (int i = 0; i < 64 && table.size() > 2; ++i) table.evict_tick(now);

  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(with_one(table, fresh, [](SessionTable::Entry&) {}));
  EXPECT_TRUE(with_one(table, refreshed, [](SessionTable::Entry&) {}));
  EXPECT_FALSE(with_one(table, expired, [](SessionTable::Entry&) {}));
}

// Arena lifetime rules (DESIGN.md §16): TTL eviction returns slots to the
// shard freelists, a same-size refill reuses them without growing the arena,
// and a reused slot carries nothing of its previous occupant — the entry is
// reset at release time, so stale predictor beliefs cannot leak into a new
// session that happens to land on the same slot.
TEST(SessionTable, ArenaSlotsReusedAfterEvictWithoutStaleState) {
  constexpr std::size_t kSessions = 500;
  // One shard: freelists are per-shard, so with a single shard a same-size
  // refill must reuse exactly the evicted generation's slots.
  SessionTable table({.shards = 1, .ttl_ms = 1'000, .evict_scan_budget = 64});
  const auto now = Clock::now();
  const auto stale = now - std::chrono::seconds(10);

  for (std::size_t i = 0; i < kSessions; ++i)
    table.emplace([&](std::uint64_t) {
      auto entry = bare_entry(stale, /*traced=*/true);
      entry.start_hour = 13.0;
      entry.observations = {1.0, 2.0, 3.0};
      return entry;
    });
  const std::size_t high_water = table.arena_slots();
  EXPECT_GE(high_water, kSessions);

  std::size_t ticks = 0;
  while (table.size() > 0) {
    table.evict_tick(now);
    ASSERT_LT(++ticks, 10'000u);
  }
  // Eviction freed the slots but not the arena: capacity is retained.
  EXPECT_EQ(table.arena_slots(), high_water);

  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < kSessions; ++i)
    ids.push_back(table.emplace([&](std::uint64_t) {
      return bare_entry(now);  // untraced, no history
    }));
  // Every new session landed on a recycled slot — zero arena growth.
  EXPECT_EQ(table.arena_slots(), high_water);
  // And none of them inherited the evicted generation's state.
  for (const std::uint64_t id : ids) {
    ASSERT_TRUE(with_one(table, id, [&](SessionTable::Entry& entry) {
      EXPECT_FALSE(entry.traced);
      EXPECT_EQ(entry.start_hour, 0.0);
      EXPECT_TRUE(entry.observations.empty());
      EXPECT_EQ(entry.predictor, nullptr);
      EXPECT_EQ(entry.owner, nullptr);
    }));
  }
}

// with_sessions: the lane executor's multi-session lookup locks each
// involved shard once, hands back entries in id order, reports misses as
// null, and resolves a repeated id to the same entry.
TEST(SessionTable, WithSessionsResolvesHitsAndMissesInOrder) {
  SessionTable table({.shards = 4, .ttl_ms = 0});
  const auto now = Clock::now();
  const std::uint64_t a =
      table.emplace([&](std::uint64_t) { return bare_entry(now, true); });
  const std::uint64_t b =
      table.emplace([&](std::uint64_t) { return bare_entry(now, false); });
  const std::uint64_t gone =
      table.emplace([&](std::uint64_t) { return bare_entry(now); });
  ASSERT_TRUE(table.erase(gone));

  const std::uint64_t ids[] = {b, gone, a, b};
  bool ran = false;
  table.with_sessions(ids, [&](std::span<SessionTable::Entry* const> entries) {
    ran = true;
    ASSERT_EQ(entries.size(), 4u);
    ASSERT_NE(entries[0], nullptr);
    EXPECT_FALSE(entries[0]->traced);
    EXPECT_EQ(entries[1], nullptr);
    ASSERT_NE(entries[2], nullptr);
    EXPECT_TRUE(entries[2]->traced);
    EXPECT_EQ(entries[3], entries[0]);
    entries[0]->last_used = now;  // writable under the shard locks
  });
  EXPECT_TRUE(ran);
}

TEST(SessionTable, TtlDisabledNeverEvicts) {
  SessionTable table({.shards = 2, .ttl_ms = 0});
  const auto stale = Clock::now() - std::chrono::hours(24);
  for (int i = 0; i < 100; ++i)
    table.emplace([&](std::uint64_t) { return bare_entry(stale); });
  const auto stats = table.evict_tick(Clock::now());
  EXPECT_EQ(stats.scanned, 0u);
  EXPECT_EQ(stats.evicted, 0u);
  EXPECT_EQ(table.size(), 100u);
}

TEST(SessionTable, RegistersPerShardContentionCounters) {
  obs::MetricsRegistry registry;
  SessionTable table({.shards = 4, .ttl_ms = 0}, &registry);
  EXPECT_EQ(registry.series_count(), 4u);
  const std::string scrape = registry.scrape();
  EXPECT_NE(scrape.find("cs2p_server_session_shard_contention_total{shard=\"0\"}"),
            std::string::npos);
  EXPECT_NE(scrape.find("cs2p_server_session_shard_contention_total{shard=\"3\"}"),
            std::string::npos);
}

// Hammer one table from several threads (emplace + touch + erase + evict) so
// TSan gets a fair shot at the shard locking.
TEST(SessionTable, SurvivesConcurrentMutationAndEviction) {
  SessionTable table({.shards = 4, .ttl_ms = 50, .evict_scan_budget = 32});
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> touched{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      std::vector<std::uint64_t> mine;
      for (int i = 0; i < 300; ++i) {
        mine.push_back(table.emplace(
            [](std::uint64_t) { return bare_entry(Clock::now()); }));
        for (const std::uint64_t id : mine)
          if (with_one(table, id, [&](SessionTable::Entry& e) {
                e.last_used = Clock::now();
              }))
            touched.fetch_add(1, std::memory_order_relaxed);
        if (mine.size() > 8) {
          table.erase(mine.front());
          mine.erase(mine.begin());
        }
      }
      for (const std::uint64_t id : mine) table.erase(id);
    });
  }
  std::thread evictor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      table.evict_tick(Clock::now());
      std::this_thread::yield();
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  evictor.join();

  EXPECT_GT(touched.load(), 0u);
  // Whatever survived the churn is eventually evictable.
  const auto later = Clock::now() + std::chrono::seconds(1);
  for (int i = 0; i < 1'000 && table.size() > 0; ++i) table.evict_tick(later);
  EXPECT_EQ(table.size(), 0u);
}

}  // namespace
}  // namespace cs2p
