// SessionTable: sharded session state of the serving core (net/session_table.h).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/session_table.h"
#include "obs/metrics.h"

namespace cs2p {

// Reaches into a live session's slot, so a test can age its generation
// without reusing the slot 2^32 times. Returns the session's new id.
struct SessionTableTestPeer {
  static std::uint64_t age(SessionTable& table, std::uint64_t id,
                           std::uint32_t generation) {
    SessionTable::Shard& shard = table.shard_of(id);
    const std::scoped_lock lock(shard.mutex);
    SessionTable::Slot& slot = shard.slot(table.slot_index(id));
    slot.id = std::uint64_t{generation} << 32 | static_cast<std::uint32_t>(id);
    return slot.id;
  }
};

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

// Above 2^16 shards the slot half of an id would hold fewer than 2^16 slots,
// and SIZE_MAX (a negative flag cast to size_t) would make rounding up to a
// power of two loop forever: both are refused.
TEST(SessionTable, ShardCountIsCappedAt65536) {
  EXPECT_EQ(SessionTable({.shards = SessionTableConfig::kMaxShards}).shard_count(),
            SessionTableConfig::kMaxShards);
  EXPECT_THROW(SessionTable({.shards = SessionTableConfig::kMaxShards + 1}),
               std::invalid_argument);
  EXPECT_THROW(SessionTable({.shards = std::numeric_limits<std::size_t>::max()}),
               std::invalid_argument);
}

// The satellite guarantee: with 10k expired sessions in the table, no single
// eviction lock hold scans anywhere near the whole table — each hold is
// bounded by evict_scan_budget, while repeated ticks still drain every
// expired entry.
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

// A mass expiry sweeps at the whole table's pace: round-robin placement
// spreads the sessions of two creating threads evenly over the 16 shards, so
// each tick clears up to 16 x 64 slots and 16,384 sessions take 16 ticks. The
// hash placement that slot-addressed ids replaced took 17 (its shards filled
// unevenly); a shard per creating thread took 128.
TEST(SessionTable, MassExpiryFromTwoThreadsSweepsAtTableWidePace) {
  constexpr std::size_t kPerThread = 8'192;
  SessionTable table({.shards = 16, .ttl_ms = 1'000, .evict_scan_budget = 64});
  const auto now = Clock::now();
  const auto stale = now - std::chrono::seconds(10);
  const auto create = [&] {
    for (std::size_t i = 0; i < kPerThread; ++i)
      table.emplace([&](std::uint64_t) { return bare_entry(stale); });
  };
  std::thread first(create);
  std::thread second(create);
  first.join();
  second.join();
  ASSERT_EQ(table.size(), 2 * kPerThread);

  std::size_t ticks = 0;
  while (table.size() > 0 && ticks < 1'000) {
    table.evict_tick(now);
    ++ticks;
  }
  EXPECT_EQ(table.size(), 0u);
  EXPECT_LE(ticks, 17u);
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
      entry.history = std::make_unique<SessionTable::History>(
          SessionTable::History{{}, 13.0, {1.0, 2.0, 3.0}});
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
      EXPECT_EQ(entry.history, nullptr);
      EXPECT_EQ(entry.predictor, nullptr);
      EXPECT_EQ(entry.owner, nullptr);
    }));
  }
}

// The completion hook's identity and history live behind one pointer that
// only a server with the hook fills, so a slot is far smaller than the
// features it would otherwise carry.
TEST(SessionTable, EntryHoldsNoHookFieldsInline) {
  EXPECT_LT(sizeof(SessionTable::Entry), sizeof(SessionFeatures));
  EXPECT_EQ(SessionTable::Entry{}.history, nullptr);
}

// with_sessions: a multi-session lookup (servebench's table replay) locks
// each involved shard once, hands back entries in id order, reports misses
// as null, and resolves a repeated id to the same entry.
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

// Ids are slot addresses (DESIGN.md §12): generation << 32 | slot <<
// shard_bits | shard. One slot reused 10,000 times issues 10,000 ids.
TEST(SessionTable, IdsNeverRepeatAcrossSlotReuse) {
  SessionTable table({.shards = 1, .ttl_ms = 0});
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t id =
        table.emplace([](std::uint64_t) { return bare_entry(Clock::now()); });
    EXPECT_GE(id, std::uint64_t{1} << 32);  // generations start at 1
    ids.insert(id);
    ASSERT_TRUE(table.erase(id));
  }
  EXPECT_EQ(ids.size(), 10'000u);
  EXPECT_EQ(table.arena_slots(), 1u);  // one slot of one slab, reused
}

TEST(SessionTable, StaleGenerationIsUnknown) {
  SessionTable table({.shards = 1, .ttl_ms = 0});
  const auto now = Clock::now();
  const std::uint64_t a = table.emplace([&](std::uint64_t) { return bare_entry(now); });
  ASSERT_TRUE(table.erase(a));
  const std::uint64_t b =
      table.emplace([&](std::uint64_t) { return bare_entry(now, /*traced=*/true); });
  // B took A's slot: the same low 32 bits, the next generation.
  ASSERT_EQ(static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(a));
  ASSERT_EQ(b, a + (std::uint64_t{1} << 32));

  EXPECT_FALSE(with_one(table, a, [](SessionTable::Entry&) {}));
  EXPECT_FALSE(table.erase(a));
  bool traced = false;
  EXPECT_TRUE(with_one(table, b, [&](SessionTable::Entry& e) { traced = e.traced; }));
  EXPECT_TRUE(traced);
  EXPECT_EQ(table.size(), 1u);
}

TEST(SessionTable, MalformedIdsAreUnknown) {
  constexpr std::uint64_t kGeneration = std::uint64_t{1} << 32;
  constexpr int kShardBits = 2;
  SessionTable table({.shards = 4, .ttl_ms = 0});
  const auto make = [](std::uint64_t) { return bare_entry(Clock::now()); };
  const auto round = [&] {  // placement is round-robin: one session per shard
    std::vector<std::uint64_t> ids;
    for (int s = 0; s < 4; ++s) ids.push_back(table.emplace(make));
    return ids;
  };
  // Every shard's slot 0 serves one generation and is freed. A takes shard
  // 0's slot 0 on its second generation, so A - kGeneration was issued once.
  // Shard 1's slot 0 serves a second generation too, then holds OTHER on its
  // third; the other shards fill slot 1.
  for (const std::uint64_t id : round()) ASSERT_TRUE(table.erase(id));
  const std::vector<std::uint64_t> second = round();
  ASSERT_TRUE(table.erase(second[1]));
  const std::vector<std::uint64_t> third = round();
  const std::uint64_t a = second[0];
  const std::uint64_t other = third[1];
  ASSERT_EQ(a, 2 * kGeneration | 0 << kShardBits | 0);
  ASSERT_EQ(other, 3 * kGeneration | 0 << kShardBits | 1);
  ASSERT_EQ(third[0], kGeneration | 1 << kShardBits | 0);

  const auto unknown = [&](std::uint64_t id) {
    return !with_one(table, id, [](SessionTable::Entry&) {}) && !table.erase(id);
  };
  EXPECT_TRUE(unknown(0));
  EXPECT_TRUE(unknown(2 * kGeneration | 2 << kShardBits | 0))
      << "slot index == shard 0's allocated count";
  EXPECT_TRUE(unknown(2 * kGeneration | 0xfffffffcu))
      << "slot index far past the arena";
  EXPECT_TRUE(unknown(2 * kGeneration | 0 << kShardBits | 1))
      << "A's generation and slot in shard 1, whose slot 0 holds another generation";
  EXPECT_TRUE(unknown(a + kGeneration));
  EXPECT_TRUE(unknown(a - kGeneration));
  EXPECT_TRUE(with_one(table, a, [](SessionTable::Entry&) {}));
  EXPECT_TRUE(with_one(table, other, [](SessionTable::Entry&) {}));
  EXPECT_EQ(table.size(), 7u);
}

// A slot whose generation would wrap is retired, never reused, so ids never
// repeat for the table's lifetime.
TEST(SessionTable, GenerationAboutToWrapRetiresItsSlot) {
  EXPECT_EQ(SessionTable::next_generation(0), 1u);  // a fresh slot
  EXPECT_EQ(SessionTable::next_generation(std::uint64_t{7} << 32 | 0x51), 8u);
  EXPECT_EQ(SessionTable::next_generation(std::uint64_t{0xffffffff} << 32 | 0x51), 0u);

  SessionTable table({.shards = 1, .ttl_ms = 0});
  const auto make = [](std::uint64_t) { return bare_entry(Clock::now()); };
  const std::uint64_t last =
      SessionTableTestPeer::age(table, table.emplace(make), 0xffffffffu);
  ASSERT_EQ(last, std::uint64_t{0xffffffff} << 32);  // slot 0, its last generation
  ASSERT_TRUE(with_one(table, last, [](SessionTable::Entry&) {}));
  ASSERT_TRUE(table.erase(last));
  // Slot 0 stays off the freelist, so later sessions take a fresh slot and
  // no id repeats (a reused slot 0 would issue id 0).
  std::set<std::uint64_t> ids{last};
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t id = table.emplace(make);
    EXPECT_EQ(static_cast<std::uint32_t>(id), 1u) << "slot 1";
    EXPECT_TRUE(ids.insert(id).second);
    EXPECT_EQ(table.arena_slots(), 2u);
    ASSERT_TRUE(table.erase(id));
  }
  EXPECT_FALSE(with_one(table, last, [](SessionTable::Entry&) {}));
}

// Placement ignores the creating thread: consecutive sessions land in
// different shards, and every thread finds every session.
TEST(SessionTable, TwoThreadsCreateInDifferentShardsAndFindEachOther) {
  SessionTable table({.shards = 16, .ttl_ms = 0});
  const auto make = [](std::uint64_t) { return bare_entry(Clock::now()); };
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  std::thread([&] { first = table.emplace(make); }).join();
  std::thread([&] { second = table.emplace(make); }).join();
  EXPECT_NE(first & 15, second & 15);
  bool found_second = false;
  bool found_first = false;
  std::thread([&] {
    found_second = with_one(table, second, [](SessionTable::Entry&) {});
  }).join();
  std::thread([&] {
    found_first = with_one(table, first, [](SessionTable::Entry&) {});
  }).join();
  EXPECT_TRUE(found_second);
  EXPECT_TRUE(found_first);
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
