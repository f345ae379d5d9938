// SessionTable: sharded per-session predictor state of the serving core
// (DESIGN.md §12).
//
// The paper's deployed engine (§6) keeps every session's HMM filter state
// server-side, so serving capacity is bounded by how cheaply the server can
// hold and touch millions of concurrent entries. This module owns that
// state: a power-of-two array of shards, each a mutex + hash map, with the
// owning shard picked by a splitmix64 hash of the session id. N serving
// threads touching N different sessions take N different locks.
//
// Contracts the server relies on:
//   - Entries pin their creating model (RCU hot-swap, DESIGN.md §9): the
//     `owner` reference keeps a swapped-out engine alive until the last
//     session created from it says BYE or expires.
//   - TTL eviction is incremental and amortized: one evict_tick() examines
//     at most `evict_scan_budget` arena slots per shard (resuming from a
//     per-shard slot cursor), so no lock is ever held for a scan of the
//     whole table — the full-table sweep the old accept loop ran under one
//     global mutex is gone by construction.
//   - with_sessions() runs the caller's closure under the owning shards'
//     locks, so a session touched from several connections (HELLO on one,
//     OBSERVE on another — sessions migrate freely between connections)
//     always sees one coherent filter state. It locks every owning shard
//     (in shard-index order, so concurrent batches never deadlock) and
//     exposes the whole group at once — what lets the server serve a poll
//     round's sessions under one lock acquisition.
//
// Storage (DESIGN.md §16): entries live in per-shard slab arenas — fixed
// 64-slot slabs, index-stable for the table's lifetime, with a freelist
// recycling slots on erase/evict. The hash map per shard holds only
// id -> slot index. A batch therefore touches a handful of contiguous slabs
// instead of pointer-chasing one heap node per session, and long-running
// servers stop exercising the allocator on session churn. A released slot's
// Entry is reset to a default-constructed Entry immediately (predictor and
// model pin freed, history cleared) — reuse can never leak a previous
// session's belief state.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "predictors/predictor.h"

namespace cs2p {

struct SessionTableConfig {
  /// Shard count; rounded up to a power of two, minimum 1; 0 picks the
  /// default (16). More shards = less lock contention, slightly costlier
  /// eviction sweeps.
  std::size_t shards = 16;
  /// Entries untouched this long are eligible for eviction; <= 0 disables
  /// TTL eviction entirely.
  int ttl_ms = 120'000;
  /// Maximum entries examined per shard per evict_tick() — the amortization
  /// knob bounding every eviction lock hold.
  std::size_t evict_scan_budget = 64;
};

class SessionTable {
 public:
  using Clock = std::chrono::steady_clock;

  /// One live session. The table never dereferences `predictor` itself —
  /// callers use it under with_sessions() — so tests may store nullptr.
  struct Entry {
    std::unique_ptr<SessionPredictor> predictor;
    /// Pins the model that created the predictor (HmmSessionPredictor holds
    /// references into its engine); released on erase/eviction.
    std::shared_ptr<const PredictorModel> owner;
    Clock::time_point last_used{};
    /// Trace-sampling decision made once at creation (obs/trace.h).
    bool traced = false;
    /// Session identity + observation history for the completion hook
    /// (DESIGN.md §15): the server fills these at HELLO/OBSERVE when a
    /// ServerConfig::on_session_complete consumer exists, so BOTH teardown
    /// paths (BYE and TTL/drain eviction) can hand the full training signal
    /// to the continuous trainer instead of silently dropping it.
    Clock::time_point created_at{};
    SessionFeatures features;
    double start_hour = 0.0;
    std::vector<double> observations;
  };

  struct EvictStats {
    std::size_t scanned = 0;
    std::size_t evicted = 0;
  };

  /// Called for each removed entry. Invoked OUTSIDE the owning shard's lock,
  /// on the entry already moved out of the table — the callback may be
  /// arbitrarily expensive (it feeds the training pipeline) and may take
  /// other locks, but the session is already gone when it runs, so it must
  /// not expect to find `id` in the table.
  using EvictCallback = std::function<void(std::uint64_t id, Entry& entry)>;

  /// `registry` (optional) receives per-shard contention counters
  /// (cs2p_server_session_shard_contention_total{shard="i"}); it must
  /// outlive the table.
  explicit SessionTable(SessionTableConfig config,
                        obs::MetricsRegistry* registry = nullptr);

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// Allocates the next session id (ids start at 1 and never repeat),
  /// builds the entry via `make(id)` outside any lock, and inserts it under
  /// the owning shard's lock. Returns the id.
  template <typename Make>
  std::uint64_t emplace(Make&& make) {
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    Entry entry = make(id);
    Shard& shard = shard_for(id);
    const auto lock = lock_shard(shard);
    const std::uint32_t slot_index = shard.acquire_slot();
    Slot& slot = shard.slot(slot_index);
    slot.id = id;
    slot.live = true;
    slot.entry = std::move(entry);
    shard.index.emplace(id, slot_index);
    size_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }

  /// Locks every shard owning one of `ids` (in ascending shard-index order
  /// — concurrent batches cannot deadlock, and single-shard operations
  /// still take one lock at a time underneath), then runs `fn(entries)`
  /// with entries[k] pointing at the session of ids[k], or nullptr when
  /// unknown (expired, BYEd, or never created). Pointers are valid only
  /// inside `fn`, which is responsible for refreshing entry.last_used if
  /// the touch should count against the TTL. A repeated id resolves to the
  /// same entry.
  template <typename Fn>
  void with_sessions(std::span<const std::uint64_t> ids, Fn&& fn) {
    std::vector<std::size_t> order;
    order.reserve(ids.size());
    for (const std::uint64_t id : ids) order.push_back(shard_index(id));
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(order.size());
    for (const std::size_t s : order) locks.push_back(lock_shard(*shards_[s]));
    std::vector<Entry*> entries(ids.size(), nullptr);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      Shard& shard = *shards_[shard_index(ids[k])];
      const auto it = shard.index.find(ids[k]);
      if (it != shard.index.end()) entries[k] = &shard.slot(it->second).entry;
    }
    fn(std::span<Entry* const>(entries.data(), entries.size()));
  }

  /// Removes the session. Returns true if it existed; `*traced` (optional)
  /// reports the entry's trace flag for the caller's BYE trace record.
  bool erase(std::uint64_t id, bool* traced = nullptr);

  /// Removes the session and hands the moved-out entry to `on_erase`
  /// (invoked outside the shard lock, like eviction callbacks) — the BYE
  /// leg of the unified session-completion teardown. Returns true if the
  /// session existed.
  bool erase(std::uint64_t id, const EvictCallback& on_erase, bool* traced);

  /// Live entries across all shards. Lock-free (a relaxed counter), may be
  /// momentarily stale relative to concurrent mutators.
  std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

  std::size_t shard_count() const noexcept { return shards_.size(); }

  /// One amortized TTL sweep step: examines at most `evict_scan_budget`
  /// entries in each shard (separate lock holds), resuming where the last
  /// tick left off, and evicts the expired ones it saw. Call it often (the
  /// I/O workers tick it between poll waits); repeated ticks visit every
  /// entry. No-op when ttl_ms <= 0.
  EvictStats evict_tick(Clock::time_point now,
                        const EvictCallback& on_evict = {});

  /// The TTL currently in force (may differ from the constructed config
  /// after set_ttl_ms).
  int ttl_ms() const noexcept { return ttl_ms_.load(std::memory_order_relaxed); }

  /// Re-arms the eviction TTL while serving — the drain path (DESIGN.md
  /// §14) shrinks it so abandoned sessions stop holding a draining server
  /// open for the full steady-state TTL. Safe to call concurrently with
  /// evict_tick and every accessor; takes effect on the next tick.
  void set_ttl_ms(int ttl_ms) noexcept {
    ttl_ms_.store(ttl_ms, std::memory_order_relaxed);
  }

  /// Times a shard lock was already held by another thread when requested.
  std::uint64_t lock_contentions() const noexcept {
    return contentions_.load(std::memory_order_relaxed);
  }

  /// Largest number of arena slots ever examined under one eviction lock
  /// hold — the observable guarantee that eviction is incremental (stays
  /// around evict_scan_budget no matter how large the table grows).
  std::size_t max_scanned_in_one_hold() const noexcept {
    return max_scanned_.load(std::memory_order_relaxed);
  }

  /// Arena slots allocated across all shards (the high-water session count,
  /// rounded up to slab granularity). Slabs never shrink; erase/evict
  /// recycles slots through per-shard freelists — a stable value under
  /// session churn is the observable proof of slot reuse.
  std::size_t arena_slots() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Slots per slab: 64 entries per allocation keeps slab bookkeeping
  /// negligible while capping the largest single arena allocation.
  static constexpr std::size_t kSlabSlots = 64;

  struct Slot {
    std::uint64_t id = 0;
    std::uint32_t next_free = kNoSlot;
    bool live = false;
    Entry entry;
  };
  struct Slab {
    std::array<Slot, kSlabSlots> slots;
  };

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    /// id -> arena slot index; the slot holds the Entry itself.
    std::unordered_map<std::uint64_t, std::uint32_t> index;
    /// Index-stable slab arena (slabs are never freed or moved).
    std::vector<std::unique_ptr<Slab>> slabs;
    std::uint32_t free_head = kNoSlot;
    /// Slots ever handed out; the eviction scan's upper bound.
    std::uint32_t allocated = 0;
    /// Slot index where the next evict_tick resumes scanning.
    std::uint32_t cursor = 0;
    /// Contention counter of this shard (null without a registry).
    obs::Counter* contention = nullptr;

    Slot& slot(std::uint32_t i) noexcept {
      return slabs[i / kSlabSlots]->slots[i % kSlabSlots];
    }
    /// Pops the freelist, or carves a fresh slot (growing by one slab when
    /// the arena is full). Caller holds the shard lock.
    std::uint32_t acquire_slot();
    /// Resets the slot's Entry to default (dropping the predictor, model
    /// pin, and history — no state survives into the next tenant) and
    /// pushes it onto the freelist. Caller holds the shard lock.
    void release_slot(std::uint32_t i);
  };

  Shard& shard_for(std::uint64_t id) noexcept;
  std::size_t shard_index(std::uint64_t id) const noexcept;
  std::unique_lock<std::mutex> lock_shard(Shard& shard) noexcept;

  SessionTableConfig config_;
  /// Live TTL; seeded from config_.ttl_ms, re-armed by set_ttl_ms (drain).
  std::atomic<int> ttl_ms_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_mask_ = 0;
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> contentions_{0};
  std::atomic<std::size_t> max_scanned_{0};
};

}  // namespace cs2p
