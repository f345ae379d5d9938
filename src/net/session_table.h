// SessionTable: sharded per-session predictor state of the serving core
// (DESIGN.md §12).
//
// The paper's deployed engine (§6) keeps every session's HMM filter state
// server-side, so serving capacity is bounded by how cheaply the server can
// hold and touch millions of concurrent entries. This module owns that
// state: a power-of-two array of shards, each a mutex over a slab arena. A
// session id is its slot's address, generation << 32 | slot << shard_bits |
// shard, so a lookup is a mask, a shift, a bounds check and one compare of
// the whole id — no hash index. A slot's generation advances on every reuse
// and a slot whose generation would wrap is retired, so ids never repeat and
// a stale, forged or zero id finds no session. Sessions are dealt to the
// shards round-robin, so whichever threads create them, they spread evenly
// over the shards and their locks.
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
//     (in shard-index order, so concurrent groups never deadlock) and
//     exposes the whole group at once. The server passes one id per
//     OBSERVE/PREDICT frame; groups of several ids come from servebench's
//     table replay and from tests.
//
// Storage (DESIGN.md §16): entries live in per-shard slab arenas — fixed
// 64-slot slabs, index-stable for the table's lifetime, with a freelist
// recycling slots on erase/evict. A group of sessions therefore touches a
// few contiguous slabs instead of pointer-chasing one heap node per session,
// and long-running servers stop exercising the allocator on session churn. A
// released slot's Entry is reset to a default-constructed Entry immediately
// (predictor and model pin freed, history cleared) — reuse can never leak a
// previous session's belief state.
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
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "predictors/predictor.h"

namespace cs2p {

struct SessionTableConfig {
  /// Shard count; rounded up to a power of two, minimum 1; 0 picks the
  /// default (16); above kMaxShards the table's constructor throws
  /// std::invalid_argument. More shards = less lock contention, slightly
  /// costlier eviction sweeps. A shard holds at most 2^(32 - log2(shards))
  /// sessions.
  std::size_t shards = 16;
  /// 2^16: keeps at least 2^16 slot indices in the 32-bit half of an id.
  static constexpr std::size_t kMaxShards = std::size_t{1} << 16;
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

  /// Session identity + observation history for the completion hook
  /// (DESIGN.md §15), so BOTH teardown paths (BYE and TTL/drain eviction)
  /// can hand the full training signal to the continuous trainer instead of
  /// silently dropping it.
  struct History {
    SessionFeatures features;
    double start_hour = 0.0;
    std::vector<double> observations;
  };

  /// One live session: 56 bytes per slot on x86-64. The table never
  /// dereferences `predictor` itself — callers use it under
  /// with_sessions() — so tests may store nullptr.
  struct Entry {
    std::unique_ptr<SessionPredictor> predictor;
    /// Pins the model that created the predictor (HmmSessionPredictor holds
    /// references into its engine); released on erase/eviction.
    std::shared_ptr<const PredictorModel> owner;
    Clock::time_point last_used{};
    Clock::time_point created_at{};
    /// Allocated at HELLO and extended at OBSERVE only when a
    /// ServerConfig::on_session_complete consumer exists; null otherwise,
    /// so a server without the hook holds none of it.
    std::unique_ptr<History> history;
    /// Trace-sampling decision made once at creation (obs/trace.h).
    bool traced = false;
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

  /// Creates a session in the next shard round-robin and returns its id.
  /// The id names the slot, so `make(id)` runs in the lock hold that
  /// reserves it and should only move a prepared entry; if it throws, the
  /// slot is released. Throws std::length_error when the shard has no slot
  /// index left.
  template <typename Make>
  std::uint64_t emplace(Make&& make) {
    const std::size_t s =
        next_shard_.fetch_add(1, std::memory_order_relaxed) & shard_mask_;
    Shard& shard = *shards_[s];
    const auto lock = lock_shard(shard);
    const std::uint32_t index = shard.acquire_slot(slot_limit_);
    Slot& slot = shard.slot(index);
    slot.id = std::uint64_t{next_generation(slot.id)} << 32 |
              std::uint64_t{index} << shard_bits_ | s;
    slot.live = true;
    ++shard.live;
    try {
      slot.entry = make(slot.id);
    } catch (...) {
      shard.release_slot(index);
      throw;
    }
    size_.fetch_add(1, std::memory_order_relaxed);
    return slot.id;
  }

  /// Locks every shard owning one of `ids` (in ascending shard-index order
  /// — concurrent groups cannot deadlock, and single-shard operations
  /// still take one lock at a time underneath), then runs `fn(entries)`
  /// with entries[k] pointing at the session of ids[k], or nullptr when
  /// unknown (expired, BYEd, never issued or of a past generation).
  /// Pointers are valid only inside `fn`, which is responsible for
  /// refreshing entry.last_used if the touch should count against the TTL.
  /// A repeated id resolves to the same entry. The server holds the table
  /// once per OBSERVE/PREDICT frame, so the call reuses per-thread scratch
  /// and allocates nothing once warm; `fn` must not call with_sessions
  /// itself.
  template <typename Fn>
  void with_sessions(std::span<const std::uint64_t> ids, Fn&& fn) {
    thread_local std::vector<std::size_t> order;
    thread_local std::vector<std::unique_lock<std::mutex>> locks;
    thread_local std::vector<Entry*> entries;
    order.clear();
    for (const std::uint64_t id : ids) order.push_back(id & shard_mask_);
    std::sort(order.begin(), order.end());
    order.erase(std::unique(order.begin(), order.end()), order.end());
    struct Unlock {  // releases the shard locks however the call exits
      ~Unlock() { locks.clear(); }
    } unlock;
    for (const std::size_t s : order) locks.push_back(lock_shard(*shards_[s]));
    entries.clear();
    for (const std::uint64_t id : ids) entries.push_back(find(id));
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
  /// server's I/O worker 0 ticks it between poll waits); repeated ticks
  /// visit every entry. No-op when ttl_ms <= 0.
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

  /// Largest number of arena slots ever examined under one eviction lock
  /// hold — the observable guarantee that eviction is incremental (stays
  /// around evict_scan_budget no matter how large the table grows).
  std::size_t max_scanned_in_one_hold() const noexcept {
    return max_scanned_.load(std::memory_order_relaxed);
  }

  /// Arena slots handed out across all shards (each shard's high-water
  /// session count, retired slots included). Slabs never shrink; erase/evict
  /// recycles slots through per-shard freelists — a stable value under
  /// session churn is the observable proof of slot reuse.
  std::size_t arena_slots() const;

  /// The generation a slot's next tenant gets after the tenant `previous`
  /// (0 for a fresh slot); 0 means it would wrap, and the slot is retired.
  static constexpr std::uint32_t next_generation(std::uint64_t previous) noexcept {
    return static_cast<std::uint32_t>(previous >> 32) + 1;
  }

 private:
  /// Ages a live slot's generation in tests (tests/test_session_table.cpp),
  /// which cannot reuse one slot 2^32 times to reach the wrap.
  friend struct SessionTableTestPeer;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Slots per slab: 64 entries per allocation keeps slab bookkeeping
  /// negligible while capping the largest single arena allocation.
  static constexpr std::size_t kSlabSlots = 64;

  struct Slot {
    /// The id of this slot's session, or of its last one while it is free.
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
    /// Index-stable slab arena (slabs are never freed or moved).
    std::vector<std::unique_ptr<Slab>> slabs;
    std::uint32_t free_head = kNoSlot;
    /// Slots ever handed out; the eviction scan's upper bound.
    std::uint32_t allocated = 0;
    /// Live sessions; evict_tick skips a shard that has none.
    std::uint32_t live = 0;
    /// Slot index where the next evict_tick resumes scanning.
    std::uint32_t cursor = 0;
    /// Contention counter of this shard (null without a registry).
    obs::Counter* contention = nullptr;

    Slot& slot(std::uint32_t i) noexcept {
      return slabs[i / kSlabSlots]->slots[i % kSlabSlots];
    }
    /// Pops the freelist, or carves a fresh slot (growing by one slab when
    /// the arena is full; `limit` slots at most). Caller holds the shard lock.
    std::uint32_t acquire_slot(std::uint32_t limit);
    /// Frees the slot and resets its Entry (predictor, model pin, history: no
    /// state survives into the next tenant), then pushes it onto the freelist
    /// unless its generation is spent. Caller holds the shard lock.
    void release_slot(std::uint32_t i);
  };

  Shard& shard_of(std::uint64_t id) const noexcept {
    return *shards_[id & shard_mask_];
  }
  std::uint32_t slot_index(std::uint64_t id) const noexcept {
    return static_cast<std::uint32_t>(id) >> shard_bits_;
  }
  /// Session `id`'s entry, or nullptr. Caller holds shard_of(id)'s lock.
  Entry* find(std::uint64_t id) const noexcept {
    Shard& shard = shard_of(id);
    const std::uint32_t i = slot_index(id);
    if (i >= shard.allocated) return nullptr;
    Slot& slot = shard.slot(i);
    return slot.live && slot.id == id ? &slot.entry : nullptr;
  }
  std::unique_lock<std::mutex> lock_shard(Shard& shard) noexcept;

  SessionTableConfig config_;
  /// Live TTL; seeded from config_.ttl_ms, re-armed by set_ttl_ms (drain).
  std::atomic<int> ttl_ms_{0};
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t shard_mask_ = 0;
  unsigned shard_bits_ = 0;
  std::uint32_t slot_limit_ = 0;  ///< slot indices that fit beside the shard bits
  std::atomic<std::size_t> next_shard_{0};  ///< emplace's round-robin
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> max_scanned_{0};
};

}  // namespace cs2p
