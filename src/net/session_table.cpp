#include "net/session_table.h"

#include <string>

#include "util/hash.h"

namespace cs2p {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  if (n < 2) return 1;
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

SessionTable::SessionTable(SessionTableConfig config,
                           obs::MetricsRegistry* registry)
    : config_(config), ttl_ms_(config.ttl_ms) {
  const std::size_t count = round_up_pow2(config_.shards == 0 ? 16 : config_.shards);
  shard_mask_ = count - 1;
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto shard = std::make_unique<Shard>();
    if (registry != nullptr) {
      shard->contention =
          &registry->counter("cs2p_server_session_shard_contention_total",
                             {{"shard", std::to_string(i)}});
    }
    shards_.push_back(std::move(shard));
  }
  if (config_.evict_scan_budget == 0) config_.evict_scan_budget = 1;
}

SessionTable::Shard& SessionTable::shard_for(std::uint64_t id) noexcept {
  return *shards_[shard_index(id)];
}

std::size_t SessionTable::shard_index(std::uint64_t id) const noexcept {
  // Mixed, so sequential session ids do not land in sequential shards: one
  // busy tenant allocating a burst of sessions must not hammer one lock.
  return splitmix64(id) & shard_mask_;
}

std::uint32_t SessionTable::Shard::acquire_slot() {
  if (free_head != kNoSlot) {
    const std::uint32_t i = free_head;
    Slot& s = slot(i);
    free_head = s.next_free;
    s.next_free = kNoSlot;
    return i;
  }
  if (allocated == slabs.size() * kSlabSlots)
    slabs.push_back(std::make_unique<Slab>());
  return allocated++;
}

void SessionTable::Shard::release_slot(std::uint32_t i) {
  Slot& s = slot(i);
  s.id = 0;
  s.live = false;
  s.entry = Entry{};  // predictor, model pin, and history die here, not later
  s.next_free = free_head;
  free_head = i;
}

std::size_t SessionTable::arena_slots() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard->mutex);
    total += shard->allocated;
  }
  return total;
}

std::unique_lock<std::mutex> SessionTable::lock_shard(Shard& shard) noexcept {
  std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
  if (!lock.owns_lock()) {
    contentions_.fetch_add(1, std::memory_order_relaxed);
    if (shard.contention != nullptr) shard.contention->inc();
    lock.lock();
  }
  return lock;
}

bool SessionTable::erase(std::uint64_t id, bool* traced) {
  Shard& shard = shard_for(id);
  const auto lock = lock_shard(shard);
  const auto it = shard.index.find(id);
  if (it == shard.index.end()) return false;
  if (traced != nullptr) *traced = shard.slot(it->second).entry.traced;
  shard.release_slot(it->second);
  shard.index.erase(it);
  size_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool SessionTable::erase(std::uint64_t id, const EvictCallback& on_erase,
                         bool* traced) {
  Shard& shard = shard_for(id);
  Entry removed;
  {
    const auto lock = lock_shard(shard);
    const auto it = shard.index.find(id);
    if (it == shard.index.end()) return false;
    removed = std::move(shard.slot(it->second).entry);
    shard.release_slot(it->second);
    shard.index.erase(it);
    size_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (traced != nullptr) *traced = removed.traced;
  if (on_erase) on_erase(id, removed);
  return true;
}

SessionTable::EvictStats SessionTable::evict_tick(Clock::time_point now,
                                                  const EvictCallback& on_evict) {
  EvictStats stats;
  const int ttl = ttl_ms_.load(std::memory_order_relaxed);
  if (ttl <= 0) return stats;
  const auto deadline = now - std::chrono::milliseconds(ttl);
  std::vector<std::pair<std::uint64_t, Entry>> removed;
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    removed.clear();
    {
      const auto lock = lock_shard(shard);
      if (shard.allocated == 0 || shard.index.empty()) continue;
      if (shard.cursor >= shard.allocated) shard.cursor = 0;
      const std::uint32_t start = shard.cursor;
      std::size_t scanned = 0;
      // A linear walk over the slot arena (live and free slots alike),
      // stopping once the budget is met — the lock hold is bounded by the
      // budget, never by the table size, and the walk order is the arena's
      // memory order.
      do {
        const std::uint32_t i = shard.cursor;
        Slot& slot = shard.slot(i);
        ++scanned;
        if (slot.live && slot.entry.last_used < deadline) {
          removed.emplace_back(slot.id, std::move(slot.entry));
          shard.index.erase(slot.id);
          shard.release_slot(i);
          size_.fetch_sub(1, std::memory_order_relaxed);
        }
        shard.cursor = (shard.cursor + 1) % shard.allocated;
      } while (scanned < config_.evict_scan_budget && shard.cursor != start);
      std::size_t seen = max_scanned_.load(std::memory_order_relaxed);
      while (scanned > seen &&
             !max_scanned_.compare_exchange_weak(seen, scanned,
                                                 std::memory_order_relaxed)) {
      }
      stats.scanned += scanned;
      stats.evicted += removed.size();
    }
    // Callbacks run after the shard lock is released: the completion hook
    // may feed the trainer (its own locks, possibly EM in progress) and must
    // never extend an eviction lock hold.
    if (on_evict)
      for (auto& [id, entry] : removed) on_evict(id, entry);
  }
  return stats;
}

}  // namespace cs2p
