// The repo's non-cryptographic hashes, in one place:
//   - FNV-1a 64 over bytes: snapshot checksums and fingerprints, the SYNC
//     checksum (one algorithm, so a trainer checksums once), rendezvous keys;
//   - the SplitMix64 mixer over integers: session-table shard choice, trace
//     sampling, Rng seeding, and the finalizer of rendezvous scores.
// Placement, sampling, seeding and persisted checksums depend on the exact
// bits, so these never defer to std::hash.
#pragma once

#include <cstdint>
#include <string_view>

namespace cs2p {

/// FNV-1a 64 offset basis (14695981039346656037) and prime.
inline constexpr std::uint64_t kFnv1a64Offset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1a64Prime = 0x100000001b3ULL;

/// FNV-1a 64 over `data`, continuing from state `h`.
constexpr std::uint64_t fnv1a64(std::string_view data,
                                std::uint64_t h = kFnv1a64Offset) noexcept {
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnv1a64Prime;
  }
  return h;
}

/// Folds the 8 bytes of `v`, least significant first, into FNV-1a state `h`.
constexpr std::uint64_t fnv1a64_u64(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= kFnv1a64Prime;
  }
  return h;
}

/// SplitMix64's output mixer: a bijection whose every output bit depends on
/// every input bit. Also the finalizer of an FNV-1a hash, whose high bits
/// alone are weak.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// SplitMix64's state increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 of `x`: the generator's output for state `x`.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  return mix64(x + kSplitMix64Gamma);
}

}  // namespace cs2p
