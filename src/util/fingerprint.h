// Word-at-a-time 64-bit fingerprint of float buffers: the input-identity
// check of the incremental executor (one hash per run()) and the per-tile
// frame diff of the stream executor share it.
//
// Each step folds one 64-bit word (a float pair; a lone trailing float is
// widened) as h = xorshift((h ^ word) * P). Every step is a bijection of h
// for a fixed word and injective in the word for a fixed h, so two buffers
// of equal length that differ in exactly one word always hash differently;
// multi-word collisions have the usual ~2^-64 odds. Eight bytes per step
// instead of byte-wise FNV-1a's one keeps the dependent multiply chain
// short enough that hashing an image costs a few microseconds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace stepping {

inline constexpr std::uint64_t kFingerprintSeed = 1469598103934665603ULL;

/// Fold `n` floats into the running fingerprint `h` (start from
/// kFingerprintSeed). Folding a buffer in pieces gives the same result as
/// folding it at once only when every piece but the last has even length.
inline std::uint64_t fingerprint_fold(std::uint64_t h, const float* v,
                                      std::size_t n) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    std::uint64_t w;
    std::memcpy(&w, v + i, sizeof w);
    h = (h ^ w) * kPrime;
    h ^= h >> 29;
  }
  if (i < n) {
    std::uint32_t w;
    std::memcpy(&w, v + i, sizeof w);
    h = (h ^ (static_cast<std::uint64_t>(w) | (1ULL << 32))) * kPrime;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace stepping
