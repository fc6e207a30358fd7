#pragma once
// splitmix64: the one 64-bit mix behind every seeded draw in the repo —
// fault and chaos plans, backoff jitter, ring placement, roster hashes,
// schedule tie-breaks, synthetic scenes and the test harness's generator.
// Header-only, so libraries that do not link wavehpc_core (sim) use it too.
// Seed-replay and golden tests pin its output: never change it.

#include <cstdint>

namespace wavehpc::core {

inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

/// The splitmix64 output for state `x`: a stateless, full-avalanche draw.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
    x += kSplitMixGamma;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// One generator step: the draw for `state`, which then advances.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
    const std::uint64_t out = mix64(state);
    state += kSplitMixGamma;
    return out;
}

}  // namespace wavehpc::core
