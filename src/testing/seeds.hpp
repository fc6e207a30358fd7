#pragma once
// Seed plumbing for the deterministic-simulation test harness.
//
// Every fuzzed artifact in this repo — a schedule interleaving, a fault
// plan, a traffic pattern — is a pure function of a 64-bit seed, so a
// failing case is fully described by one number. The helpers here read
// seeds from the environment (the CI matrix sweeps them), derive per-case
// seeds from a base seed, and format the one-line reproduction hint a
// failing assertion should carry.

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/knobs.hpp"

namespace wavehpc::testing {

/// SplitMix64 — the same generator family FaultPlan uses for per-message
/// draws: tiny state, full-period, and any seed (including 0) is fine.
class SplitMix64 {
public:
    explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

    std::uint64_t next() noexcept;

    /// Uniform double in [0, 1).
    double uniform() noexcept;

    /// Uniform integer in [0, n); n must be > 0.
    std::uint64_t below(std::uint64_t n) noexcept;

    /// Uniform double in [lo, hi).
    double range(double lo, double hi) noexcept;

private:
    std::uint64_t state_;
};

/// Seed knob `name` (e.g. WAVEHPC_FUZZ_SEED), or `fallback` when it is unset
/// or empty; a value outside the knob's domain throws.
[[nodiscard]] std::uint64_t env_seed(core::KnobRef<core::KnobKind::Unsigned> name,
                                     std::uint64_t fallback);

/// Case-count override for fuzz loops (e.g. WAVEHPC_FUZZ_CASES, whose
/// domain is [1, 100000]), or `fallback`.
[[nodiscard]] std::size_t env_cases(core::KnobRef<core::KnobKind::Unsigned> name,
                                    std::size_t fallback);

/// The seed of the `index`-th case derived from a base seed: distinct,
/// stable, and printable as a standalone repro seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index);

/// One-line reproduction hint for a failing seeded case:
///   "repro: WAVEHPC_SCHED_SEED=42 ./build/tests/test_schedule_fuzz"
[[nodiscard]] std::string repro_line(const char* env_name, std::uint64_t seed,
                                     const char* binary);

}  // namespace wavehpc::testing
