#include "testing/seeds.hpp"

#include <sstream>

#include "core/splitmix.hpp"

namespace wavehpc::testing {

std::uint64_t SplitMix64::next() noexcept { return core::splitmix64_next(state_); }

double SplitMix64::uniform() noexcept {
    // 53 random mantissa bits -> [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t SplitMix64::below(std::uint64_t n) noexcept {
    // Modulo bias is negligible for the small ranges the harness draws.
    return next() % n;
}

double SplitMix64::range(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
}

std::uint64_t env_seed(core::KnobRef<core::KnobKind::Unsigned> name,
                       std::uint64_t fallback) {
    return core::env_unsigned(name).value_or(fallback);
}

std::size_t env_cases(core::KnobRef<core::KnobKind::Unsigned> name, std::size_t fallback) {
    return core::env_unsigned(name).value_or(fallback);
}

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
    // One splitmix step decorrelates consecutive indices; the result is
    // itself a valid base seed, so a derived seed pasted back into the env
    // variable replays exactly one case.
    SplitMix64 rng(base ^ (0xA5A5A5A5A5A5A5A5ULL * (index + 1)));
    return rng.next();
}

std::string repro_line(const char* env_name, std::uint64_t seed, const char* binary) {
    std::ostringstream os;
    os << "repro: " << env_name << '=' << seed << ' ' << binary;
    return os.str();
}

}  // namespace wavehpc::testing
