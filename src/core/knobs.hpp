#pragma once
// The WAVEHPC_* environment knobs: one table, one reader, one rule.
//
// Every environment read in the library goes through this module, and
// every variable it reads is a row of kKnobs with the values it accepts
// (its domain). One rule for every row:
//   - unset or empty: the read returns nullopt and the caller's default
//     stays (defaults live in the config structs, not here);
//   - anything else must parse completely and lie in the row's domain,
//     or the read throws std::invalid_argument naming the variable, the
//     value and the domain.
//
// Reads name their row with a string literal that is looked up at compile
// time (KnobRef), so a misspelt name or a read of the wrong kind does not
// build, and a read costs one getenv plus the parse.

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace wavehpc::core {

enum class KnobKind : std::uint8_t {
    Unsigned,  ///< decimal integer in [min, max]
    Real,      ///< floating-point number in [lo, hi]; "inf" if hi is infinite
    Text,      ///< any string (a path, a spec its consumer parses, a flag)
};

struct Knob {
    const char* name;
    KnobKind kind;
    std::uint64_t min = 0;  ///< Unsigned domain
    std::uint64_t max = 0;
    double lo = 0.0;        ///< Real domain
    double hi = 0.0;
};

namespace knob_row {

inline constexpr std::uint64_t kU64 = std::numeric_limits<std::uint64_t>::max();
inline constexpr std::uint64_t kU32 = std::numeric_limits<std::uint32_t>::max();
inline constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr Knob integer(const char* name, std::uint64_t min, std::uint64_t max) {
    return {.name = name, .kind = KnobKind::Unsigned, .min = min, .max = max};
}
constexpr Knob real(const char* name, double lo, double hi) {
    return {.name = name, .kind = KnobKind::Real, .lo = lo, .hi = hi};
}
constexpr Knob text(const char* name) { return {.name = name, .kind = KnobKind::Text}; }

}  // namespace knob_row

/// Every variable the code reads. README's "Environment knobs" table lists
/// the same names (test_knobs checks both directions).
inline constexpr std::array kKnobs{
    // svc::ServiceConfig::from_env
    knob_row::integer("WAVEHPC_SVC_QUEUE_DEPTH", 1, knob_row::kU64),
    knob_row::integer("WAVEHPC_SVC_QUEUE_BYTES", 1, knob_row::kU64),
    knob_row::integer("WAVEHPC_SVC_CONCURRENCY", 1, knob_row::kU64),
    knob_row::integer("WAVEHPC_SVC_CACHE_BYTES", 1, knob_row::kU64),
    knob_row::integer("WAVEHPC_SVC_BATCH_MAX", 1, knob_row::kU64),
    knob_row::integer("WAVEHPC_SVC_BATCH_WINDOW_US", 0, knob_row::kU64),
    knob_row::integer("WAVEHPC_SVC_ARENA_BYTES", 1, knob_row::kU64),
    knob_row::integer("WAVEHPC_SVC_ARENA_SLAB_CLASSES", 1, 48),  // bounds a shift
    knob_row::integer("WAVEHPC_SVC_RETRY_MAX", 1, knob_row::kU32),
    knob_row::real("WAVEHPC_SVC_RETRY_BASE_MS", 0.0, knob_row::kInf),
    knob_row::real("WAVEHPC_SVC_RETRY_CAP_MS", 0.0, knob_row::kInf),
    knob_row::real("WAVEHPC_SVC_RETRY_JITTER", 0.0, 1.0),
    knob_row::real("WAVEHPC_SVC_BREAKER_THRESHOLD", 0.0, knob_row::kInf),
    knob_row::real("WAVEHPC_SVC_BREAKER_ALPHA", 1e-3, 1.0),
    knob_row::integer("WAVEHPC_SVC_BREAKER_MIN_SAMPLES", 1, knob_row::kU32),
    knob_row::real("WAVEHPC_SVC_BREAKER_OPEN_MS", 0.0, knob_row::kInf),
    knob_row::integer("WAVEHPC_SVC_BREAKER_PROBES", 1, knob_row::kU32),
    knob_row::real("WAVEHPC_SVC_WATCHDOG_MS", 0.0, knob_row::kInf),
    // svc::ChaosPlan::from_env
    knob_row::text("WAVEHPC_CHAOS_PLAN"),
    knob_row::integer("WAVEHPC_CHAOS_SEED", 0, knob_row::kU64),
    // tile::TileConfig::from_env, tile::preview_bytes_per_second
    knob_row::integer("WAVEHPC_TILE_ROWS", 1, 65536),
    knob_row::integer("WAVEHPC_TILE_COLS", 1, 65536),
    knob_row::real("WAVEHPC_TILE_PREVIEW_BPS", 1.0, knob_row::kInf),
    // testing:: harness (seeds, case counts, golden files)
    knob_row::integer("WAVEHPC_FAULT_SEED", 0, knob_row::kU64),
    knob_row::integer("WAVEHPC_FUZZ_SEED", 0, knob_row::kU64),
    knob_row::integer("WAVEHPC_FUZZ_CASES", 1, 100000),
    knob_row::integer("WAVEHPC_SCHED_SEED", 0, knob_row::kU64),
    knob_row::integer("WAVEHPC_SCHED_CASES", 1, 100000),
    knob_row::text("WAVEHPC_GOLDEN_DIR"),
    knob_row::text("WAVEHPC_REGEN_GOLDEN"),  // "0" is off
};

/// A row of kind K, named by a string literal: env_unsigned("WAVEHPC_X").
/// The lookup runs at compile time, where a throw is a build error.
template <KnobKind K>
class KnobRef {
public:
    // Implicit, so call sites pass the bare literal.
    consteval KnobRef(const char* name) {
        std::size_t i = 0;
        while (i < kKnobs.size() && std::string_view(name) != kKnobs[i].name) ++i;
        if (i == kKnobs.size()) throw std::logic_error("not a WAVEHPC_* knob in kKnobs");
        if (kKnobs[i].kind != K) throw std::logic_error("knob read as the wrong kind");
        row_ = &kKnobs[i];
    }
    [[nodiscard]] constexpr const Knob& row() const noexcept { return *row_; }

private:
    const Knob* row_ = nullptr;
};

[[nodiscard]] std::optional<std::uint64_t> env_unsigned(KnobRef<KnobKind::Unsigned> knob);
[[nodiscard]] std::optional<double> env_real(KnobRef<KnobKind::Real> knob);
[[nodiscard]] std::optional<std::string> env_text(KnobRef<KnobKind::Text> knob);

}  // namespace wavehpc::core
