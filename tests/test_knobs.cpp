// The WAVEHPC_* knob table (core/knobs.hpp): one rule for every kind of
// value — unset or empty keeps the caller's default, an in-domain value
// applies, and a malformed, half-parsed or out-of-domain value throws
// std::invalid_argument naming the variable — checked through the core
// readers and through every consumer. The one number rule under it is
// checked row by row against a knob, a ChaosPlan field and a bench flag.
// The lint half keeps the module the only environment reader and README's
// knob table in step with kKnobs.

#include "core/knobs.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <regex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common_args.hpp"
#include "svc/chaos.hpp"
#include "svc/service.hpp"
#include "testing/golden.hpp"
#include "testing/seeds.hpp"
#include "tile/plan.hpp"

namespace {

namespace core = wavehpc::core;
namespace fs = std::filesystem;
using wavehpc::svc::ServiceConfig;

/// Every case starts with no knob set, whatever the caller exported.
class ClearKnobs : public ::testing::Environment {
public:
    void SetUp() override {
        for (const core::Knob& k : core::kKnobs) ::unsetenv(k.name);
    }
};
[[maybe_unused]] const auto* const kClearKnobs =
    ::testing::AddGlobalTestEnvironment(new ClearKnobs);

/// Sets (or, with nullptr, unsets) one variable for a scope, then unsets
/// it again: the environment is back as ClearKnobs left it for the next case.
class ScopedEnv {
public:
    ScopedEnv(const char* name, const char* value) : name_(name) {
        if (value != nullptr) {
            ::setenv(name, value, 1);
        } else {
            ::unsetenv(name);
        }
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    ScopedEnv(const ScopedEnv&) = delete;
    ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
    const char* name_;
};

/// `read()` under name=value must throw std::invalid_argument whose
/// message names the variable and quotes the value.
template <class Read>
void expect_rejected(const char* name, const char* value, Read read) {
    const ScopedEnv env(name, value);
    try {
        (void)read();
        ADD_FAILURE() << name << "='" << value << "' was accepted";
    } catch (const std::invalid_argument& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(name), std::string::npos) << what;
        EXPECT_NE(what.find(std::string("'") + value + "'"), std::string::npos) << what;
    }
}

// ------------------------------------------------------------ the rule

TEST(KnobRule, UnsignedKind) {
    const auto read = [] { return core::env_unsigned("WAVEHPC_SVC_QUEUE_DEPTH"); };
    {
        const ScopedEnv env("WAVEHPC_SVC_QUEUE_DEPTH", nullptr);
        EXPECT_EQ(read(), std::nullopt);
    }
    {
        const ScopedEnv env("WAVEHPC_SVC_QUEUE_DEPTH", "");
        EXPECT_EQ(read(), std::nullopt);
    }
    {
        const ScopedEnv env("WAVEHPC_SVC_QUEUE_DEPTH", "1");  // domain floor
        EXPECT_EQ(read(), 1U);
    }
    {
        const ScopedEnv env("WAVEHPC_SVC_QUEUE_DEPTH", "18446744073709551615");
        EXPECT_EQ(read(), 18446744073709551615ULL);
    }
    for (const char* bad : {"abc", "6x4", "12abc", "1.5", "0", "-1",
                            "18446744073709551616"}) {
        expect_rejected("WAVEHPC_SVC_QUEUE_DEPTH", bad, read);
    }
    // Narrower domains: u32 fields and the tile edge.
    expect_rejected("WAVEHPC_SVC_RETRY_MAX", "4294967296",
                    [] { return core::env_unsigned("WAVEHPC_SVC_RETRY_MAX"); });
    expect_rejected("WAVEHPC_TILE_ROWS", "65537",
                    [] { return core::env_unsigned("WAVEHPC_TILE_ROWS"); });
    {
        const ScopedEnv env("WAVEHPC_SVC_BATCH_WINDOW_US", "0");  // 0 is in its domain
        EXPECT_EQ(core::env_unsigned("WAVEHPC_SVC_BATCH_WINDOW_US"), 0U);
    }
}

TEST(KnobRule, RealKind) {
    const auto read = [] { return core::env_real("WAVEHPC_SVC_RETRY_JITTER"); };
    {
        const ScopedEnv env("WAVEHPC_SVC_RETRY_JITTER", nullptr);
        EXPECT_EQ(read(), std::nullopt);
    }
    {
        const ScopedEnv env("WAVEHPC_SVC_RETRY_JITTER", "");
        EXPECT_EQ(read(), std::nullopt);
    }
    {
        const ScopedEnv env("WAVEHPC_SVC_RETRY_JITTER", "0.25");
        EXPECT_EQ(read(), 0.25);
    }
    {
        const ScopedEnv env("WAVEHPC_SVC_RETRY_JITTER", "1");  // domain ceiling
        EXPECT_EQ(read(), 1.0);
    }
    for (const char* bad : {"abc", "0.5ms", "7", "-0.1", "nan"}) {
        expect_rejected("WAVEHPC_SVC_RETRY_JITTER", bad, read);
    }
    // The millisecond knobs stop at one hour. This case used to accept
    // "inf", and a service under an infinite watchdog failed every compute.
    expect_rejected("WAVEHPC_SVC_WATCHDOG_MS", "inf",
                    [] { return core::env_real("WAVEHPC_SVC_WATCHDOG_MS"); });
    {
        const ScopedEnv env("WAVEHPC_SVC_BREAKER_THRESHOLD", "inf");  // unbounded above
        EXPECT_EQ(core::env_real("WAVEHPC_SVC_BREAKER_THRESHOLD"),
                  std::numeric_limits<double>::infinity());
    }
}

// ------------------------------------------------------ the number rule

/// What a reader made of a value: the number, or nullopt if it threw.
template <class Read>
auto value_or_rejected(Read read) -> decltype(read()) {
    try {
        return read();
    } catch (const std::invalid_argument&) {
        return std::nullopt;
    }
}

// One table, four readers: the core rule, an env knob, a ChaosPlan field
// and a bench flag agree on every row. The unsigned readers take all of
// [0, 2^64); the real readers take milliseconds in [0, one hour].
TEST(NumberRule, EveryReaderAgreesRowByRow) {
    struct Row {
        const char* text;
        std::optional<std::uint64_t> as_unsigned;
        std::optional<double> as_millis;
    };
    constexpr std::uint64_t kMax = core::knob_row::kU64;
    const Row rows[] = {
        {"0", 0, 0.0},
        {"1996", 1996, 1996.0},
        {"3600000", 3600000, 3600000.0},
        {"3600001", 3600001, std::nullopt},  // past one hour
        {"18446744073709551615", kMax, std::nullopt},
        {"18446744073709551616", std::nullopt, std::nullopt},  // 2^64 does not wrap
        {"18446744073709551619", std::nullopt, std::nullopt},  // overflows in the last digit
        {"99999999999999999999999999", std::nullopt, std::nullopt},
        {"1e3", std::nullopt, 1000.0},
        {".5", std::nullopt, 0.5},
        {"-0", std::nullopt, -0.0},
        {" 5", std::nullopt, std::nullopt},
        {"+5", std::nullopt, std::nullopt},
        {"5 ", std::nullopt, std::nullopt},
        {"0x10", std::nullopt, std::nullopt},
        {"0x1p-1", std::nullopt, std::nullopt},
        {"inf", std::nullopt, std::nullopt},
        {"nan", std::nullopt, std::nullopt},
        {"-1", std::nullopt, std::nullopt},
        {"12x", std::nullopt, std::nullopt},
        // An empty knob reads as unset (nullopt, the default stays); the
        // other readers reject it.
        {"", std::nullopt, std::nullopt},
    };
    for (const Row& row : rows) {
        SCOPED_TRACE(std::string("text '") + row.text + "'");
        const std::string text = row.text;
        EXPECT_EQ(core::parse_unsigned(text), row.as_unsigned);
        EXPECT_EQ(core::parse_real(text, 0.0, core::knob_row::kMaxMillis), row.as_millis);
        {
            const ScopedEnv seed("WAVEHPC_CHAOS_SEED", row.text);
            EXPECT_EQ(value_or_rejected([] { return core::env_unsigned("WAVEHPC_CHAOS_SEED"); }),
                      row.as_unsigned);
        }
        {
            const ScopedEnv watchdog("WAVEHPC_SVC_WATCHDOG_MS", row.text);
            EXPECT_EQ(value_or_rejected([] { return core::env_real("WAVEHPC_SVC_WATCHDOG_MS"); }),
                      row.as_millis);
        }
        const auto chaos_index = value_or_rejected([&]() -> std::optional<std::uint64_t> {
            return wavehpc::svc::ChaosPlan::parse("compute_exact=" + text, 1)
                .compute_error_exact.at(0);
        });
        EXPECT_EQ(chaos_index, row.as_unsigned);
        const auto chaos_stall = value_or_rejected([&]() -> std::optional<double> {
            return wavehpc::svc::ChaosPlan::parse("stall_ms=" + text, 1).stall_seconds;
        });
        EXPECT_EQ(chaos_stall, row.as_millis ? std::optional(*row.as_millis * 1e-3) : std::nullopt);
        wavehpc::bench::CommonArgs args;
        std::string program = "bench";
        std::string flag = "--seed=" + text;
        char* argv[] = {program.data(), flag.data()};
        EXPECT_EQ(wavehpc::bench::parse_bench_args(2, argv, args)
                      ? std::optional(args.seed)
                      : std::nullopt,
                  row.as_unsigned);
    }
}

TEST(KnobRule, TextKind) {
    {
        const ScopedEnv env("WAVEHPC_GOLDEN_DIR", nullptr);
        EXPECT_EQ(core::env_text("WAVEHPC_GOLDEN_DIR"), std::nullopt);
    }
    {
        const ScopedEnv env("WAVEHPC_GOLDEN_DIR", "");
        EXPECT_EQ(core::env_text("WAVEHPC_GOLDEN_DIR"), std::nullopt);
    }
    const ScopedEnv env("WAVEHPC_GOLDEN_DIR", "/srv/golden");
    EXPECT_EQ(core::env_text("WAVEHPC_GOLDEN_DIR"), "/srv/golden");
}

// ------------------------------------------------------------ consumers

// Values the readers before the knob table replaced silently (or clamped).
TEST(KnobConsumers, FormerlySilentValuesNowThrow) {
    expect_rejected("WAVEHPC_SVC_QUEUE_DEPTH", "6x4", [] { return ServiceConfig::from_env(); });
    expect_rejected("WAVEHPC_SVC_RETRY_JITTER", "7", [] { return ServiceConfig::from_env(); });
    expect_rejected("WAVEHPC_SVC_BREAKER_ALPHA", "0", [] { return ServiceConfig::from_env(); });
    expect_rejected("WAVEHPC_TILE_ROWS", "0",
                    [] { return wavehpc::tile::TileConfig::from_env(); });
    expect_rejected("WAVEHPC_FUZZ_SEED", "12abc",
                    [] { return wavehpc::testing::env_seed("WAVEHPC_FUZZ_SEED", 1); });
    expect_rejected("WAVEHPC_SCHED_CASES", "0",
                    [] { return wavehpc::testing::env_cases("WAVEHPC_SCHED_CASES", 12); });
}

TEST(KnobConsumers, ServiceConfigFromEnvEndToEnd) {
    const ServiceConfig defaults;
    {
        const ScopedEnv depth("WAVEHPC_SVC_QUEUE_DEPTH", nullptr);
        const ScopedEnv base("WAVEHPC_SVC_RETRY_BASE_MS", "");
        const ScopedEnv classes("WAVEHPC_SVC_ARENA_SLAB_CLASSES", "");
        const ServiceConfig cfg = ServiceConfig::from_env();
        EXPECT_EQ(cfg.max_queue_depth, defaults.max_queue_depth);
        EXPECT_EQ(cfg.resilience.retry.base_seconds, defaults.resilience.retry.base_seconds);
        EXPECT_EQ(cfg.arena.slab_classes, defaults.arena.slab_classes);
    }
    const ScopedEnv depth("WAVEHPC_SVC_QUEUE_DEPTH", "9");
    const ScopedEnv window("WAVEHPC_SVC_BATCH_WINDOW_US", "0");
    const ScopedEnv base("WAVEHPC_SVC_RETRY_BASE_MS", "3");         // resilience
    const ScopedEnv watchdog("WAVEHPC_SVC_WATCHDOG_MS", "0");       // 0 disables
    const ScopedEnv classes("WAVEHPC_SVC_ARENA_SLAB_CLASSES", "5");  // arena
    const ServiceConfig cfg = ServiceConfig::from_env();
    EXPECT_EQ(cfg.max_queue_depth, 9U);
    EXPECT_EQ(cfg.batch_window_us, 0U);
    EXPECT_EQ(cfg.resilience.retry.base_seconds, 3 * 1e-3);
    EXPECT_EQ(cfg.resilience.watchdog_seconds, 0.0);
    EXPECT_EQ(cfg.arena.slab_classes, 5U);
    // Everything not set keeps its struct default.
    EXPECT_EQ(cfg.max_concurrency, defaults.max_concurrency);
    EXPECT_EQ(cfg.cache_bytes, defaults.cache_bytes);
    EXPECT_EQ(cfg.resilience.retry.max_attempts, defaults.resilience.retry.max_attempts);
    EXPECT_EQ(cfg.resilience.retry.cap_seconds, defaults.resilience.retry.cap_seconds);
    EXPECT_EQ(cfg.resilience.breaker.ewma_alpha, defaults.resilience.breaker.ewma_alpha);
    EXPECT_EQ(cfg.arena.arena_bytes, defaults.arena.arena_bytes);
}

// WAVEHPC_SVC_WATCHDOG_MS=inf (or 1e300) used to be accepted, and a service
// built from it failed every computed request: the watchdog's clock
// conversion overflowed. "No watchdog" is spelled 0.
TEST(KnobConsumers, WatchdogPastOneHourThrows) {
    for (const char* bad : {"inf", "1e300", "3600001"}) {
        expect_rejected("WAVEHPC_SVC_WATCHDOG_MS", bad, [] { return ServiceConfig::from_env(); });
    }
    const ScopedEnv watchdog("WAVEHPC_SVC_WATCHDOG_MS", "3600000");
    EXPECT_DOUBLE_EQ(ServiceConfig::from_env().resilience.watchdog_seconds, 3600.0);
}

TEST(KnobConsumers, ChaosPlanFromEnvAppliesItsSeed) {
    {
        const ScopedEnv plan("WAVEHPC_CHAOS_PLAN", "");
        EXPECT_FALSE(wavehpc::svc::ChaosPlan::from_env().enabled());
    }
    const ScopedEnv plan("WAVEHPC_CHAOS_PLAN", "compute=0.5");
    {
        const ScopedEnv seed("WAVEHPC_CHAOS_SEED", "7");
        EXPECT_EQ(wavehpc::svc::ChaosPlan::from_env().seed, 7U);
    }
    expect_rejected("WAVEHPC_CHAOS_SEED", "7x",
                    [] { return wavehpc::svc::ChaosPlan::from_env(); });
}

TEST(KnobConsumers, GoldenHarnessKnobs) {
    {
        const ScopedEnv dir("WAVEHPC_GOLDEN_DIR", "/srv/golden");
        EXPECT_EQ(wavehpc::testing::golden_dir(), "/srv/golden");
    }
    wavehpc::testing::set_regen_mode(false);
    for (const char* off : {"", "0"}) {
        const ScopedEnv regen("WAVEHPC_REGEN_GOLDEN", off);
        EXPECT_FALSE(wavehpc::testing::regen_mode()) << off;
    }
    for (const char* on : {"1", "yes"}) {
        const ScopedEnv regen("WAVEHPC_REGEN_GOLDEN", on);
        EXPECT_TRUE(wavehpc::testing::regen_mode()) << on;
    }
}

TEST(KnobConsumers, GoldenRegenCreatesAMissingDirectory) {
    const fs::path root = fs::temp_directory_path() /
                          ("wavehpc-golden-" + std::to_string(::getpid()));
    const fs::path dir = root / "nested" / "golden";
    fs::remove_all(root);
    const ScopedEnv golden("WAVEHPC_GOLDEN_DIR", dir.c_str());
    wavehpc::testing::GoldenArtifact artifact;
    artifact.set("value", 0.25);
    {
        const ScopedEnv regen("WAVEHPC_REGEN_GOLDEN", "1");
        EXPECT_EQ(artifact.check("regen_probe", 0.0), "");
    }
    EXPECT_EQ(artifact.check("regen_probe", 0.0), "");
    fs::remove_all(root);
}

// ------------------------------------------------------------ lint

std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(KnobLint, OnlyTheKnobModuleReadsTheEnvironment) {
    const fs::path root = WAVEHPC_SOURCE_DIR;
    const fs::path knob_module = root / "src/core/knobs.cpp";
    const std::regex call(R"(getenv\s*\()");
    const std::set<std::string> exts = {".cpp", ".hpp", ".h", ".cc"};
    std::vector<std::string> offenders;
    std::size_t scanned = 0;
    for (const char* dir : {"src", "bench", "tests", "examples"}) {
        for (const auto& entry : fs::recursive_directory_iterator(root / dir)) {
            if (!entry.is_regular_file() || exts.count(entry.path().extension().string()) == 0) {
                continue;
            }
            ++scanned;
            if (entry.path() == knob_module) continue;
            if (std::regex_search(read_file(entry.path()), call)) {
                offenders.push_back(fs::relative(entry.path(), root).string());
            }
        }
    }
    EXPECT_GT(scanned, 100U) << "scanned the wrong tree: " << root;
    EXPECT_TRUE(offenders.empty())
        << "read WAVEHPC_* knobs through core/knobs.hpp instead of the environment: "
        << ::testing::PrintToString(offenders);
}

TEST(KnobLint, ReadmeKnobTableMatchesKnobTable) {
    const std::string readme = read_file(fs::path(WAVEHPC_SOURCE_DIR) / "README.md");
    const std::size_t begin = readme.find("### Environment knobs");
    ASSERT_NE(begin, std::string::npos);
    const std::size_t end = readme.find("\n#", begin + 1);
    const std::string section = readme.substr(begin, end - begin);

    std::set<std::string> documented;
    const std::regex row(R"(\n\| `(WAVEHPC_[A-Z0-9_]+)` \|)");
    for (auto it = std::sregex_iterator(section.begin(), section.end(), row);
         it != std::sregex_iterator(); ++it) {
        documented.insert((*it)[1]);
    }
    std::set<std::string> tabled;
    for (const core::Knob& k : core::kKnobs) tabled.insert(k.name);

    std::vector<std::string> undocumented;
    std::vector<std::string> stale;
    std::set_difference(tabled.begin(), tabled.end(), documented.begin(), documented.end(),
                        std::back_inserter(undocumented));
    std::set_difference(documented.begin(), documented.end(), tabled.begin(), tabled.end(),
                        std::back_inserter(stale));
    EXPECT_TRUE(undocumented.empty())
        << "kKnobs rows missing from README: " << ::testing::PrintToString(undocumented);
    EXPECT_TRUE(stale.empty())
        << "README rows no code reads: " << ::testing::PrintToString(stale);
    EXPECT_EQ(tabled.size(), core::kKnobs.size()) << "duplicate kKnobs rows";
}

}  // namespace
