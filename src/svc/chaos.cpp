#include "svc/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <thread>

#include "core/knobs.hpp"
#include "core/splitmix.hpp"

namespace wavehpc::svc {

namespace {

using core::mix64;

[[nodiscard]] double u01(std::uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// Independent per-fault lanes: one draw per (seed, index, lane).
enum Lane : std::uint64_t {
    kComputeLane = 0,
    kAllocLane = 1,
    kStallLane = 2,
    kCorruptLane = 3,
    kPoolLane = 4,
};

[[nodiscard]] std::uint64_t lane_draw(std::uint64_t seed, std::uint64_t index,
                                      std::uint64_t lane) {
    return mix64(seed ^ (index * 8 + lane));
}

/// Parse errors name the offending token AND its byte offset in the spec
/// string, mirroring mesh::FaultPlan::parse — a fat chaos spec in an env
/// var is unreadable without a position to jump to.
[[noreturn]] void parse_fail(std::string_view key, const std::string& what,
                             std::string_view token, std::size_t offset) {
    throw std::invalid_argument("ChaosPlan: '" + std::string(key) + "' " +
                                what + ", got '" + std::string(token) +
                                "' (byte " + std::to_string(offset) + ")");
}

[[nodiscard]] double parse_probability(std::string_view key, std::string_view text,
                                       std::size_t off) {
    char* end = nullptr;
    const std::string owned(text);
    const double v = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size() || !(v >= 0.0) || v > 1.0) {
        parse_fail(key, "needs a probability in [0, 1]", text, off);
    }
    return v;
}

/// Upper bound of every millisecond field: one hour. A longer stall or
/// window outlasts any run, and sleep_for's integer cast overflows on the
/// largest doubles.
constexpr double kMaxMillis = 3'600'000.0;

[[nodiscard]] double parse_millis(std::string_view key, std::string_view text,
                                  std::size_t off) {
    char* end = nullptr;
    const std::string owned(text);
    const double v = std::strtod(owned.c_str(), &end);
    if (end != owned.c_str() + owned.size() || !(v >= 0.0 && v <= kMaxMillis)) {
        parse_fail(key, "needs a millisecond value in [0, 3600000] (one hour)", text, off);
    }
    return v * 1e-3;
}

[[nodiscard]] std::uint64_t parse_uint(std::string_view key, std::string_view num,
                                       std::size_t off) {
    if (num.empty()) {
        parse_fail(key, "has an empty numeric field", num, off);
    }
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t v = 0;
    for (const char c : num) {
        if (c < '0' || c > '9') {
            parse_fail(key, "needs unsigned integers", num, off);
        }
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (kMax - digit) / 10) {
            parse_fail(key, "needs integers below 2^64", num, off);
        }
        v = v * 10 + digit;
    }
    return v;
}

/// One SHARD:START_MS:DURATION_MS[:STALL_MS] entry of a shard-event list.
/// `off` is the entry's byte offset in the full spec string.
[[nodiscard]] ShardEvent parse_shard_event(std::string_view key,
                                           std::string_view text, std::size_t off,
                                           ShardEventKind kind) {
    std::vector<std::string_view> fields;
    std::vector<std::size_t> offsets;
    std::size_t p = 0;
    while (p <= text.size()) {
        std::size_t colon = text.find(':', p);
        if (colon == std::string_view::npos) colon = text.size();
        fields.push_back(text.substr(p, colon - p));
        offsets.push_back(off + p);
        p = colon + 1;
    }
    const std::size_t want_max = kind == ShardEventKind::Slow ? 4 : 3;
    if (fields.size() < 3 || fields.size() > want_max) {
        parse_fail(key,
                   std::string("entries are SHARD:START_MS:DURATION_MS") +
                       (kind == ShardEventKind::Slow ? "[:STALL_MS]" : ""),
                   text, off);
    }
    ShardEvent ev;
    ev.kind = kind;
    ev.shard = static_cast<std::size_t>(parse_uint(key, fields[0], offsets[0]));
    ev.start_seconds = parse_millis(key, fields[1], offsets[1]);
    ev.duration_seconds = parse_millis(key, fields[2], offsets[2]);
    if (fields.size() == 4) ev.stall_seconds = parse_millis(key, fields[3], offsets[3]);
    return ev;
}

void parse_shard_events(std::string_view key, std::string_view value,
                        std::size_t off, ShardEventKind kind,
                        std::vector<ShardEvent>& out) {
    bool any = false;
    std::size_t p = 0;
    while (p <= value.size()) {
        std::size_t semi = value.find(';', p);
        if (semi == std::string_view::npos) semi = value.size();
        const std::string_view item = value.substr(p, semi - p);
        if (!item.empty()) {
            out.push_back(parse_shard_event(key, item, off + p, kind));
            any = true;
        }
        p = semi + 1;
    }
    if (!any) {
        // A key that injects nothing would silently test nothing.
        parse_fail(key, "needs at least one SHARD:START_MS:DURATION_MS entry",
                   value, off);
    }
}

}  // namespace

void sleep_seconds(double seconds) {
    if (seconds <= 0.0) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

bool ChaosPlan::enabled() const noexcept {
    return compute_error_probability > 0.0 || alloc_failure_probability > 0.0 ||
           stall_probability > 0.0 || corrupt_probability > 0.0 ||
           pool_stall_probability > 0.0 || !compute_error_exact.empty() ||
           !shard_events.empty();
}

ChaosDecision ChaosPlan::decide(std::uint64_t index) const {
    ChaosDecision d;
    d.draw = index;
    if (std::find(compute_error_exact.begin(), compute_error_exact.end(), index) !=
        compute_error_exact.end()) {
        d.compute_error = true;
        return d;
    }
    if (stall_probability > 0.0 &&
        u01(lane_draw(seed, index, kStallLane)) < stall_probability) {
        d.stall_seconds = stall_seconds;
    }
    if (alloc_failure_probability > 0.0 &&
        u01(lane_draw(seed, index, kAllocLane)) < alloc_failure_probability) {
        d.alloc_failure = true;
        return d;  // the attempt dies before computing; nothing to corrupt
    }
    if (compute_error_probability > 0.0 &&
        u01(lane_draw(seed, index, kComputeLane)) < compute_error_probability) {
        d.compute_error = true;
        return d;
    }
    if (corrupt_probability > 0.0) {
        const std::uint64_t h = lane_draw(seed, index, kCorruptLane);
        if (u01(h) < corrupt_probability) {
            d.corrupt = true;
            const std::uint64_t h2 = mix64(h);
            d.corrupt_word = h2 >> 5;
            d.corrupt_bit = static_cast<unsigned>(h2 & 31U);
        }
    }
    return d;
}

double ChaosPlan::pool_stall(std::uint64_t index) const {
    if (pool_stall_probability <= 0.0) return 0.0;
    return u01(lane_draw(seed, index, kPoolLane)) < pool_stall_probability
               ? pool_stall_seconds
               : 0.0;
}

ChaosPlan ChaosPlan::parse(std::string_view spec, std::uint64_t seed) {
    ChaosPlan plan;
    plan.seed = seed;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string_view::npos) comma = spec.size();
        const std::string_view item = spec.substr(pos, comma - pos);
        const std::size_t item_off = pos;
        pos = comma + 1;
        if (item.empty()) continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
            throw std::invalid_argument("ChaosPlan: expected key=value, got '" +
                                        std::string(item) + "' (byte " +
                                        std::to_string(item_off) + ")");
        }
        const std::string_view key = item.substr(0, eq);
        const std::string_view value = item.substr(eq + 1);
        const std::size_t value_off = item_off + eq + 1;
        if (key == "compute") {
            plan.compute_error_probability = parse_probability(key, value, value_off);
        } else if (key == "alloc") {
            plan.alloc_failure_probability = parse_probability(key, value, value_off);
        } else if (key == "stall") {
            plan.stall_probability = parse_probability(key, value, value_off);
        } else if (key == "stall_ms") {
            plan.stall_seconds = parse_millis(key, value, value_off);
        } else if (key == "corrupt") {
            plan.corrupt_probability = parse_probability(key, value, value_off);
        } else if (key == "pool_stall") {
            plan.pool_stall_probability = parse_probability(key, value, value_off);
        } else if (key == "pool_stall_ms") {
            plan.pool_stall_seconds = parse_millis(key, value, value_off);
        } else if (key == "shard_kill") {
            parse_shard_events(key, value, value_off, ShardEventKind::Kill,
                               plan.shard_events);
        } else if (key == "shard_partition") {
            parse_shard_events(key, value, value_off, ShardEventKind::Partition,
                               plan.shard_events);
        } else if (key == "shard_slow") {
            parse_shard_events(key, value, value_off, ShardEventKind::Slow,
                               plan.shard_events);
        } else if (key == "compute_exact") {
            std::size_t p = 0;
            while (p <= value.size()) {
                std::size_t colon = value.find(':', p);
                if (colon == std::string_view::npos) colon = value.size();
                const std::string_view num = value.substr(p, colon - p);
                if (!num.empty()) {
                    plan.compute_error_exact.push_back(
                        parse_uint(key, num, value_off + p));
                }
                p = colon + 1;
            }
        } else {
            throw std::invalid_argument("ChaosPlan: unknown key '" +
                                        std::string(key) + "' (byte " +
                                        std::to_string(item_off) + ")");
        }
    }
    std::stable_sort(plan.shard_events.begin(), plan.shard_events.end(),
                     [](const ShardEvent& a, const ShardEvent& b) {
                         return a.start_seconds < b.start_seconds;
                     });
    return plan;
}

ChaosPlan ChaosPlan::from_env() {
    const auto spec = core::env_text("WAVEHPC_CHAOS_PLAN");
    if (!spec) return {};
    return parse(*spec, core::env_unsigned("WAVEHPC_CHAOS_SEED").value_or(1));
}

void ChaosEngine::set_plan(ChaosPlan plan) {
    std::lock_guard lk(mu_);
    plan_ = std::move(plan);
}

bool ChaosEngine::enabled() const {
    std::lock_guard lk(mu_);
    return plan_.enabled();
}

ChaosDecision ChaosEngine::next_compute_decision() {
    std::lock_guard lk(mu_);
    if (!plan_.enabled()) return {};
    ++stats_.draws;
    return plan_.decide(next_draw_++);
}

void ChaosEngine::inject_before_compute(const ChaosDecision& d) {
    if (d.stall_seconds > 0.0) {
        {
            std::lock_guard lk(mu_);
            ++stats_.stalls;
        }
        sleep_seconds(d.stall_seconds);
    }
    if (d.alloc_failure) {
        {
            std::lock_guard lk(mu_);
            ++stats_.alloc_failures;
        }
        throw std::bad_alloc();
    }
    if (d.compute_error) {
        {
            std::lock_guard lk(mu_);
            ++stats_.compute_errors;
        }
        throw ChaosComputeError(d.draw);
    }
}

void ChaosEngine::corrupt_result(const ChaosDecision& d, core::Pyramid& pyr) {
    if (!d.corrupt) return;
    std::vector<std::span<float>> bands;
    bands.reserve(1 + 3 * pyr.levels.size());
    for (auto& level : pyr.levels) {
        bands.push_back(level.lh.flat());
        bands.push_back(level.hl.flat());
        bands.push_back(level.hh.flat());
    }
    bands.push_back(pyr.approx.flat());
    std::uint64_t words = 0;
    for (const auto& b : bands) words += b.size();
    if (words == 0) return;
    std::uint64_t target = d.corrupt_word % words;
    for (auto& b : bands) {
        if (target < b.size()) {
            float& f = b[static_cast<std::size_t>(target)];
            std::uint32_t bits = 0;
            std::memcpy(&bits, &f, sizeof bits);
            bits ^= 1U << d.corrupt_bit;
            std::memcpy(&f, &bits, sizeof bits);
            break;
        }
        target -= b.size();
    }
    std::lock_guard lk(mu_);
    ++stats_.corruptions;
}

std::function<void()> ChaosEngine::pool_observer() {
    {
        std::lock_guard lk(mu_);
        if (plan_.pool_stall_probability <= 0.0) return {};
    }
    return [this] {
        double stall = 0.0;
        {
            std::lock_guard lk(mu_);
            stall = plan_.pool_stall(next_pool_draw_++);
            if (stall > 0.0) ++stats_.pool_stalls;
        }
        sleep_seconds(stall);
    };
}

ChaosStats ChaosEngine::stats() const {
    std::lock_guard lk(mu_);
    return stats_;
}

}  // namespace wavehpc::svc
