#include "svc/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
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

/// A piece of the spec and its byte offset in the whole spec string: a fat
/// chaos spec in an env var is unreadable without a position to jump to.
struct Piece {
    std::string_view text;
    std::size_t off = 0;
};

/// `whole` split on `sep`, empty pieces included, each with its offset.
[[nodiscard]] std::vector<Piece> split(Piece whole, char sep) {
    std::vector<Piece> out;
    for (std::size_t p = 0;;) {
        const std::size_t end = std::min(whole.text.find(sep, p), whole.text.size());
        out.push_back({whole.text.substr(p, end - p), whole.off + p});
        if (end == whole.text.size()) return out;
        p = end + 1;
    }
}

[[noreturn]] void parse_fail(std::string_view key, std::string_view what, Piece token) {
    throw std::invalid_argument("ChaosPlan: '" + std::string(key) + "' " + std::string(what) +
                                ", got '" + std::string(token.text) + "' (byte " +
                                std::to_string(token.off) + ")");
}

// The three field kinds, each read by the one number rule (core/knobs.hpp).

[[nodiscard]] double probability(std::string_view key, Piece v) {
    const auto p = core::parse_real(v.text, 0.0, 1.0);
    if (!p) parse_fail(key, "needs a probability in [0, 1]", v);
    return *p;
}

/// A millisecond value in [0, one hour], in seconds.
[[nodiscard]] double millis(std::string_view key, Piece v) {
    const auto ms = core::parse_real(v.text, 0.0, core::knob_row::kMaxMillis);
    if (!ms) parse_fail(key, "needs a millisecond value in [0, 3600000] (one hour)", v);
    return *ms * 1e-3;
}

[[nodiscard]] std::uint64_t index(std::string_view key, Piece v) {
    const auto i = core::parse_unsigned(v.text);
    if (!i) parse_fail(key, "needs an unsigned integer below 2^64", v);
    return *i;
}

/// The entries of a `sep`-separated list, empty ones skipped. A list that
/// names nothing would inject nothing and silently test nothing.
[[nodiscard]] std::vector<Piece> entries(std::string_view key, Piece list, char sep,
                                         std::string_view entry) {
    std::vector<Piece> out = split(list, sep);
    std::erase_if(out, [](const Piece& e) { return e.text.empty(); });
    if (out.empty()) parse_fail(key, "needs at least one " + std::string(entry), list);
    return out;
}

/// One SHARD:START_MS:DURATION_MS[:STALL_MS] entry (STALL_MS is
/// shard_slow-only).
[[nodiscard]] ShardEvent shard_event(std::string_view key, Piece entry, ShardEventKind kind) {
    const std::vector<Piece> f = split(entry, ':');
    const bool slow = kind == ShardEventKind::Slow;
    if (f.size() < 3 || f.size() > (slow ? 4U : 3U)) {
        parse_fail(key,
                   slow ? "entries are SHARD:START_MS:DURATION_MS[:STALL_MS]"
                        : "entries are SHARD:START_MS:DURATION_MS",
                   entry);
    }
    ShardEvent ev;
    ev.kind = kind;
    ev.shard = static_cast<std::size_t>(index(key, f[0]));
    ev.start_seconds = millis(key, f[1]);
    ev.duration_seconds = millis(key, f[2]);
    if (f.size() == 4) ev.stall_seconds = millis(key, f[3]);
    return ev;
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
    const auto shard_events = [&plan](std::string_view key, Piece value, ShardEventKind kind) {
        for (const Piece& e : entries(key, value, ';', "SHARD:START_MS:DURATION_MS entry")) {
            plan.shard_events.push_back(shard_event(key, e, kind));
        }
    };
    for (const Piece& item : split({spec, 0}, ',')) {
        if (item.text.empty()) continue;
        const std::size_t eq = item.text.find('=');
        if (eq == std::string_view::npos) {
            throw std::invalid_argument("ChaosPlan: expected key=value, got '" +
                                        std::string(item.text) + "' (byte " +
                                        std::to_string(item.off) + ")");
        }
        const std::string_view key = item.text.substr(0, eq);
        const Piece value{item.text.substr(eq + 1), item.off + eq + 1};
        if (key == "compute") {
            plan.compute_error_probability = probability(key, value);
        } else if (key == "alloc") {
            plan.alloc_failure_probability = probability(key, value);
        } else if (key == "stall") {
            plan.stall_probability = probability(key, value);
        } else if (key == "stall_ms") {
            plan.stall_seconds = millis(key, value);
        } else if (key == "corrupt") {
            plan.corrupt_probability = probability(key, value);
        } else if (key == "pool_stall") {
            plan.pool_stall_probability = probability(key, value);
        } else if (key == "pool_stall_ms") {
            plan.pool_stall_seconds = millis(key, value);
        } else if (key == "shard_kill") {
            shard_events(key, value, ShardEventKind::Kill);
        } else if (key == "shard_partition") {
            shard_events(key, value, ShardEventKind::Partition);
        } else if (key == "shard_slow") {
            shard_events(key, value, ShardEventKind::Slow);
        } else if (key == "compute_exact") {
            for (const Piece& e : entries(key, value, ':', "attempt index")) {
                plan.compute_error_exact.push_back(index(key, e));
            }
        } else {
            throw std::invalid_argument("ChaosPlan: unknown key '" + std::string(key) +
                                        "' (byte " + std::to_string(item.off) + ")");
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
