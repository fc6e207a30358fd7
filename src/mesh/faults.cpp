#include "mesh/faults.hpp"

#include <algorithm>
#include <array>

#include "core/splitmix.hpp"

namespace wavehpc::mesh {

namespace {

using core::mix64;

constexpr std::array<std::uint32_t, 256> make_crc_table() {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1) : c >> 1;
        }
        table[i] = c;
    }
    return table;
}

constexpr auto kCrcTable = make_crc_table();

thread_local std::uint64_t t_crc_bytes = 0;

/// a * b modulo the CRC polynomial, both in reflected bit order (bit 31 is
/// x^0) — zlib's multmodp.
constexpr std::uint32_t multmodp(std::uint32_t a, std::uint32_t b) noexcept {
    std::uint32_t m = 1U << 31;
    std::uint32_t p = 0;
    for (;;) {
        if ((a & m) != 0) {
            p ^= b;
            if ((a & (m - 1)) == 0) break;
        }
        m >>= 1;
        b = (b & 1U) != 0 ? (b >> 1) ^ 0xEDB88320U : b >> 1;
    }
    return p;
}

/// kX2n[k] = x^(2^k) modulo the polynomial.
constexpr std::array<std::uint32_t, 64> make_x2n_table() {
    std::array<std::uint32_t, 64> table{};
    std::uint32_t p = 1U << 30;  // x^1
    for (auto& t : table) {
        t = p;
        p = multmodp(p, p);
    }
    return table;
}

constexpr auto kX2n = make_x2n_table();

/// Uniform double in [0, 1) from the top 53 bits.
[[nodiscard]] double u01(std::uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Independent deterministic lane per (link rule, frame index): link draws
/// never consume from the plan-wide decide() stream.
[[nodiscard]] std::uint64_t link_draw(std::uint64_t seed, std::size_t rule,
                                      std::uint64_t index, unsigned lane) {
    const std::uint64_t rule_key =
        mix64(seed ^ (static_cast<std::uint64_t>(rule) * 0x9E3779B97F4A7C15ULL +
                      0x4C494E4BULL));  // "LINK"
    return mix64(rule_key ^ (index * 4 + lane));
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
    t_crc_bytes += data.size();
    std::uint32_t c = seed ^ 0xFFFFFFFFU;
    for (std::byte b : data) {
        c = kCrcTable[(c ^ static_cast<std::uint32_t>(b)) & 0xFFU] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFU;
}

std::uint32_t crc32_shift(std::uint32_t crc, std::uint64_t len) noexcept {
    // Multiply by x^(8 * len): one table factor per set bit of len, with
    // the table indexed from x^8 (k = 3) upward (len < 2^61 bytes).
    std::uint32_t op = 1U << 31;  // x^0
    for (std::size_t k = 3; len != 0 && k < kX2n.size(); len >>= 1, ++k) {
        if ((len & 1U) != 0) op = multmodp(kX2n[k], op);
    }
    return multmodp(op, crc);
}

std::uint64_t crc32_bytes_hashed() noexcept { return t_crc_bytes; }

bool FaultPlan::enabled() const noexcept {
    return drop_probability > 0.0 || corrupt_probability > 0.0 ||
           !drop_exact.empty() || !degradations.empty() || !failures.empty() ||
           !links.empty();
}

FaultDecision FaultPlan::decide(std::uint64_t index) const {
    FaultDecision d;
    if (std::find(drop_exact.begin(), drop_exact.end(), index) != drop_exact.end()) {
        d.drop = true;
        return d;
    }
    if (drop_probability > 0.0 &&
        u01(mix64(seed ^ (index * 2 + 0))) < drop_probability) {
        d.drop = true;
        return d;
    }
    if (corrupt_probability > 0.0) {
        const std::uint64_t h = mix64(seed ^ (index * 2 + 1));
        if (u01(h) < corrupt_probability) {
            d.corrupt = true;
            const std::uint64_t h2 = mix64(h);
            d.flip_byte = static_cast<std::size_t>(h2 >> 3);
            d.flip_bit = static_cast<unsigned>(h2 & 7U);
        }
    }
    return d;
}

FaultDecision FaultPlan::decide_frame(std::uint64_t index, int src, int dst,
                                      int tag, double t) const {
    FaultDecision d = decide(index);
    for (std::size_t r = 0; r < links.size(); ++r) {
        const LinkFault& lf = links[r];
        if (!lf.matches(src, dst, tag, t)) continue;
        d.delay += lf.delay_seconds;
        if (!d.drop && lf.drop_probability > 0.0 &&
            u01(link_draw(seed, r, index, 0)) < lf.drop_probability) {
            d.drop = true;
        }
        if (!d.drop && !d.corrupt && lf.corrupt_probability > 0.0) {
            const std::uint64_t h = link_draw(seed, r, index, 1);
            if (u01(h) < lf.corrupt_probability) {
                d.corrupt = true;
                const std::uint64_t h2 = mix64(h);
                d.flip_byte = static_cast<std::size_t>(h2 >> 3);
                d.flip_bit = static_cast<unsigned>(h2 & 7U);
            }
        }
    }
    if (d.drop) {
        d.corrupt = false;
        d.delay = 0.0;
    }
    return d;
}

double FaultPlan::degradation_factor(double t) const noexcept {
    double f = 1.0;
    for (const LinkDegradation& w : degradations) {
        if (t >= w.t_begin && t < w.t_end) f = std::max(f, w.factor);
    }
    return f;
}

std::optional<double> FaultPlan::fail_time(int rank) const noexcept {
    std::optional<double> at;
    for (const NodeFailure& nf : failures) {
        if (nf.rank != rank) continue;
        if (!at.has_value() || nf.at < *at) at = nf.at;
    }
    return at;
}

}  // namespace wavehpc::mesh
