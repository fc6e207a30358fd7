#include "mesh/faults.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

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

// ------------------------------------------------------------- spec parsing

[[noreturn]] void parse_fail(const std::string& what, std::string_view token,
                             std::size_t offset) {
    throw std::invalid_argument("FaultPlan: " + what + " '" +
                                std::string(token) + "' (byte " +
                                std::to_string(offset) + ")");
}

[[nodiscard]] double parse_double_at(std::string_view token,
                                     std::size_t offset,
                                     const std::string& what) {
    if (token.empty()) parse_fail("empty " + what, token, offset);
    const std::string buf(token);
    char* end = nullptr;
    const double v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size()) {
        parse_fail("invalid " + what, token, offset);
    }
    return v;
}

[[nodiscard]] double parse_probability_at(std::string_view token,
                                          std::size_t offset) {
    const double v = parse_double_at(token, offset, "probability");
    // Written so NaN fails too: every comparison with NaN is false.
    if (!(v >= 0.0 && v <= 1.0)) {
        parse_fail("probability out of [0,1]", token, offset);
    }
    return v;
}

[[nodiscard]] std::uint64_t parse_u64_at(std::string_view token,
                                         std::size_t offset,
                                         const std::string& what) {
    if (token.empty()) parse_fail("empty " + what, token, offset);
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t v = 0;
    for (char c : token) {
        if (c < '0' || c > '9') parse_fail("invalid " + what, token, offset);
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (v > (kMax - digit) / 10) {
            parse_fail(what + " out of range", token, offset);
        }
        v = v * 10 + digit;
    }
    return v;
}

/// Non-negative integer token that fits an int (ranks, tags).
[[nodiscard]] int parse_int_at(std::string_view token, std::size_t offset,
                               const std::string& what) {
    const std::uint64_t v = parse_u64_at(token, offset, what);
    if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
        parse_fail(what + " out of range", token, offset);
    }
    return static_cast<int>(v);
}

/// Millisecond integer token → seconds.
[[nodiscard]] double parse_millis_at(std::string_view token,
                                     std::size_t offset) {
    return static_cast<double>(parse_u64_at(token, offset, "milliseconds")) *
           1e-3;
}

/// Rank token: '*' = wildcard, else a non-negative integer.
[[nodiscard]] int parse_rank_at(std::string_view token, std::size_t offset) {
    if (token == "*") return -1;
    return parse_int_at(token, offset, "rank");
}

/// Split `body` on `sep`, invoking fn(piece, offset_of_piece_in_spec).
template <typename Fn>
void for_each_piece(std::string_view body, std::size_t body_offset, char sep,
                    Fn&& fn) {
    std::size_t start = 0;
    while (start <= body.size()) {
        std::size_t end = body.find(sep, start);
        if (end == std::string_view::npos) end = body.size();
        fn(body.substr(start, end - start), body_offset + start);
        if (end == body.size()) break;
        start = end + 1;
    }
}

/// One link rule: SRC>DST[@TAG]:T0_MS:T1_MS:DROP[:CORRUPT[:DELAY_MS]].
[[nodiscard]] LinkFault parse_link_at(std::string_view token,
                                      std::size_t offset) {
    std::vector<std::string_view> parts;
    std::vector<std::size_t> offsets;
    for_each_piece(token, offset, ':', [&](std::string_view p, std::size_t o) {
        parts.push_back(p);
        offsets.push_back(o);
    });
    if (parts.size() < 4 || parts.size() > 6) {
        parse_fail("link rule needs SRC>DST:T0_MS:T1_MS:DROP[:CORRUPT[:DELAY_MS]]",
                   token, offset);
    }
    LinkFault lf;
    std::string_view pair = parts[0];
    std::size_t pair_off = offsets[0];
    const std::size_t at = pair.find('@');
    if (at != std::string_view::npos) {
        lf.tag = parse_int_at(pair.substr(at + 1), pair_off + at + 1, "tag");
        pair = pair.substr(0, at);
    }
    const std::size_t gt = pair.find('>');
    if (gt == std::string_view::npos) {
        parse_fail("link endpoints need SRC>DST", parts[0], pair_off);
    }
    lf.src = parse_rank_at(pair.substr(0, gt), pair_off);
    lf.dst = parse_rank_at(pair.substr(gt + 1), pair_off + gt + 1);
    lf.t_begin = parse_millis_at(parts[1], offsets[1]);
    lf.t_end = parse_millis_at(parts[2], offsets[2]);
    if (lf.t_end < lf.t_begin) {
        parse_fail("link window ends before it begins", token, offset);
    }
    lf.drop_probability = parse_probability_at(parts[3], offsets[3]);
    if (parts.size() > 4) {
        lf.corrupt_probability = parse_probability_at(parts[4], offsets[4]);
    }
    if (parts.size() > 5) {
        lf.delay_seconds = parse_millis_at(parts[5], offsets[5]);
    }
    return lf;
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

FaultPlan FaultPlan::parse(std::string_view spec, std::uint64_t seed) {
    FaultPlan plan;
    plan.seed = seed;
    for_each_piece(spec, 0, ',', [&](std::string_view item, std::size_t off) {
        if (item.empty()) return;  // tolerate trailing/double commas
        const std::size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
            parse_fail("expected key=value", item, off);
        }
        const std::string_view key = item.substr(0, eq);
        const std::string_view val = item.substr(eq + 1);
        const std::size_t val_off = off + eq + 1;
        if (key == "drop") {
            plan.drop_probability = parse_probability_at(val, val_off);
        } else if (key == "corrupt") {
            plan.corrupt_probability = parse_probability_at(val, val_off);
        } else if (key == "drop_exact") {
            for_each_piece(val, val_off, ':',
                           [&](std::string_view p, std::size_t o) {
                               plan.drop_exact.push_back(
                                   parse_u64_at(p, o, "message index"));
                           });
        } else if (key == "fail") {
            for_each_piece(val, val_off, ';', [&](std::string_view p,
                                                  std::size_t o) {
                const std::size_t colon = p.find(':');
                if (colon == std::string_view::npos) {
                    parse_fail("fail event needs RANK:AT_MS", p, o);
                }
                NodeFailure nf;
                nf.rank = parse_int_at(p.substr(0, colon), o, "rank");
                nf.at = parse_millis_at(p.substr(colon + 1), o + colon + 1);
                plan.failures.push_back(nf);
            });
        } else if (key == "degrade") {
            for_each_piece(val, val_off, ';', [&](std::string_view p,
                                                  std::size_t o) {
                std::vector<std::string_view> parts;
                std::vector<std::size_t> offs;
                for_each_piece(p, o, ':', [&](std::string_view q,
                                              std::size_t qo) {
                    parts.push_back(q);
                    offs.push_back(qo);
                });
                if (parts.size() != 3) {
                    parse_fail("degrade window needs T0_MS:T1_MS:FACTOR", p, o);
                }
                LinkDegradation w;
                w.t_begin = parse_millis_at(parts[0], offs[0]);
                w.t_end = parse_millis_at(parts[1], offs[1]);
                w.factor = parse_double_at(parts[2], offs[2], "factor");
                if (!(std::isfinite(w.factor) && w.factor >= 1.0)) {
                    parse_fail("degrade factor must be finite and >= 1",
                               parts[2], offs[2]);
                }
                plan.degradations.push_back(w);
            });
        } else if (key == "link") {
            for_each_piece(val, val_off, ';',
                           [&](std::string_view p, std::size_t o) {
                               plan.links.push_back(parse_link_at(p, o));
                           });
        } else {
            parse_fail("unknown key", key, off);
        }
    });
    return plan;
}

}  // namespace wavehpc::mesh
