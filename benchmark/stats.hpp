#pragma once
// Statistics rules shared by every wavebench workload, header-only so
// test_stats.cpp can pin them without the wavehpc libraries:
//
//   * the percentile rule — a percentile is reported only when at least
//     kMinTailSamples samples lie beyond it; otherwise the next lower
//     supported percentile is reported instead and the caller says so;
//   * interval coverage — a span's self time is its duration minus the part
//     its child spans cover, and a root span's unattributed time is the same
//     quantity for a request;
//   * residuals — a stage the benchmark cannot time directly is the total
//     minus the stages it can (finish = total - queue - compute);
//   * the regression-bound check used against BENCHMARK.json bounds.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace wavebench {

/// Percentiles the benchmark may report, highest first.
inline constexpr double kSupportedPercentiles[] = {0.999, 0.99, 0.95, 0.90, 0.75, 0.50};
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank index of percentile p in n sorted samples: the smallest
/// index i with (i + 1) / n >= p. n must be > 0.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, double p) {
    // The epsilon keeps 0.99 * 1000 from rounding up to rank 991.
    const double rank = std::ceil(p * static_cast<double>(n) - 1e-9);
    const auto r = static_cast<std::size_t>(std::max(rank, 1.0));
    return std::min(r, n) - 1;
}

/// Samples strictly above the nearest-rank p-th percentile.
[[nodiscard]] inline std::size_t samples_beyond(std::size_t n, double p) {
    return n == 0 ? 0 : n - 1 - nearest_rank(n, p);
}

struct Percentile {
    double requested = 0.0;
    double used = 0.0;  ///< the percentile actually reported (<= requested)
    double value = 0.0;
    std::size_t samples = 0;
    /// Even the lowest candidate lacks kMinTailSamples beyond it (or there
    /// were no samples at all): the value is reported but not trustworthy.
    bool short_tail = false;

    [[nodiscard]] bool fell_back() const noexcept { return used != requested; }
};

/// Percentile `p` of `samples` under the benchmark's rule: the highest
/// supported percentile <= p with at least kMinTailSamples samples beyond
/// it. `p` itself is always a candidate, even if unlisted.
[[nodiscard]] inline Percentile percentile(std::vector<double> samples, double p) {
    Percentile out;
    out.requested = p;
    out.used = p;
    out.samples = samples.size();
    if (samples.empty()) {
        out.short_tail = true;
        return out;
    }
    std::vector<double> candidates{p};
    for (const double s : kSupportedPercentiles) {
        if (s < p) candidates.push_back(s);
    }
    out.used = candidates.back();
    out.short_tail = true;
    for (const double c : candidates) {
        if (samples_beyond(samples.size(), c) >= kMinTailSamples) {
            out.used = c;
            out.short_tail = false;
            break;
        }
    }
    const std::size_t idx = nearest_rank(samples.size(), out.used);
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                     samples.end());
    out.value = samples[idx];
    return out;
}

/// Plain median (nearest rank), for quantities with no tail rule.
[[nodiscard]] inline double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    const std::size_t idx = nearest_rank(samples.size(), 0.5);
    std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                     samples.end());
    return samples[idx];
}

/// `total` minus the stages measured inside it, clamped at zero: the parts
/// come from different clocks (client vs service stamps), so a small
/// negative difference is measurement skew, not time.
[[nodiscard]] inline double residual(double total, std::initializer_list<double> parts) {
    double rest = total;
    for (const double p : parts) rest -= p;
    return std::max(rest, 0.0);
}

struct Interval {
    std::int64_t start = 0;
    std::int64_t end = 0;
};

/// Length of [lo, hi) covered by the union of `parts` (clipped to it).
[[nodiscard]] inline std::int64_t covered(std::int64_t lo, std::int64_t hi,
                                          std::vector<Interval> parts) {
    std::sort(parts.begin(), parts.end(),
              [](const Interval& a, const Interval& b) { return a.start < b.start; });
    std::int64_t total = 0;
    std::int64_t cursor = lo;
    for (const Interval& iv : parts) {
        const std::int64_t s = std::max(iv.start, cursor);
        const std::int64_t e = std::min(iv.end, hi);
        if (e > s) {
            total += e - s;
            cursor = e;
        }
    }
    return total;
}

/// Duration of `span` that none of `children` covers.
[[nodiscard]] inline std::int64_t self_time(const Interval& span,
                                            std::vector<Interval> children) {
    const std::int64_t length = std::max<std::int64_t>(span.end - span.start, 0);
    return length - covered(span.start, span.end, std::move(children));
}

enum class Better { Lower, Higher };

/// True when `candidate` is worse than `reference` by more than `bound`,
/// a share of `reference` (the BENCHMARK.json rule for end-to-end metrics).
[[nodiscard]] inline bool regressed(double reference, double candidate, double bound,
                                    Better better) {
    const double slack = std::abs(reference) * bound;
    return better == Better::Lower ? candidate > reference + slack
                                   : candidate < reference - slack;
}

}  // namespace wavebench
