// Unit test for the wavebench statistics rules (stats.hpp): the percentile
// tail rule, interval coverage / self time, residuals, and the regression
// bound check. Plain checks, no framework: exits non-zero on any failure.

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
    if (!ok) {
        std::cerr << "FAIL: " << what << "\n";
        ++g_failures;
    }
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

std::vector<double> ramp(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    return v;
}

void test_nearest_rank() {
    check(wavebench::nearest_rank(1000, 0.99) == 989, "p99 of 1000 is rank 990 (index 989)");
    check(wavebench::nearest_rank(1000, 0.50) == 499, "p50 of 1000 is index 499");
    check(wavebench::nearest_rank(1, 0.99) == 0, "p99 of one sample is that sample");
    check(wavebench::nearest_rank(3, 0.0) == 0, "p0 clamps to the first sample");
    check(wavebench::samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
    check(wavebench::samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
}

void test_percentile_rule() {
    // Enough samples: p99 is reported as requested.
    auto p = wavebench::percentile(ramp(1000), 0.99);
    check(!p.fell_back() && !p.short_tail, "1000 samples support p99");
    check(near(p.value, 990.0), "p99 of 1..1000 is 990");
    check(p.samples == 1000, "sample count is reported");

    // 999 samples: 9 beyond p99, so the next lower supported percentile.
    p = wavebench::percentile(ramp(999), 0.99);
    check(p.fell_back() && near(p.used, 0.95) && !p.short_tail, "999 samples fall back to p95");
    check(near(p.value, 950.0), "p95 of 1..999 is 950");

    // 150 samples: p95 leaves 7 beyond, p90 leaves 15.
    p = wavebench::percentile(ramp(150), 0.99);
    check(near(p.used, 0.90), "150 samples fall back to p90");

    // Too few for any tail: the lowest candidate, flagged.
    p = wavebench::percentile(ramp(12), 0.99);
    check(p.short_tail && near(p.used, 0.50), "12 samples report p50 flagged short");
    check(near(p.value, 6.0), "p50 of 1..12 is 6");

    // The median of an adequate sample is never a fallback.
    p = wavebench::percentile(ramp(101), 0.50);
    check(!p.fell_back() && !p.short_tail && near(p.value, 51.0), "p50 of 1..101 is 51");

    // Order does not matter.
    std::vector<double> shuffled = {5, 1, 4, 2, 3, 9, 8, 7, 6, 10,
                                    15, 11, 14, 12, 13, 19, 18, 17, 16, 20, 21};
    p = wavebench::percentile(shuffled, 0.50);
    check(near(p.value, 11.0) && !p.short_tail, "p50 of shuffled 1..21 is 11");

    p = wavebench::percentile({}, 0.99);
    check(p.short_tail && p.samples == 0, "no samples is flagged");

    check(near(wavebench::median({3.0, 1.0, 2.0}), 2.0), "median of 3 values");
}

void test_coverage_and_self_time() {
    using wavebench::Interval;
    // Root [0, 100) with overlapping children [10, 30) and [20, 50), plus
    // [90, 120) which is clipped at the root's end.
    const std::vector<Interval> kids = {{20, 50}, {10, 30}, {90, 120}};
    check(wavebench::covered(0, 100, kids) == 50, "union of children is 40 + 10");
    check(wavebench::self_time({0, 100}, kids) == 50, "self time is the uncovered 50");
    check(wavebench::self_time({0, 100}, {}) == 100, "a leaf's self time is its duration");
    check(wavebench::self_time({0, 100}, {{0, 100}, {10, 20}}) == 0, "fully covered root");
    check(wavebench::covered(0, 100, {{-50, -10}, {150, 200}}) == 0,
          "children outside the root cover nothing");
    check(wavebench::self_time({5, 5}, {{0, 10}}) == 0, "zero-length span");
}

void test_residual() {
    // finish = total - queue - compute
    check(near(wavebench::residual(10.0, {3.0, 4.0}), 3.0), "residual of 10 - 3 - 4");
    // Stamps from different clocks may overshoot: clamp, never negative.
    check(near(wavebench::residual(1.0, {0.7, 0.5}), 0.0), "negative residual clamps to 0");
    check(near(wavebench::residual(2.5, {}), 2.5), "no parts leaves the total");
}

void test_bound_check() {
    using wavebench::Better;
    // Lower is better, 10% bound on a reference of 100.
    check(!wavebench::regressed(100.0, 110.0, 0.10, Better::Lower), "+10% is within bound");
    check(wavebench::regressed(100.0, 110.5, 0.10, Better::Lower), "+10.5% regresses");
    check(!wavebench::regressed(100.0, 50.0, 0.10, Better::Lower), "an improvement never regresses");
    // Higher is better.
    check(!wavebench::regressed(100.0, 90.0, 0.10, Better::Higher), "-10% is within bound");
    check(wavebench::regressed(100.0, 89.0, 0.10, Better::Higher), "-11% regresses");
    check(!wavebench::regressed(100.0, 200.0, 0.10, Better::Higher), "a gain never regresses");
    // A zero bound: any worsening counts.
    check(wavebench::regressed(0.0, 1e-9, 0.0, Better::Lower), "zero bound, any increase");
    check(!wavebench::regressed(0.0, 0.0, 0.0, Better::Lower), "zero bound, no change");
}

}  // namespace

int main() {
    test_nearest_rank();
    test_percentile_rule();
    test_coverage_and_self_time();
    test_residual();
    test_bound_check();
    if (g_failures == 0) std::cout << "test_stats: all checks passed\n";
    return g_failures == 0 ? 0 : 1;
}
