#pragma once
// Shared seeded open-loop load generation for the service benches
// (bench_service_load, bench_chaos_sweep, bench_shard_sweep), so the
// Table-1 request mix, the skewed scene popularity, and the Poisson
// arrival process are spelled once.
//
// The generator is an *open loop*: arrival offsets are drawn up front from
// the offered rate and honoured regardless of completions, so overload
// shows up as rejects and queueing delay rather than as a slowed-down
// generator. Every draw comes from one SplitMix64 stream in a fixed order
// (arrival, scene, mix), so a point's traffic is a pure function of
// (seed, rate, request count).

#include <chrono>
#include <cmath>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "core/dwt.hpp"
#include "core/image.hpp"
#include "core/synthetic.hpp"
#include "testing/seeds.hpp"

namespace wavehpc::bench::load {

struct MixEntry {
    int taps;
    int levels;
    const char* label;
    double weight;  ///< fraction of offered traffic
};

/// Table 1's three configurations, weighted toward the cheap filter the
/// way a browse-heavy image service would be.
inline constexpr MixEntry kTable1Mix[] = {
    {8, 1, "F8/L1", 0.40},
    {4, 2, "F4/L2", 0.35},
    {2, 4, "F2/L4", 0.25},
};
inline constexpr std::size_t kTable1MixCount =
    sizeof(kTable1Mix) / sizeof(kTable1Mix[0]);

/// Scene-pool size every service bench uses.
inline constexpr std::size_t kDefaultScenes = 8;

/// One generated arrival: when (seconds after the storm start) and what.
struct Arrival {
    double at_seconds = 0.0;
    std::size_t scene = 0;
    std::size_t mix = 0;
};

/// Seeded Poisson open-loop arrival generator. Draw order per arrival is
/// fixed (interval, skew, scene, mix), so downstream draws a bench makes
/// from its *own* stream never shift the traffic pattern.
///
/// `scene0_share` is the extra probability mass pinned on scene 0 (the
/// remaining mass is uniform over the whole pool, scene 0 included):
/// 0.5 is the default skewed-popularity traffic, 0.0 a uniform sweep
/// where nearly every arrival is a distinct cold scene.
class PoissonOpenLoop {
public:
    PoissonOpenLoop(std::uint64_t seed, double offered_rps,
                    std::size_t n_scenes = kDefaultScenes,
                    double scene0_share = 0.5)
        : rng_(seed), rate_(offered_rps), n_scenes_(n_scenes),
          scene0_share_(scene0_share) {}

    [[nodiscard]] Arrival next() {
        Arrival a;
        clock_ += exp_interval();
        a.at_seconds = clock_;
        const bool popular = rng_.uniform() < scene0_share_;
        a.scene = popular ? 0 : rng_.below(n_scenes_);
        a.mix = pick_mix();
        return a;
    }

private:
    [[nodiscard]] double exp_interval() {
        return -std::log(1.0 - rng_.uniform()) / rate_;
    }

    [[nodiscard]] std::size_t pick_mix() {
        double r = rng_.uniform();
        for (std::size_t m = 0; m + 1 < kTable1MixCount; ++m) {
            if (r < kTable1Mix[m].weight) return m;
            r -= kTable1Mix[m].weight;
        }
        return kTable1MixCount - 1;
    }

    testing::SplitMix64 rng_;
    double rate_;
    std::size_t n_scenes_;
    double scene0_share_;
    double clock_ = 0.0;
};

/// Sleep the calling thread until `at_seconds` past `t0` (open-loop pacing).
inline void sleep_until_offset(std::chrono::steady_clock::time_point t0,
                               double at_seconds) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(at_seconds)));
}

/// The shared scene pool: `n` synthetic Landsat-like frames derived from
/// consecutive seeds, scene 0 being the popular one.
[[nodiscard]] inline std::vector<std::shared_ptr<const core::ImageF>>
make_scene_pool(std::size_t edge, std::uint64_t seed,
                std::size_t n = kDefaultScenes) {
    std::vector<std::shared_ptr<const core::ImageF>> scenes;
    scenes.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        scenes.push_back(std::make_shared<const core::ImageF>(
            core::landsat_tm_like(edge, edge, seed + i)));
    }
    return scenes;
}

/// Ground truth for the bit-identity audit: sequential decompositions of
/// the popular scene, one per mix configuration.
[[nodiscard]] inline std::vector<core::Pyramid> make_scene0_refs(
    const core::ImageF& scene0) {
    std::vector<core::Pyramid> refs;
    refs.reserve(kTable1MixCount);
    for (const auto& m : kTable1Mix) {
        refs.push_back(core::decompose(scene0, core::FilterPair::daubechies(m.taps),
                                       m.levels, core::BoundaryMode::Periodic));
    }
    return refs;
}

/// Mix-weighted sequential cold-compute time of `scene0` — the capacity
/// yardstick the load benches scale their offered rates from.
[[nodiscard]] inline double measure_weighted_cold_compute(const core::ImageF& scene0) {
    using Clock = std::chrono::steady_clock;
    double weighted = 0.0;
    for (const auto& m : kTable1Mix) {
        const auto t0 = Clock::now();
        (void)core::decompose(scene0, core::FilterPair::daubechies(m.taps),
                              m.levels, core::BoundaryMode::Periodic);
        weighted +=
            m.weight * std::chrono::duration<double>(Clock::now() - t0).count();
    }
    return weighted;
}

}  // namespace wavehpc::bench::load
