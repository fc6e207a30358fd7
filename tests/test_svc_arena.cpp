// Slab arena semantics (ISSUE 8): size-class rounding, hit/miss/fallback
// accounting, the idle byte budget, lease lifetime past arena shutdown,
// and the cache-donation invariant (a hit copies nothing; eviction — not
// insertion — is what returns a result's slabs to the pool). The
// concurrent storm at the bottom is the TSan target.

#include "svc/arena.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/dwt.hpp"
#include "core/image.hpp"
#include "svc/cache.hpp"

namespace {

using wavehpc::core::ImageF;
using wavehpc::svc::ArenaConfig;
using wavehpc::svc::ArenaStats;
using wavehpc::svc::BufferArena;
using wavehpc::svc::CacheKey;
using wavehpc::svc::ResultCache;
using wavehpc::svc::TransformResult;

/// Tiny classes so every boundary is cheap to hit: 64/128/256/512 floats.
ArenaConfig tiny_config(std::uint64_t budget_bytes = 1u << 20) {
    ArenaConfig cfg;
    cfg.arena_bytes = budget_bytes;
    cfg.slab_classes = 4;
    cfg.min_slab_floats = 64;
    return cfg;
}

/// A TransformResult whose every band was checked out of `arena` — the
/// shape adopt() harvests. Two levels: 7 slabs total (3 + 3 + approx).
std::unique_ptr<TransformResult> arena_result(BufferArena& arena,
                                              std::size_t floats_per_band) {
    auto result = std::make_unique<TransformResult>();
    const auto band = [&] {
        return ImageF(1, floats_per_band, arena.obtain(floats_per_band));
    };
    for (int lvl = 0; lvl < 2; ++lvl) {
        wavehpc::core::DetailBands d;
        d.lh = band();
        d.hl = band();
        d.hh = band();
        result->pyramid.levels.push_back(std::move(d));
    }
    result->pyramid.approx = band();
    result->result_bytes = 7 * floats_per_band * sizeof(float);
    return result;
}

TEST(ArenaSizeClasses, PowerOfTwoRoundingAndOversizeSentinel) {
    BufferArena arena(tiny_config());
    EXPECT_EQ(arena.class_floats(0), 64U);
    EXPECT_EQ(arena.class_floats(1), 128U);
    EXPECT_EQ(arena.class_floats(2), 256U);
    EXPECT_EQ(arena.class_floats(3), 512U);

    EXPECT_EQ(arena.class_for(1), 0U);
    EXPECT_EQ(arena.class_for(64), 0U);
    EXPECT_EQ(arena.class_for(65), 1U);    // rounds UP to the next class
    EXPECT_EQ(arena.class_for(128), 1U);
    EXPECT_EQ(arena.class_for(300), 3U);
    EXPECT_EQ(arena.class_for(512), 3U);
    EXPECT_EQ(arena.class_for(513), 4U);   // one past the last index: oversize

    // The checkout's size is the request, its capacity the class.
    auto buf = arena.obtain(100);
    EXPECT_EQ(buf.size(), 100U);
    EXPECT_EQ(buf.capacity(), 128U);
    arena.recycle(std::move(buf));
}

TEST(ArenaAccounting, MissThenHitThenReuse) {
    BufferArena arena(tiny_config());
    auto a = arena.obtain(64);
    ArenaStats s = arena.stats();
    EXPECT_EQ(s.misses, 1U);
    EXPECT_EQ(s.hits, 0U);
    EXPECT_EQ(s.bytes_outstanding, 64 * sizeof(float));
    EXPECT_EQ(s.bytes_pooled, 0U);

    arena.recycle(std::move(a));
    s = arena.stats();
    EXPECT_EQ(s.returns, 1U);
    EXPECT_EQ(s.bytes_outstanding, 0U);
    EXPECT_EQ(s.bytes_pooled, 64 * sizeof(float));

    auto b = arena.obtain(50);  // same class, smaller n: the pooled slab
    s = arena.stats();
    EXPECT_EQ(s.hits, 1U);
    EXPECT_EQ(s.misses, 1U);
    EXPECT_EQ(s.bytes_outstanding, 64 * sizeof(float));
    EXPECT_EQ(s.bytes_pooled, 0U);
    ASSERT_EQ(b.size(), 50U);
    EXPECT_EQ(b.capacity(), 64U);
    arena.recycle(std::move(b));
}

TEST(ArenaAccounting, HighWaterTracksPeakFootprint) {
    BufferArena arena(tiny_config());
    auto a = arena.obtain(64);
    auto b = arena.obtain(64);
    auto c = arena.obtain(256);
    const auto peak = (64 + 64 + 256) * sizeof(float);
    EXPECT_EQ(arena.stats().high_water_bytes, peak);

    // Returns and later smaller checkouts never shrink the high water.
    arena.recycle(std::move(a));
    arena.recycle(std::move(b));
    arena.recycle(std::move(c));
    auto d = arena.obtain(64);
    EXPECT_EQ(arena.stats().high_water_bytes, peak);
    arena.recycle(std::move(d));
}

TEST(ArenaAccounting, OversizeFallsBackToHeapAndIsNeverPooled) {
    BufferArena arena(tiny_config());
    auto big = arena.obtain(513);  // beyond the 512-float top class
    EXPECT_EQ(big.size(), 513U);
    ArenaStats s = arena.stats();
    EXPECT_EQ(s.heap_fallbacks, 1U);
    EXPECT_EQ(s.hits, 0U);
    EXPECT_EQ(s.misses, 0U);            // fallbacks are counted separately
    EXPECT_EQ(s.bytes_outstanding, 0U);  // and never enter slab accounting

    arena.recycle(std::move(big));
    s = arena.stats();
    EXPECT_EQ(s.bytes_pooled, 0U);  // freed, not pooled
    // A repeat checkout is another fallback, not a hit.
    auto again = arena.obtain(513);
    EXPECT_EQ(arena.stats().heap_fallbacks, 2U);
    arena.recycle(std::move(again));
}

TEST(ArenaAccounting, ReturnsPastTheIdleBudgetAreDropped) {
    // Budget = exactly two 64-float slabs of idle pool.
    BufferArena arena(tiny_config(2 * 64 * sizeof(float)));
    auto a = arena.obtain(64);
    auto b = arena.obtain(64);
    auto c = arena.obtain(64);
    arena.recycle(std::move(a));
    arena.recycle(std::move(b));
    arena.recycle(std::move(c));  // third idle slab busts the budget
    const ArenaStats s = arena.stats();
    EXPECT_EQ(s.returns, 3U);
    EXPECT_EQ(s.dropped_over_budget, 1U);
    EXPECT_EQ(s.bytes_pooled, 2 * 64 * sizeof(float));
}

TEST(ArenaAccounting, ForeignVectorIsFreedNotPooled) {
    BufferArena arena(tiny_config());
    // Capacity 100 matches no class: classification must refuse it, so
    // the byte gauges stay exact.
    std::vector<float> foreign;
    foreign.reserve(100);
    foreign.resize(100);
    arena.recycle(std::move(foreign));
    const ArenaStats s = arena.stats();
    EXPECT_EQ(s.bytes_pooled, 0U);
    EXPECT_EQ(s.bytes_outstanding, 0U);
}

TEST(ArenaLease, AdoptHarvestsEveryBandOnLastRelease) {
    BufferArena arena(tiny_config());
    auto lease = arena.adopt(arena_result(arena, 64));
    ArenaStats s = arena.stats();
    EXPECT_EQ(s.bytes_outstanding, 7 * 64 * sizeof(float));

    auto second = lease;  // a second holder (cache, shard peer...)
    lease.reset();
    s = arena.stats();
    EXPECT_EQ(s.bytes_outstanding, 7 * 64 * sizeof(float));  // still held

    second.reset();  // LAST holder: the deleter returns all 7 slabs
    s = arena.stats();
    EXPECT_EQ(s.bytes_outstanding, 0U);
    EXPECT_EQ(s.returns, 7U);
    EXPECT_EQ(s.bytes_pooled, 7 * 64 * sizeof(float));
}

TEST(ArenaLease, LeaseOutlivesArenaShutdown) {
    std::shared_ptr<const TransformResult> lease;
    {
        BufferArena arena(tiny_config());
        auto result = arena_result(arena, 64);
        auto approx = result->pyramid.approx.flat();
        for (std::size_t i = 0; i < approx.size(); ++i) {
            approx[i] = static_cast<float>(i);
        }
        lease = arena.adopt(std::move(result));
    }  // arena destroyed with the lease still out

    // The buffer is still intact and readable...
    ASSERT_NE(lease, nullptr);
    const auto approx = lease->pyramid.approx.flat();
    ASSERT_EQ(approx.size(), 64U);
    for (std::size_t i = 0; i < approx.size(); ++i) {
        EXPECT_EQ(approx[i], static_cast<float>(i));
    }
    // ...and the late release frees instead of pooling (no crash, no leak;
    // ASan would flag either).
    lease.reset();
}

TEST(ArenaLease, RecyclePyramidReturnsFailedResultsBands) {
    BufferArena arena(tiny_config());
    auto result = arena_result(arena, 64);
    arena.recycle_pyramid(std::move(result->pyramid));
    const ArenaStats s = arena.stats();
    EXPECT_EQ(s.returns, 7U);
    EXPECT_EQ(s.bytes_outstanding, 0U);
}

TEST(ArenaStatsMerge, AddsEveryField) {
    ArenaStats a;
    a.hits = 1;
    a.misses = 2;
    a.heap_fallbacks = 3;
    a.returns = 4;
    a.dropped_over_budget = 5;
    a.freed_after_shutdown = 6;
    a.bytes_pooled = 7;
    a.bytes_outstanding = 8;
    a.high_water_bytes = 9;
    ArenaStats b;
    b.hits = 100;
    b.misses = 200;
    b.heap_fallbacks = 300;
    b.returns = 400;
    b.dropped_over_budget = 500;
    b.freed_after_shutdown = 600;
    b.bytes_pooled = 700;
    b.bytes_outstanding = 800;
    b.high_water_bytes = 900;
    a.merge(b);
    EXPECT_EQ(a.hits, 101U);
    EXPECT_EQ(a.misses, 202U);
    EXPECT_EQ(a.heap_fallbacks, 303U);
    EXPECT_EQ(a.returns, 404U);
    EXPECT_EQ(a.dropped_over_budget, 505U);
    EXPECT_EQ(a.freed_after_shutdown, 606U);
    EXPECT_EQ(a.bytes_pooled, 707U);
    EXPECT_EQ(a.bytes_outstanding, 808U);
    EXPECT_EQ(a.high_water_bytes, 909U);
}

// The cache-donation invariant (ISSUE 8 satellite): inserting a result
// DONATES the compute's slabs — the cache copies nothing, a hit allocates
// nothing, and it is eviction that returns the slabs to the pool.
TEST(ArenaCacheDonation, HitAllocatesNothingEvictionReturnsSlabs) {
    BufferArena arena(tiny_config());
    // Budget holds exactly one 7-slab result, so the second insert evicts.
    ResultCache cache(7 * 64 * sizeof(float));

    CacheKey key_a;
    key_a.digest_lo = 1;
    CacheKey key_b;
    key_b.digest_lo = 2;

    {
        auto a = arena_result(arena, 64);
        a->key = key_a;
        cache.insert(key_a, arena.adopt(std::move(a)));
    }  // run_batch's local reference dropped; the cache is the only holder
    const ArenaStats after_insert = arena.stats();
    EXPECT_EQ(after_insert.bytes_outstanding, 7 * 64 * sizeof(float));
    EXPECT_EQ(after_insert.returns, 0U);

    // Hits hand out the donated lease itself: same object, zero arena
    // traffic on the hot path.
    auto hit1 = cache.lookup(key_a);
    auto hit2 = cache.lookup(key_a);
    ASSERT_NE(hit1, nullptr);
    EXPECT_EQ(hit1.get(), hit2.get());
    const ArenaStats after_hits = arena.stats();
    EXPECT_EQ(after_hits.hits, after_insert.hits);
    EXPECT_EQ(after_hits.misses, after_insert.misses);
    EXPECT_EQ(after_hits.returns, 0U);

    // Evicting A (insert B over the budget) returns A's slabs — but only
    // once the last client lease (hit1/hit2) lets go too.
    {
        auto b = arena_result(arena, 64);
        b->key = key_b;
        cache.insert(key_b, arena.adopt(std::move(b)));
    }
    EXPECT_EQ(cache.lookup(key_a), nullptr);  // A evicted
    EXPECT_EQ(arena.stats().returns, 0U);     // hit1 still pins A's slabs
    hit2.reset();
    EXPECT_EQ(arena.stats().returns, 0U);
    hit1.reset();  // last holder of the evicted entry
    const ArenaStats after_evict = arena.stats();
    EXPECT_EQ(after_evict.returns, 7U);
    EXPECT_EQ(after_evict.bytes_outstanding, 7 * 64 * sizeof(float));  // B only
}

// Thread-safety storm: concurrent checkout/return across every class plus
// oversize, then exact conservation checks. Run under TSan in CI.
TEST(ArenaStorm, ConcurrentCheckoutReturnConserves) {
    BufferArena arena(tiny_config(64u << 10));
    constexpr int kThreads = 4;
    constexpr int kIters = 2000;
    std::atomic<std::uint64_t> slab_obtains{0};
    std::atomic<std::uint64_t> oversize_obtains{0};

    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            std::uint64_t rng = 0x9e3779b97f4a7c15ULL * (t + 1);
            std::vector<std::vector<float>> held;
            for (int i = 0; i < kIters; ++i) {
                rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
                const std::size_t n = 1 + (rng >> 33) % 700;  // spans oversize
                auto buf = arena.obtain(n);
                if (n > 512) {
                    ++oversize_obtains;
                } else {
                    ++slab_obtains;
                }
                ASSERT_EQ(buf.size(), n);
                buf[0] = static_cast<float>(t);  // touch: TSan sees the bytes
                held.push_back(std::move(buf));
                if (held.size() > 8 || (rng & 7) == 0) {
                    arena.recycle(std::move(held.back()));
                    held.pop_back();
                }
            }
            for (auto& buf : held) arena.recycle(std::move(buf));
        });
    }
    for (auto& w : workers) w.join();

    const ArenaStats s = arena.stats();
    EXPECT_EQ(s.hits + s.misses, slab_obtains.load());
    EXPECT_EQ(s.heap_fallbacks, oversize_obtains.load());
    EXPECT_EQ(s.bytes_outstanding, 0U);  // everything came home
    // Every buffer was handed back (oversize ones get freed, not pooled,
    // but their give_back still counts).
    EXPECT_EQ(s.returns, slab_obtains.load() + oversize_obtains.load());
    EXPECT_GT(s.hits, 0U);  // the pool actually cycled
    EXPECT_LE(s.bytes_pooled, arena.config().arena_bytes);
}

}  // namespace
