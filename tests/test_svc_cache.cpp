// Content-addressed result cache + single-flight invariants (ISSUE 4):
// digest sensitivity, LRU eviction order under a byte budget, hit
// bit-identity with a cold compute, and one-transform-many-waiters.

#include "svc/cache.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <vector>

#include "core/dwt.hpp"
#include "core/synthetic.hpp"
#include "svc/hash.hpp"
#include "svc/service.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::runtime::ThreadPool;
using wavehpc::svc::Backend;
using wavehpc::svc::CacheKey;
using wavehpc::svc::make_cache_key;
using wavehpc::svc::PyramidService;
using wavehpc::svc::ResultCache;
using wavehpc::svc::ServiceConfig;
using wavehpc::svc::TransformRequest;
using wavehpc::svc::TransformResult;

std::shared_ptr<const ImageF> scene(std::size_t n, std::uint64_t seed) {
    return std::make_shared<const ImageF>(wavehpc::core::landsat_tm_like(n, n, seed));
}

std::shared_ptr<const TransformResult> fake_result(const CacheKey& key,
                                                   std::uint64_t bytes) {
    auto r = std::make_shared<TransformResult>();
    r->key = key;
    r->result_bytes = bytes;
    return r;
}

CacheKey key_of(std::uint64_t tag) {
    CacheKey k;
    k.digest_lo = tag;
    k.digest_hi = ~tag;
    k.rows = k.cols = 64;
    k.taps = 4;
    k.levels = 1;
    return k;
}

TEST(CacheKeyTest, SameContentSameKey) {
    const auto a = scene(32, 7);
    const auto b = scene(32, 7);  // regenerated, equal bytes
    EXPECT_EQ(make_cache_key(*a, 8, 1, BoundaryMode::Periodic),
              make_cache_key(*b, 8, 1, BoundaryMode::Periodic));
}

TEST(CacheKeyTest, KeySensitiveToContentAndEveryParameter) {
    const auto img = scene(32, 7);
    const auto base = make_cache_key(*img, 8, 1, BoundaryMode::Periodic);

    ImageF tweaked = *img;
    tweaked(13, 21) += 0.5F;
    EXPECT_NE(make_cache_key(tweaked, 8, 1, BoundaryMode::Periodic), base);

    EXPECT_NE(make_cache_key(*img, 4, 1, BoundaryMode::Periodic), base);
    EXPECT_NE(make_cache_key(*img, 8, 2, BoundaryMode::Periodic), base);
    EXPECT_NE(make_cache_key(*img, 8, 1, BoundaryMode::Symmetric), base);

    // Transposed dimensions with identical bytes must differ too.
    const ImageF tall(64, 16, std::vector<float>(img->flat().begin(),
                                                 img->flat().end()));
    EXPECT_NE(make_cache_key(tall, 8, 1, BoundaryMode::Periodic), base);
}

TEST(CacheKeyTest, KeyCarriesTheConvolveKernelByte) {
    // Convolve is the one kernel, but the key keeps its kernel byte at the
    // historical value 1 so stored keys and shard frames keep their bytes.
    const auto img = scene(32, 7);
    const auto key = make_cache_key(*img, 8, 1, BoundaryMode::Periodic);
    EXPECT_EQ(key.kernel, 1U);
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    wavehpc::svc::content_digest(*img, lo, hi);
    EXPECT_EQ(wavehpc::svc::assemble_cache_key(lo, hi, *img, 8, 1, BoundaryMode::Periodic,
                                               wavehpc::core::DwtKernel::Convolve),
              key);
}

TEST(ResultCacheTest, LruEvictsOldestUnderByteBudget) {
    ResultCache cache(100);
    cache.insert(key_of(1), fake_result(key_of(1), 40));
    cache.insert(key_of(2), fake_result(key_of(2), 40));
    cache.insert(key_of(3), fake_result(key_of(3), 40));  // evicts key 1

    EXPECT_EQ(cache.lookup(key_of(1)), nullptr);
    EXPECT_NE(cache.lookup(key_of(2)), nullptr);
    EXPECT_NE(cache.lookup(key_of(3)), nullptr);

    const auto s = cache.stats();
    EXPECT_EQ(s.evictions, 1U);
    EXPECT_EQ(s.evicted_bytes, 40U);
    EXPECT_EQ(s.entries, 2U);
    EXPECT_EQ(s.bytes_in_use, 80U);
}

TEST(ResultCacheTest, LookupRefreshesRecency) {
    ResultCache cache(100);
    cache.insert(key_of(1), fake_result(key_of(1), 40));
    cache.insert(key_of(2), fake_result(key_of(2), 40));
    ASSERT_NE(cache.lookup(key_of(1)), nullptr);      // 1 becomes MRU
    cache.insert(key_of(3), fake_result(key_of(3), 40));  // evicts 2, not 1

    EXPECT_NE(cache.lookup(key_of(1)), nullptr);
    EXPECT_EQ(cache.lookup(key_of(2)), nullptr);
    const auto order = cache.keys_mru_first();
    ASSERT_EQ(order.size(), 2U);
    EXPECT_EQ(order[0], key_of(1));
    EXPECT_EQ(order[1], key_of(3));
}

TEST(ResultCacheTest, OversizedResultIsNotCached) {
    ResultCache cache(100);
    cache.insert(key_of(1), fake_result(key_of(1), 40));
    cache.insert(key_of(9), fake_result(key_of(9), 1000));
    EXPECT_EQ(cache.lookup(key_of(9)), nullptr);
    EXPECT_NE(cache.lookup(key_of(1)), nullptr);  // smaller entry survived
    const auto s = cache.stats();
    EXPECT_EQ(s.rejected_oversize, 1U);
    EXPECT_EQ(s.evictions, 0U);
}

// A same-scene key under different transform parameters (what a degraded
// reply serves).
CacheKey variant_of(const CacheKey& key, std::uint8_t taps) {
    CacheKey k = key;
    k.taps = taps;
    return k;
}

TEST(ResultCacheTest, VariantMissesAreCounted) {
    // Regression: lookup_variant used to return nullptr after a fruitless
    // scan without counting a miss, so degraded-path hit rates read high.
    ResultCache cache(1000);
    EXPECT_EQ(cache.lookup_variant(key_of(1)), nullptr);  // empty cache
    EXPECT_EQ(cache.stats().misses, 1U);

    cache.insert(key_of(2), fake_result(key_of(2), 40));  // different scene
    EXPECT_EQ(cache.lookup_variant(key_of(1)), nullptr);
    EXPECT_EQ(cache.stats().misses, 2U);

    cache.insert(variant_of(key_of(1), 8), fake_result(variant_of(key_of(1), 8), 40));
    EXPECT_NE(cache.lookup_variant(key_of(1)), nullptr);  // same scene, taps differ
    const auto s = cache.stats();
    EXPECT_EQ(s.variant_hits, 1U);
    EXPECT_EQ(s.misses, 2U);  // a variant hit is not a miss
}

TEST(ResultCacheTest, VariantAuditEvictionCountsAMiss) {
    // Regression: the audit-eviction path dropped the rotten entry and
    // returned nullptr (caller recomputes) without counting that miss.
    ResultCache cache(1000);
    cache.set_audit_lookups(true);
    auto r = std::make_shared<TransformResult>();
    r->key = key_of(1);
    r->result_bytes = 40;
    cache.insert(key_of(1), r);
    ASSERT_EQ(cache.stats().entries, 1U);
    r->crc32 = 0xBAD0BAD0;  // corrupt after insert: resident entry rots

    EXPECT_EQ(cache.lookup_variant(key_of(1)), nullptr);
    const auto s = cache.stats();
    EXPECT_EQ(s.audit_failures, 1U);
    EXPECT_EQ(s.misses, 1U);  // the recompute this forces is a miss
    EXPECT_EQ(s.entries, 0U);
    EXPECT_EQ(s.variant_hits, 0U);
}

TEST(ResultCacheTest, ReinsertKeepsExistingBuffer) {
    ResultCache cache(100);
    const auto first = fake_result(key_of(1), 40);
    cache.insert(key_of(1), first);
    cache.insert(key_of(1), fake_result(key_of(1), 40));
    EXPECT_EQ(cache.lookup(key_of(1)), first);
    EXPECT_EQ(cache.stats().entries, 1U);
    EXPECT_EQ(cache.stats().bytes_in_use, 40U);
}

// ---------------------------------------------------------------- service

TEST(ServiceCacheTest, HitIsBitIdenticalToColdCompute) {
    ThreadPool pool(2);
    PyramidService service(pool);
    const auto img = scene(64, 1996);
    TransformRequest req;
    req.image = img;
    req.taps = 4;
    req.levels = 2;

    auto cold = service.submit(req);
    ASSERT_TRUE(cold.accepted);
    const auto cold_reply = cold.future.get();
    EXPECT_FALSE(cold_reply.cache_hit);

    auto warm = service.submit(req);
    ASSERT_TRUE(warm.accepted);
    const auto warm_reply = warm.future.get();
    EXPECT_TRUE(warm_reply.cache_hit);
    // Same buffer, and bit-identical to an out-of-band sequential compute.
    EXPECT_EQ(warm_reply.result, cold_reply.result);
    const Pyramid reference = wavehpc::core::decompose(
        *img, FilterPair::daubechies(4), 2, BoundaryMode::Periodic);
    ASSERT_EQ(warm_reply.result->pyramid.depth(), reference.depth());
    for (std::size_t k = 0; k < reference.depth(); ++k) {
        EXPECT_EQ(warm_reply.result->pyramid.levels[k].lh, reference.levels[k].lh);
        EXPECT_EQ(warm_reply.result->pyramid.levels[k].hl, reference.levels[k].hl);
        EXPECT_EQ(warm_reply.result->pyramid.levels[k].hh, reference.levels[k].hh);
    }
    EXPECT_EQ(warm_reply.result->pyramid.approx, reference.approx);

    const auto cs = service.cache_stats();
    EXPECT_EQ(cs.hits, 1U);
    EXPECT_EQ(service.metrics().counters.computes, 1U);
    service.shutdown();
}

TEST(ServiceCacheTest, ThreadsBackendHitsSerialBackendEntry) {
    // The key excludes the backend (all backends are bit-identical), so a
    // Threads request after a Serial compute is a cache hit.
    ThreadPool pool(2);
    PyramidService service(pool);
    const auto img = scene(32, 5);
    TransformRequest req;
    req.image = img;
    req.taps = 2;
    req.levels = 1;
    req.backend = Backend::Serial;
    auto cold = service.submit(req);
    ASSERT_TRUE(cold.accepted);
    (void)cold.future.get();  // wait, or the next submit joins the flight

    req.backend = Backend::Threads;
    const auto reply = service.submit(req).future.get();
    EXPECT_TRUE(reply.cache_hit);
    service.shutdown();
}

TEST(ServiceCacheTest, AutoKernelRequestHitsTheConvolveEntry) {
    // Admission resolves Auto to Convolve before keying, so a request that
    // names no kernel and one that names Convolve share one cache entry,
    // keyed with the Convolve byte.
    ThreadPool pool(2);
    PyramidService service(pool);
    TransformRequest req;
    req.image = scene(32, 9);
    req.taps = 4;
    req.levels = 1;
    req.kernel = wavehpc::core::DwtKernel::Auto;
    auto cold = service.submit(req);
    ASSERT_TRUE(cold.accepted);
    const auto cold_reply = cold.future.get();
    ASSERT_NE(cold_reply.result, nullptr);
    EXPECT_EQ(cold_reply.result->key.kernel, 1U);

    req.kernel = wavehpc::core::DwtKernel::Convolve;
    const auto warm_reply = service.submit(req).future.get();
    EXPECT_TRUE(warm_reply.cache_hit);
    EXPECT_EQ(warm_reply.result, cold_reply.result);
    EXPECT_EQ(service.metrics().counters.computes, 1U);
    service.shutdown();
}

TEST(ServiceCacheTest, SingleFlightSharesOneComputeAcrossWaiters) {
    // One pool worker held by a gate: the first submit dispatches but its
    // compute sits queued behind the gate, so the next four identical
    // submits deterministically join the in-flight request.
    ThreadPool pool(1);
    PyramidService service(pool, ServiceConfig{.max_concurrency = 1});
    std::promise<void> gate;
    std::shared_future<void> opened(gate.get_future());
    pool.submit([opened] { opened.wait(); });

    const auto img = scene(32, 11);
    TransformRequest req;
    req.image = img;
    req.taps = 4;
    req.levels = 1;
    req.backend = Backend::Serial;

    std::vector<wavehpc::svc::TransformFuture> futures;
    for (int i = 0; i < 5; ++i) {
        auto sub = service.submit(req);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(std::move(sub.future));
    }
    EXPECT_EQ(service.metrics().counters.dedup_joins, 4U);
    gate.set_value();

    const auto first = futures[0].get();
    EXPECT_FALSE(first.shared_flight);
    for (int i = 1; i < 5; ++i) {
        const auto reply = futures[static_cast<std::size_t>(i)].get();
        EXPECT_TRUE(reply.shared_flight);
        EXPECT_EQ(reply.result, first.result) << "waiter " << i;
    }
    const auto m = service.metrics();
    EXPECT_EQ(m.counters.computes, 1U);
    EXPECT_EQ(m.counters.completed, 5U);
    service.shutdown();
}

// Fleet aggregation across shards: every field adds, including the
// resident gauges (the merged totals are fleet totals).
TEST(CacheStatsTest, MergeAddsEveryField) {
    wavehpc::svc::CacheStats a;
    a.hits = 1;
    a.misses = 2;
    a.insertions = 3;
    a.rejected_oversize = 4;
    a.evictions = 5;
    a.evicted_bytes = 6;
    a.audit_failures = 7;
    a.variant_hits = 8;
    a.bytes_in_use = 9;
    a.entries = 10;
    a.byte_budget = 11;
    wavehpc::svc::CacheStats b;
    b.hits = 100;
    b.misses = 200;
    b.insertions = 300;
    b.rejected_oversize = 400;
    b.evictions = 500;
    b.evicted_bytes = 600;
    b.audit_failures = 700;
    b.variant_hits = 800;
    b.bytes_in_use = 900;
    b.entries = 1000;
    b.byte_budget = 1100;

    a.merge(b);
    EXPECT_EQ(a.hits, 101U);
    EXPECT_EQ(a.misses, 202U);
    EXPECT_EQ(a.insertions, 303U);
    EXPECT_EQ(a.rejected_oversize, 404U);
    EXPECT_EQ(a.evictions, 505U);
    EXPECT_EQ(a.evicted_bytes, 606U);
    EXPECT_EQ(a.audit_failures, 707U);
    EXPECT_EQ(a.variant_hits, 808U);
    EXPECT_EQ(a.bytes_in_use, 909U);
    EXPECT_EQ(a.entries, 1010U);
    EXPECT_EQ(a.byte_budget, 1111U);
    EXPECT_DOUBLE_EQ(a.hit_rate(), 101.0 / (101.0 + 202.0));
}

TEST(DigestMemoTest, SecondLookupOfTheSameObjectIsAHitWithTheDirectDigest) {
    wavehpc::svc::DigestMemo memo;
    const auto img = scene(32, 7);

    std::uint64_t direct_lo = 0;
    std::uint64_t direct_hi = 0;
    wavehpc::svc::content_digest(*img, direct_lo, direct_hi);

    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    memo.digest(img, lo, hi);
    EXPECT_EQ(memo.misses(), 1U);
    EXPECT_EQ(lo, direct_lo);
    EXPECT_EQ(hi, direct_hi);

    lo = hi = 0;
    memo.digest(img, lo, hi);
    EXPECT_EQ(memo.hits(), 1U);
    EXPECT_EQ(lo, direct_lo);
    EXPECT_EQ(hi, direct_hi);
}

TEST(DigestMemoTest, RecycledAddressesNeverServeAStaleDigest) {
    // Alloc/free churn recycles heap addresses; the memo keys on the raw
    // pointer, so a stale entry at a reused address is the ABA hazard. The
    // weak_ptr identity check must force a recompute every time the object
    // at an address changes — digest through the memo always equals the
    // direct pass over the current pixels.
    wavehpc::svc::DigestMemo memo;
    for (std::uint64_t round = 0; round < 100; ++round) {
        const auto img = scene(16, 1000 + round);  // distinct content
        std::uint64_t direct_lo = 0;
        std::uint64_t direct_hi = 0;
        wavehpc::svc::content_digest(*img, direct_lo, direct_hi);
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        memo.digest(img, lo, hi);
        EXPECT_EQ(lo, direct_lo) << "stale digest at round " << round;
        EXPECT_EQ(hi, direct_hi) << "stale digest at round " << round;
        // img dies here; the next round's allocation may land on the same
        // address with different pixels.
    }
    EXPECT_EQ(memo.hits(), 0U);
    EXPECT_EQ(memo.misses(), 100U);
}

TEST(DigestMemoTest, CapacityBoundEvictsButStaysCorrect) {
    wavehpc::svc::DigestMemo memo(2);
    std::vector<std::shared_ptr<const ImageF>> live;
    for (std::uint64_t i = 0; i < 8; ++i) live.push_back(scene(16, 2000 + i));
    // All eight held live through a capacity-2 memo: evictions churn, but
    // every answer still matches the direct digest.
    for (int pass = 0; pass < 3; ++pass) {
        for (const auto& img : live) {
            std::uint64_t direct_lo = 0;
            std::uint64_t direct_hi = 0;
            wavehpc::svc::content_digest(*img, direct_lo, direct_hi);
            std::uint64_t lo = 0;
            std::uint64_t hi = 0;
            memo.digest(img, lo, hi);
            EXPECT_EQ(lo, direct_lo);
            EXPECT_EQ(hi, direct_hi);
        }
    }
    EXPECT_GE(memo.misses(), 8U);  // capacity 2 cannot hold the set
}

TEST(DigestMemoTest, ConcurrentMixedLookupsAgreeWithTheDirectDigest) {
    wavehpc::svc::DigestMemo memo;
    const auto hot = scene(32, 9);
    std::uint64_t hot_lo = 0;
    std::uint64_t hot_hi = 0;
    wavehpc::svc::content_digest(*hot, hot_lo, hot_hi);

    std::vector<std::future<bool>> workers;
    for (int t = 0; t < 4; ++t) {
        workers.push_back(std::async(std::launch::async, [&, t] {
            bool ok = true;
            for (std::uint64_t i = 0; i < 50; ++i) {
                std::uint64_t lo = 0;
                std::uint64_t hi = 0;
                memo.digest(hot, lo, hi);
                ok = ok && lo == hot_lo && hi == hot_hi;
                const auto cold = scene(16, 5000 + 100 * t + i);
                std::uint64_t direct_lo = 0;
                std::uint64_t direct_hi = 0;
                wavehpc::svc::content_digest(*cold, direct_lo, direct_hi);
                memo.digest(cold, lo, hi);
                ok = ok && lo == direct_lo && hi == direct_hi;
            }
            return ok;
        }));
    }
    for (auto& w : workers) EXPECT_TRUE(w.get());
    EXPECT_GE(memo.hits(), 4U * 50U - 4U);  // hot scene memoized after first sight
}

}  // namespace
