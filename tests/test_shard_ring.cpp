// Consistent-hash placement ring (shard tier): determinism across
// independently built routers, scene-keyed placement (transform variants
// colocate), prefix-stable replica chains (the walk-based minimal-
// disruption property), arc balance, and seed sensitivity.

#include "svc/shard/ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/synthetic.hpp"
#include "svc/hash.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::ImageF;
using wavehpc::svc::CacheKey;
using wavehpc::svc::make_cache_key;
using wavehpc::svc::shard::HashRing;
using wavehpc::svc::shard::ShardId;

std::vector<CacheKey> sample_keys(std::size_t n) {
    std::vector<CacheKey> keys;
    keys.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const ImageF img = wavehpc::core::landsat_tm_like(16, 16, 100 + i);
        keys.push_back(make_cache_key(img, 4, 1, BoundaryMode::Periodic));
    }
    return keys;
}

TEST(ShardRing, RejectsZeroShardsOrVnodes) {
    EXPECT_THROW(HashRing(0, 8, 1), std::invalid_argument);
    EXPECT_THROW(HashRing(4, 0, 1), std::invalid_argument);
}

TEST(ShardRing, TwoRoutersWithSameParametersAgreeOnEveryPlacement) {
    const HashRing a(8, 64, 1996);
    const HashRing b(8, 64, 1996);
    for (const CacheKey& key : sample_keys(64)) {
        EXPECT_EQ(a.replicas(key, 3), b.replicas(key, 3));
    }
}

TEST(ShardRing, SeedChangesPlacement) {
    const HashRing a(8, 64, 1);
    const HashRing b(8, 64, 2);
    std::size_t moved = 0;
    const auto keys = sample_keys(64);
    for (const CacheKey& key : keys) {
        if (a.primary(key) != b.primary(key)) ++moved;
    }
    EXPECT_GT(moved, 0U);
}

TEST(ShardRing, ReplicaChainIsDistinctAndClampedToShardCount) {
    const HashRing ring(4, 32, 7);
    for (const CacheKey& key : sample_keys(32)) {
        const auto chain = ring.replicas(key, 16);  // k > shard count
        EXPECT_EQ(chain.size(), 4U);
        EXPECT_EQ(std::set<ShardId>(chain.begin(), chain.end()).size(), 4U);
    }
}

// The chain for k is a prefix of the chain for k' > k: skipping a dead
// shard during the walk is therefore exactly "drop it from the chain" —
// keys whose surviving replicas come first are untouched (minimal
// disruption by construction, no ring rebuild).
TEST(ShardRing, ShorterChainsArePrefixesOfLongerOnes) {
    const HashRing ring(8, 64, 1996);
    for (const CacheKey& key : sample_keys(32)) {
        const auto full = ring.replicas(key, 8);
        for (std::size_t k = 1; k < 8; ++k) {
            const auto chain = ring.replicas(key, k);
            ASSERT_EQ(chain.size(), k);
            EXPECT_TRUE(std::equal(chain.begin(), chain.end(), full.begin()));
        }
    }
}

// Placement is per *scene*: keys differing only in taps/levels/boundary
// land on the same shard, which is what makes the per-shard cache
// (and its same-scene variant fallback) effective.
TEST(ShardRing, TransformVariantsOfOneSceneColocate) {
    const HashRing ring(8, 64, 1996);
    const ImageF img = wavehpc::core::landsat_tm_like(32, 32, 5);
    const ShardId home =
        ring.primary(make_cache_key(img, 8, 1, BoundaryMode::Periodic));
    EXPECT_EQ(ring.primary(make_cache_key(img, 4, 2, BoundaryMode::Periodic)), home);
    EXPECT_EQ(ring.primary(make_cache_key(img, 2, 4, BoundaryMode::Periodic)), home);
    EXPECT_EQ(ring.primary(make_cache_key(img, 8, 1, BoundaryMode::ZeroPad)), home);
}

TEST(ShardRing, ArcFractionsSumToOneAndStayBalanced) {
    const HashRing ring(8, 64, 1996);
    const auto arcs = ring.arc_fractions();
    ASSERT_EQ(arcs.size(), 8U);
    double sum = 0.0;
    for (const double a : arcs) {
        sum += a;
        // Expected share 1/8; 64 vnodes keep every shard well inside
        // [1/4x, 2.5x] of it.
        EXPECT_GT(a, 0.125 / 4.0);
        EXPECT_LT(a, 0.125 * 2.5);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

}  // namespace
