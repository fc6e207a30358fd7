#include "svc/shard/ring.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/splitmix.hpp"

namespace wavehpc::svc::shard {

using core::mix64;

HashRing::HashRing(std::size_t n_shards, std::size_t vnodes, std::uint64_t seed)
    : n_shards_(n_shards), vnodes_(vnodes), seed_(seed) {
    if (n_shards == 0 || vnodes == 0) {
        throw std::invalid_argument("HashRing: shard and vnode counts must be > 0");
    }
    points_.reserve(n_shards * vnodes);
    for (ShardId s = 0; s < n_shards; ++s) {
        const std::uint64_t shard_lane = mix64(seed ^ mix64(s + 1));
        for (std::size_t v = 0; v < vnodes; ++v) {
            points_.push_back({mix64(shard_lane ^ (v * 0x9E3779B97F4A7C15ULL)), s});
        }
    }
    std::sort(points_.begin(), points_.end(),
              [](const Point& a, const Point& b) {
                  return a.pos != b.pos ? a.pos < b.pos : a.shard < b.shard;
              });
}

std::uint64_t HashRing::ring_point(const CacheKey& key) noexcept {
    // Scene identity only: digest + dimensions. Transform parameters are
    // deliberately excluded so variants colocate (header comment).
    return mix64(key.digest_lo ^ mix64(key.digest_hi) ^
                 ((std::uint64_t{key.rows} << 32) | key.cols));
}

std::vector<ShardId> HashRing::replicas(const CacheKey& key, std::size_t k) const {
    if (points_.empty()) {
        throw std::logic_error("HashRing::replicas: ring not built");
    }
    k = std::min(k == 0 ? 1 : k, n_shards_);
    const std::uint64_t pos = ring_point(key);
    auto it = std::lower_bound(points_.begin(), points_.end(), pos,
                               [](const Point& p, std::uint64_t v) {
                                   return p.pos < v;
                               });
    std::vector<ShardId> out;
    out.reserve(k);
    std::vector<bool> seen(n_shards_, false);
    for (std::size_t walked = 0; walked < points_.size() && out.size() < k;
         ++walked) {
        if (it == points_.end()) it = points_.begin();
        if (!seen[it->shard]) {
            seen[it->shard] = true;
            out.push_back(it->shard);
        }
        ++it;
    }
    return out;
}

std::vector<double> HashRing::arc_fractions() const {
    std::vector<double> arc(n_shards_, 0.0);
    if (points_.empty()) return arc;
    constexpr double kRing = 18446744073709551616.0;  // 2^64
    for (std::size_t i = 0; i < points_.size(); ++i) {
        // The arc *ending* at point i belongs to point i's shard (clockwise
        // walk from anywhere in that arc reaches point i first).
        const std::uint64_t hi = points_[i].pos;
        const std::uint64_t lo = i == 0 ? points_.back().pos : points_[i - 1].pos;
        const double span = i == 0
                                ? static_cast<double>(hi) + (kRing - static_cast<double>(lo))
                                : static_cast<double>(hi - lo);
        arc[points_[i].shard] += span / kRing;
    }
    return arc;
}

}  // namespace wavehpc::svc::shard
