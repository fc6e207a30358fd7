#include "svc/hash.hpp"

#include <cstring>

namespace wavehpc::svc {

namespace {

// splitmix64 finalizer: full-avalanche 64-bit mix.
constexpr std::uint64_t mix64(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

constexpr std::uint64_t kLane0Seed = 0x243f6a8885a308d3ULL;  // pi digits
constexpr std::uint64_t kLane1Seed = 0x13198a2e03707344ULL;

}  // namespace

void content_digest(const core::ImageF& img, std::uint64_t& lo, std::uint64_t& hi) {
    std::uint64_t h0 = kLane0Seed;
    std::uint64_t h1 = kLane1Seed;
    const auto pixels = img.flat();
    const auto* bytes = reinterpret_cast<const unsigned char*>(pixels.data());
    std::size_t n = pixels.size() * sizeof(float);
    std::uint64_t word = 0;
    while (n >= sizeof word) {
        std::memcpy(&word, bytes, sizeof word);
        h0 = mix64(h0 ^ word);
        h1 = mix64(h1 + word);
        bytes += sizeof word;
        n -= sizeof word;
    }
    if (n > 0) {
        word = 0;
        std::memcpy(&word, bytes, n);
        h0 = mix64(h0 ^ word);
        h1 = mix64(h1 + word);
    }
    // Length padding so prefixes of zeros cannot alias.
    const auto total = static_cast<std::uint64_t>(pixels.size());
    lo = mix64(h0 ^ total);
    hi = mix64(h1 + total);
}

CacheKey assemble_cache_key(std::uint64_t digest_lo, std::uint64_t digest_hi,
                            const core::ImageF& img, int taps, int levels,
                            core::BoundaryMode boundary, core::DwtKernel kernel) {
    CacheKey key;
    key.digest_lo = digest_lo;
    key.digest_hi = digest_hi;
    key.rows = static_cast<std::uint32_t>(img.rows());
    key.cols = static_cast<std::uint32_t>(img.cols());
    key.taps = static_cast<std::uint8_t>(taps);
    key.levels = static_cast<std::uint8_t>(levels);
    key.boundary = static_cast<std::uint8_t>(boundary);
    key.kernel = static_cast<std::uint8_t>(kernel);
    return key;
}

CacheKey make_cache_key(const core::ImageF& img, int taps, int levels,
                        core::BoundaryMode boundary) {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
    content_digest(img, lo, hi);
    return assemble_cache_key(lo, hi, img, taps, levels, boundary,
                              core::DwtKernel::Convolve);
}

DigestMemo::DigestMemo(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void DigestMemo::digest(const std::shared_ptr<const core::ImageF>& img,
                        std::uint64_t& lo, std::uint64_t& hi) {
    const core::ImageF* ptr = img.get();
    {
        std::lock_guard lk(mu_);
        auto it = map_.find(ptr);
        if (it != map_.end()) {
            // Trust the entry only if its weak_ptr still locks to THIS
            // object; a recycled address shows an expired or different
            // control block here and recomputes below.
            if (auto held = it->second.ref.lock(); held.get() == ptr) {
                ++hits_;
                lo = it->second.lo;
                hi = it->second.hi;
                return;
            }
            map_.erase(it);
        }
        ++misses_;
    }
    content_digest(*img, lo, hi);  // the linear pass, outside the lock
    std::lock_guard lk(mu_);
    if (map_.size() >= capacity_) {
        // Sweep dead entries first; if every entry is live the memo is
        // just a cache — drop arbitrarily rather than grow.
        for (auto it = map_.begin(); it != map_.end();) {
            it = it->second.ref.expired() ? map_.erase(it) : std::next(it);
        }
        while (map_.size() >= capacity_) map_.erase(map_.begin());
    }
    // A concurrent miss on the same image may have inserted already; both
    // computed the same digest, so keeping the first is fine.
    map_.emplace(ptr, Entry{img, lo, hi});
}

std::uint64_t DigestMemo::hits() const {
    std::lock_guard lk(mu_);
    return hits_;
}

std::uint64_t DigestMemo::misses() const {
    std::lock_guard lk(mu_);
    return misses_;
}

}  // namespace wavehpc::svc
