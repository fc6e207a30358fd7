#pragma once
// Content addressing for the pyramid service's result cache.
//
// A cache key is a 128-bit digest of the request's *image bytes* plus the
// transform parameters that change the coefficients (taps, levels,
// boundary mode, DWT kernel). The backend is deliberately excluded: every
// in-process backend is bit-identical to core::decompose by construction
// (tested in test_wavelet_parallel), so requests that differ only in
// backend may — must, for single-flight to pay off — share one cached
// result. The key keeps a kernel byte, always core::DwtKernel::Convolve
// (the one analysis kernel), so keys and the wire frames that carry them
// keep their historical layout and values.
//
// The digest is two independent splitmix64-finalizer lanes over the pixel
// words. Not cryptographic: an adversary could forge a collision, but the
// service caches its own computations, and 128 bits make an accidental
// collision vanishingly unlikely (~2^-64 per pair of distinct scenes).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/boundary.hpp"
#include "core/image.hpp"
#include "core/kernels.hpp"

namespace wavehpc::svc {

/// Identity of one cacheable transform result.
struct CacheKey {
    std::uint64_t digest_lo = 0;  ///< lane 0 of the image-content digest
    std::uint64_t digest_hi = 0;  ///< lane 1
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint8_t taps = 0;
    std::uint8_t levels = 0;
    std::uint8_t boundary = 0;
    std::uint8_t kernel = 0;  ///< core::DwtKernel::Convolve (see above)
    /// Band selector: 0 = the full pyramid, 1 = approximation-only preview
    /// (the progressive pipeline's first deliverable). Previews live in
    /// the same cache under their own key so a degraded client can be
    /// served the coarse scene while the full answer is still in flight —
    /// without ever aliasing the full result.
    std::uint8_t band = 0;

    friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

/// The approximation-preview variant of `k` (band field set; everything
/// else identical).
[[nodiscard]] inline CacheKey preview_key(CacheKey k) noexcept {
    k.band = 1;
    return k;
}

struct CacheKeyHash {
    [[nodiscard]] std::size_t operator()(const CacheKey& k) const noexcept {
        // The digest is already uniform; fold in the cheap fields.
        std::uint64_t h = k.digest_lo ^ (k.digest_hi * 0x9e3779b97f4a7c15ULL);
        h ^= (std::uint64_t{k.rows} << 32) | k.cols;
        h ^= (std::uint64_t{k.kernel} << 24) | (std::uint64_t{k.taps} << 16) |
             (std::uint64_t{k.levels} << 8) | k.boundary;
        h ^= std::uint64_t{k.band} << 56;
        return static_cast<std::size_t>(h);
    }
};

/// 128-bit content digest of the raw pixel bytes.
void content_digest(const core::ImageF& img, std::uint64_t& lo, std::uint64_t& hi);

/// Assemble a key from an already-computed digest (no pixel pass). `kernel`
/// is stored as given; callers pass core::resolve_dwt_kernel's value. The
/// parameter stays because the benchmark package passes it.
[[nodiscard]] CacheKey assemble_cache_key(std::uint64_t digest_lo,
                                          std::uint64_t digest_hi,
                                          const core::ImageF& img, int taps,
                                          int levels, core::BoundaryMode boundary,
                                          core::DwtKernel kernel);

/// Assemble the full key for a transform request. Cost is one linear pass
/// over the pixels; callers hash outside any service lock.
[[nodiscard]] CacheKey make_cache_key(const core::ImageF& img, int taps, int levels,
                                      core::BoundaryMode boundary);

/// Memoized content digests for resubmitted scenes (ISSUE 8).
///
/// A browse workload re-sends the same shared_ptr'd image over and over,
/// and at service rates the linear digest pass is the dominant fixed cost
/// on the warm hot path (a 256x256 scene is a ~130 us hash against a
/// sub-microsecond cache lookup). The memo keys entries by object
/// address but is ABA-safe: each entry co-stores a weak_ptr, and a lookup
/// only trusts the stored digest if locking that weak_ptr yields the very
/// pointer being queried. An address recycled after free shows an expired
/// (or different) control block and falls through to an honest recompute,
/// so a stale digest can never alias a new image. Thread-safe; the pixel
/// pass itself always runs outside the lock.
class DigestMemo {
public:
    explicit DigestMemo(std::size_t capacity = 256);

    /// Digest of *img, served from the memo when the same live object was
    /// hashed before.
    void digest(const std::shared_ptr<const core::ImageF>& img,
                std::uint64_t& lo, std::uint64_t& hi);

    [[nodiscard]] std::uint64_t hits() const;
    [[nodiscard]] std::uint64_t misses() const;

private:
    struct Entry {
        std::weak_ptr<const core::ImageF> ref;
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
    };

    mutable std::mutex mu_;
    std::unordered_map<const core::ImageF*, Entry> map_;
    std::size_t capacity_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

}  // namespace wavehpc::svc
