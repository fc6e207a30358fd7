#pragma once
// Slab arena backing the pyramid service's hot path (ISSUE 8).
//
// Every scratch and subband buffer a compute needs is checked out of the
// arena as a power-of-two "slab" (a std::vector<float> whose CAPACITY is
// exactly a size class) and returned when its holder lets go, so the warm
// steady state performs no heap allocation at all. Three return routes
// feed the free lists:
//
//   * decompose recycles its transient row-pass scratch directly
//     (core::FloatBufferSource::recycle) at the end of every level;
//   * finished results are wrapped by adopt(): a shared_ptr whose deleter
//     harvests the pyramid's slabs when the LAST holder — the result
//     cache, any number of waiters, a shard peer — releases it. Cache
//     insertion therefore *donates* the compute's slabs instead of the
//     cache copying anything, and cache eviction is what returns them;
//   * oversize requests (beyond the largest class) fall back to plain
//     heap vectors, counted separately (heap_fallbacks), and are freed on
//     return rather than pooled.
//
// Slabs are classified by vector capacity: obtain() reserves exactly the
// class size and return classification only pools capacities that exactly
// match a class, so a foreign buffer can never corrupt the byte
// accounting. The byte budget (WAVEHPC_SVC_ARENA_BYTES) caps the POOLED
// (idle) bytes — checkout never fails, and returns beyond the budget are
// freed (dropped_over_budget).
//
// Lifetime: all state lives behind a shared_ptr<Shared> that every lease
// deleter co-owns, so a result outliving the arena (a client still holding
// a reply after service shutdown) stays valid and its late return simply
// frees (freed_after_shutdown) instead of pooling.
//
// Thread-safe: one mutex; obtain/recycle/adopt run concurrently from pool
// workers, client threads, and the cache eviction path.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/buffers.hpp"
#include "svc/request.hpp"

namespace wavehpc::svc {

struct ArenaConfig {
    /// Byte cap on idle (pooled) slabs; returns past it are freed.
    std::uint64_t arena_bytes = 256u << 20;
    /// Number of power-of-two size classes, starting at min_slab_floats.
    std::size_t slab_classes = 12;
    /// Smallest class, in floats (16 KiB). Requests above the largest
    /// class (min_slab_floats << (slab_classes-1)) fall back to the heap.
    std::size_t min_slab_floats = 4096;
};

/// Monotonic counters + resident gauges. bytes_outstanding counts slabs
/// currently checked out (including slabs donated to the result cache);
/// high_water_bytes is the max ever of pooled + outstanding.
struct ArenaStats {
    std::uint64_t hits = 0;            ///< checkouts served from a free list
    std::uint64_t misses = 0;          ///< checkouts that had to allocate a slab
    std::uint64_t heap_fallbacks = 0;  ///< oversize checkouts (never pooled)
    std::uint64_t returns = 0;         ///< slabs handed back (pooled or dropped)
    std::uint64_t dropped_over_budget = 0;  ///< returns freed: pool at budget
    std::uint64_t freed_after_shutdown = 0; ///< returns freed: arena gone
    std::uint64_t reserved_slabs = 0;  ///< slabs pre-provisioned by reserve()
    std::uint64_t bytes_pooled = 0;         ///< idle bytes on free lists
    std::uint64_t bytes_outstanding = 0;    ///< checked-out slab bytes
    std::uint64_t high_water_bytes = 0;     ///< max(pooled + outstanding) seen

    /// Fold another arena's stats into this one (fleet aggregation):
    /// every field adds; high_water adds too (fleet-wide peak footprint
    /// bound, matching how CacheStats merges its resident gauges).
    void merge(const ArenaStats& o) noexcept;
};

class BufferArena final : public core::FloatBufferSource {
public:
    explicit BufferArena(ArenaConfig cfg = {});
    /// Frees pooled slabs and flips the shared state to shutdown; leases
    /// still out there stay valid and free on their own release.
    ~BufferArena() override;

    BufferArena(const BufferArena&) = delete;
    BufferArena& operator=(const BufferArena&) = delete;

    /// Check out a buffer with size() == n (zero-filled iff `zeroed`).
    /// Never fails for lack of pool: a cold class allocates (miss), an
    /// oversize n falls back to the heap (heap_fallbacks).
    [[nodiscard]] std::vector<float> obtain(std::size_t n, bool zeroed) override;

    /// Return a buffer. Pooled iff its capacity exactly matches a size
    /// class and the idle budget holds; freed otherwise.
    void recycle(std::vector<float>&& buf) override;

    /// Wrap a freshly computed result in the shared lease: when the last
    /// holder releases it, every band's slab flows back through recycle().
    [[nodiscard]] std::shared_ptr<const TransformResult> adopt(
        std::unique_ptr<TransformResult> result);

    /// Hand back every band of a pyramid that will NOT become a lease
    /// (e.g. a result that failed its CRC audit). The pyramid is emptied.
    void recycle_pyramid(core::Pyramid&& pyr);

    /// Pre-provision the pool: push `count` fresh idle slabs onto the
    /// free list of the class that serves `floats`-float checkouts
    /// (no-op for oversize requests). Additive on purpose: reservations
    /// that round to the same class sum instead of aliasing, so a plan's
    /// whole reservation list can be replayed verbatim. Provisioned slabs
    /// count as
    /// reserved_slabs and bytes_pooled — NOT as hits or misses — so a
    /// caller that reserves its whole working set up front (the tile
    /// stream driver, via TilePlan::reservations()) can assert a
    /// zero-warm-allocation steady state: misses stays 0. Respects the
    /// idle byte budget; provisioning stops silently at the cap.
    void reserve(std::size_t floats, std::size_t count);

    /// Idle slab count per class (index = class, size = slab_classes) —
    /// the arena-stats line bench_tiled_stream prints for tile classes.
    [[nodiscard]] std::vector<std::size_t> pooled_per_class() const;

    [[nodiscard]] ArenaStats stats() const;
    [[nodiscard]] const ArenaConfig& config() const noexcept;

    /// Size (floats) of class `idx` — test hook.
    [[nodiscard]] std::size_t class_floats(std::size_t idx) const noexcept;
    /// Smallest class holding n floats; slab_classes (one past the last
    /// index) when n is oversize — test hook.
    [[nodiscard]] std::size_t class_for(std::size_t n) const noexcept;

private:
    struct Shared;
    static void give_back(const std::shared_ptr<Shared>& s, std::vector<float>&& buf);

    std::shared_ptr<Shared> s_;
};

}  // namespace wavehpc::svc
