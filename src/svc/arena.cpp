#include "svc/arena.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

namespace wavehpc::svc {

void ArenaStats::merge(const ArenaStats& o) noexcept {
    hits += o.hits;
    misses += o.misses;
    heap_fallbacks += o.heap_fallbacks;
    returns += o.returns;
    dropped_over_budget += o.dropped_over_budget;
    freed_after_shutdown += o.freed_after_shutdown;
    reserved_slabs += o.reserved_slabs;
    bytes_pooled += o.bytes_pooled;
    bytes_outstanding += o.bytes_outstanding;
    high_water_bytes += o.high_water_bytes;
}

struct BufferArena::Shared {
    explicit Shared(ArenaConfig c) : cfg(c), free_lists(c.slab_classes) {}

    const ArenaConfig cfg;
    std::mutex mu;
    bool shutdown = false;                              // guarded by mu
    std::vector<std::vector<std::vector<float>>> free_lists;  // per class, guarded by mu
    ArenaStats stats;                                   // guarded by mu

    [[nodiscard]] std::size_t class_floats(std::size_t idx) const noexcept {
        return cfg.min_slab_floats << idx;
    }
    /// Smallest class with class_floats >= n; cfg.slab_classes if oversize.
    [[nodiscard]] std::size_t class_for(std::size_t n) const noexcept {
        for (std::size_t i = 0; i < cfg.slab_classes; ++i) {
            if (class_floats(i) >= n) return i;
        }
        return cfg.slab_classes;
    }
    /// The class whose size EXACTLY matches `capacity`; slab_classes when
    /// none does (foreign/oversize buffer — never pooled, so a vector the
    /// allocator over-reserved can't skew the byte accounting).
    [[nodiscard]] std::size_t class_for_capacity(std::size_t capacity) const noexcept {
        for (std::size_t i = 0; i < cfg.slab_classes; ++i) {
            if (class_floats(i) == capacity) return i;
        }
        return cfg.slab_classes;
    }
};

BufferArena::BufferArena(ArenaConfig cfg) : s_(std::make_shared<Shared>(cfg)) {}

BufferArena::~BufferArena() {
    std::vector<std::vector<std::vector<float>>> drop;
    {
        std::lock_guard lk(s_->mu);
        s_->shutdown = true;
        drop.swap(s_->free_lists);  // free pooled slabs outside the lock
        s_->stats.bytes_pooled = 0;
    }
}

const ArenaConfig& BufferArena::config() const noexcept { return s_->cfg; }

std::size_t BufferArena::class_floats(std::size_t idx) const noexcept {
    return s_->class_floats(idx);
}

std::size_t BufferArena::class_for(std::size_t n) const noexcept {
    return s_->class_for(n);
}

std::vector<float> BufferArena::obtain(std::size_t n) {
    Shared& s = *s_;
    const std::size_t cls = s.class_for(n);
    if (cls >= s.cfg.slab_classes) {
        // Oversize: plain heap vector, never pooled.
        std::lock_guard lk(s.mu);
        ++s.stats.heap_fallbacks;
        return std::vector<float>(n);
    }
    const std::size_t slab_floats = s.class_floats(cls);
    const auto slab_bytes = static_cast<std::uint64_t>(slab_floats) * sizeof(float);
    std::vector<float> slab;
    bool hit = false;
    {
        std::lock_guard lk(s.mu);
        auto& free = s.free_lists[cls];
        if (!free.empty()) {
            slab = std::move(free.back());
            free.pop_back();
            s.stats.bytes_pooled -= slab_bytes;
            hit = true;
            ++s.stats.hits;
        } else {
            ++s.stats.misses;
        }
        s.stats.bytes_outstanding += slab_bytes;
        s.stats.high_water_bytes = std::max(
            s.stats.high_water_bytes, s.stats.bytes_pooled + s.stats.bytes_outstanding);
    }
    if (!hit) {
        slab.reserve(slab_floats);  // capacity == class size: the pool key
    }
    slab.resize(n);  // within capacity; stale contents: the caller writes all
    return slab;
}

void BufferArena::give_back(const std::shared_ptr<Shared>& sp,
                            std::vector<float>&& buf) {
    Shared& s = *sp;
    std::vector<float> local = std::move(buf);
    if (local.capacity() == 0) return;  // moved-from band (e.g. emptied image)
    const std::size_t cls = s.class_for_capacity(local.capacity());
    const bool pooled_class = cls < s.cfg.slab_classes;
    const auto slab_bytes =
        static_cast<std::uint64_t>(local.capacity()) * sizeof(float);
    bool keep = false;
    {
        std::lock_guard lk(s.mu);
        ++s.stats.returns;
        // Min-clamp keeps a foreign class-sized vector (recycled without a
        // matching obtain) from wrapping the gauge.
        if (pooled_class) {
            s.stats.bytes_outstanding -=
                std::min(slab_bytes, s.stats.bytes_outstanding);
        }
        if (s.shutdown) {
            ++s.stats.freed_after_shutdown;
        } else if (!pooled_class) {
            // Heap fallback or foreign capacity: freed, not pooled.
        } else if (s.stats.bytes_pooled + slab_bytes > s.cfg.arena_bytes) {
            ++s.stats.dropped_over_budget;
        } else {
            s.stats.bytes_pooled += slab_bytes;
            keep = true;
        }
        if (keep) s.free_lists[cls].push_back(std::move(local));
    }
    // !keep: `local` frees here, outside the lock.
}

void BufferArena::recycle(std::vector<float>&& buf) {
    give_back(s_, std::move(buf));
}

std::shared_ptr<const TransformResult> BufferArena::adopt(
    std::unique_ptr<TransformResult> result) {
    // The deleter co-owns the shared state, so a lease can outlive the
    // arena object itself; a post-shutdown release frees instead of pools.
    return std::shared_ptr<const TransformResult>(
        result.release(), [s = s_](const TransformResult* r) {
            auto* owned = const_cast<TransformResult*>(r);
            for (core::DetailBands& d : owned->pyramid.levels) {
                give_back(s, d.lh.release_data());
                give_back(s, d.hl.release_data());
                give_back(s, d.hh.release_data());
            }
            give_back(s, owned->pyramid.approx.release_data());
            delete owned;
        });
}

void BufferArena::recycle_pyramid(core::Pyramid&& pyr) {
    core::Pyramid local = std::move(pyr);
    for (core::DetailBands& d : local.levels) {
        give_back(s_, d.lh.release_data());
        give_back(s_, d.hl.release_data());
        give_back(s_, d.hh.release_data());
    }
    give_back(s_, local.approx.release_data());
}

void BufferArena::reserve(std::size_t floats, std::size_t count) {
    Shared& s = *s_;
    const std::size_t cls = s.class_for(floats);
    if (cls >= s.cfg.slab_classes) return;  // oversize: always heap, nothing to pool
    const std::size_t slab_floats = s.class_floats(cls);
    const auto slab_bytes = static_cast<std::uint64_t>(slab_floats) * sizeof(float);
    for (std::size_t i = 0; i < count; ++i) {
        // Allocate outside the lock; capacity == class size is the pool key.
        std::vector<float> slab;
        slab.reserve(slab_floats);
        std::lock_guard lk(s.mu);
        if (s.shutdown) return;
        if (s.stats.bytes_pooled + slab_bytes > s.cfg.arena_bytes) return;  // at budget
        s.stats.bytes_pooled += slab_bytes;
        ++s.stats.reserved_slabs;
        s.stats.high_water_bytes = std::max(
            s.stats.high_water_bytes, s.stats.bytes_pooled + s.stats.bytes_outstanding);
        s.free_lists[cls].push_back(std::move(slab));
    }
}

std::vector<std::size_t> BufferArena::pooled_per_class() const {
    Shared& s = *s_;
    std::lock_guard lk(s.mu);
    std::vector<std::size_t> counts(s.cfg.slab_classes, 0);
    for (std::size_t i = 0; i < s.cfg.slab_classes; ++i) {
        counts[i] = s.free_lists[i].size();
    }
    return counts;
}

ArenaStats BufferArena::stats() const {
    std::lock_guard lk(s_->mu);
    return s_->stats;
}

}  // namespace wavehpc::svc
