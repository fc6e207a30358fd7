#pragma once
// Content-addressed LRU result cache for the pyramid service.
//
// Keys are content digests (hash.hpp), so two clients uploading the same
// scene bytes share an entry no matter how they name it. Values are
// shared_ptr<const TransformResult>: a lookup hands out the *same* buffer
// the cold compute produced — a hit is bit-identical by construction, and
// eviction never invalidates a result a client still holds.
//
// Capacity is a byte budget over pyramid payloads. Insertion evicts from
// the least-recently-used end until the new entry fits; an entry larger
// than the whole budget is not cached (the computation still succeeded —
// the caller's waiters get the uncached buffer).
//
// Thread-safe behind one mutex; the service calls it from pool workers
// and client threads concurrently. Single-flight deduplication lives in
// the service (it needs the scheduler state), not here.

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "svc/request.hpp"

namespace wavehpc::svc {

/// CRC-32 (mesh::crc32, IEEE 802.3) over every coefficient band of the
/// pyramid, approx last — the integrity checksum the result audit keys on.
[[nodiscard]] std::uint32_t pyramid_crc32(const core::Pyramid& pyr) noexcept;

/// Does `result`'s buffer still match its recorded CRC? Results without a
/// checksum (crc32 == 0) pass vacuously.
[[nodiscard]] bool audit_result(const TransformResult& result) noexcept;

struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t rejected_oversize = 0;  ///< results larger than the budget
    std::uint64_t evictions = 0;
    std::uint64_t evicted_bytes = 0;
    std::uint64_t audit_failures = 0;  ///< CRC mismatches caught on insert/lookup
    std::uint64_t variant_hits = 0;    ///< degraded same-scene variant lookups served
    std::uint64_t bytes_in_use = 0;
    std::uint64_t entries = 0;
    std::uint64_t byte_budget = 0;

    [[nodiscard]] double hit_rate() const noexcept {
        const auto total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
    }

    /// Fold another cache's stats into this one (fleet aggregation across
    /// shards): every field adds, including the resident gauges — the
    /// merged bytes_in_use / entries / byte_budget are fleet totals.
    void merge(const CacheStats& o) noexcept {
        hits += o.hits;
        misses += o.misses;
        insertions += o.insertions;
        rejected_oversize += o.rejected_oversize;
        evictions += o.evictions;
        evicted_bytes += o.evicted_bytes;
        audit_failures += o.audit_failures;
        variant_hits += o.variant_hits;
        bytes_in_use += o.bytes_in_use;
        entries += o.entries;
        byte_budget += o.byte_budget;
    }
};

class ResultCache {
public:
    explicit ResultCache(std::uint64_t byte_budget) : byte_budget_(byte_budget) {}

    ResultCache(const ResultCache&) = delete;
    ResultCache& operator=(const ResultCache&) = delete;

    /// The cached result, bumped to most-recently-used; null on miss.
    /// When lookup auditing is enabled (chaos runs), a resident entry
    /// whose coefficients no longer match its CRC is dropped and reported
    /// as a miss — a corrupted buffer is never handed out.
    [[nodiscard]] std::shared_ptr<const TransformResult> lookup(const CacheKey& key);

    /// Degraded-mode lookup: the most-recently-used entry for the *same
    /// scene* (digest + dimensions match) under any transform parameters.
    /// Null when nothing for that scene is resident. Audited like lookup.
    [[nodiscard]] std::shared_ptr<const TransformResult> lookup_variant(
        const CacheKey& key);

    /// Insert (or refresh) `result` under `key`, evicting LRU entries
    /// until the byte budget holds. No-op if result->result_bytes alone
    /// exceeds the budget, or if the result carries a CRC that its
    /// coefficients fail (corruption caught at the door; audit_failures).
    /// The door audit is a full CRC pass on the caller's thread, before
    /// this cache's lock: callers must not hold a lock of their own
    /// across the call.
    void insert(const CacheKey& key, std::shared_ptr<const TransformResult> result);

    /// Turn on CRC verification of entries on every lookup (the service
    /// enables this when a chaos plan is active; off by default because a
    /// per-hit checksum pass is wasted work in a healthy process).
    void set_audit_lookups(bool on) noexcept { audit_lookups_ = on; }

    [[nodiscard]] CacheStats stats() const;

    /// Keys ordered most-recently-used first — test/introspection hook.
    [[nodiscard]] std::vector<CacheKey> keys_mru_first() const;

private:
    struct Entry {
        CacheKey key;
        std::shared_ptr<const TransformResult> result;
    };

    void evict_lru_locked();  // requires mu_, non-empty lru_
    void erase_entry_locked(std::list<Entry>::iterator it);

    mutable std::mutex mu_;
    bool audit_lookups_ = false;
    std::uint64_t byte_budget_;
    std::uint64_t bytes_in_use_ = 0;
    std::list<Entry> lru_;  // front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash> index_;
    CacheStats stats_;
};

}  // namespace wavehpc::svc
