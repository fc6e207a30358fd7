#pragma once
// Observable state of the pyramid service, in the style of perf/pool_stats:
// monotonic counters + latency histograms snapshotted on demand, printed as
// the same fixed-width tables the bench binaries use.

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "perf/histogram.hpp"
#include "svc/cache.hpp"

namespace wavehpc::svc {

/// Monotonic event counters. At quiescence (between submits, after every
/// future resolved):
///   submitted = accepted + rejected
///   accepted  = completed + deadline_failures + shutdown_failures
///             + compute_failures + watchdog_timeouts
/// completed includes degraded replies; rejected includes breaker and
/// quarantine fast-rejects alongside admission backpressure.
struct ServiceCounters {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;           ///< admission/breaker/quarantine rejects
    std::uint64_t cache_hits = 0;         ///< answered straight from the cache
    std::uint64_t dedup_joins = 0;        ///< joined an identical in-flight request
    std::uint64_t computes = 0;           ///< transform attempts actually started
    std::uint64_t completed = 0;          ///< replies delivered with a value
    std::uint64_t deadline_failures = 0;  ///< failed queued past their deadline
    std::uint64_t shutdown_failures = 0;  ///< failed queued (or in backoff) at shutdown
    std::uint64_t compute_failures = 0;   ///< transform threw and retries ran out
    // --- resilience layer (ISSUE 5) ---
    std::uint64_t retries = 0;            ///< failed attempts re-queued with backoff
    std::uint64_t watchdog_timeouts = 0;  ///< waiters failed by the compute watchdog
    std::uint64_t quarantined = 0;        ///< waiters perma-failed into quarantine
    std::uint64_t quarantine_rejects = 0; ///< resubmits of a quarantined request
    std::uint64_t breaker_rejects = 0;    ///< fast-rejected while a breaker was open
    std::uint64_t degraded_replies = 0;   ///< served a cached same-scene variant
    std::uint64_t crc_audit_failures = 0; ///< corrupted result buffers caught
    // --- batching + arena (ISSUE 8) ---
    std::uint64_t batches = 0;            ///< fused sweeps dispatched (size >= 1)
    std::uint64_t batched_requests = 0;   ///< flights that shared a sweep (batch > 1)
    std::uint64_t arena_hits = 0;         ///< slab checkouts served from the pool
    std::uint64_t arena_misses = 0;       ///< slab checkouts that allocated
    std::uint64_t heap_fallbacks = 0;     ///< oversize checkouts bypassing the pool

    /// Fold another service's counters into this one; the accounting
    /// identities above hold for the sum iff they hold per shard.
    void merge(const ServiceCounters& o) noexcept;
};

/// Terminal outcome classes; one latency histogram per class so tail
/// reporting separates "clean" from "survived via the resilience layer".
enum class Outcome : std::uint8_t {
    Ok = 0,          ///< value on the first compute attempt (or cache hit)
    Retried,         ///< value after >= 1 retry
    Degraded,        ///< value from a cached same-scene variant
    Quarantined,     ///< perma-failed after exhausting retries
    BreakerRejected, ///< fast-rejected by an open circuit breaker
};
inline constexpr std::size_t kOutcomeCount = 5;

[[nodiscard]] const char* outcome_name(Outcome o) noexcept;

/// One coherent observation of the service.
struct MetricsSnapshot {
    ServiceCounters counters;
    perf::LatencyHistogram queue_wait;  ///< admit -> compute start, computed flights
    perf::LatencyHistogram compute;     ///< transform wall time, computed flights
    perf::LatencyHistogram total;       ///< submit -> reply, every completed request
    /// Submit -> resolution latency split by terminal outcome (index with
    /// static_cast<std::size_t>(Outcome::...)). Empty histograms report 0.
    std::array<perf::LatencyHistogram, kOutcomeCount> outcome;
    std::size_t queue_depth = 0;        ///< flights admitted, not yet dispatched
    std::size_t backoff_depth = 0;      ///< flights waiting out a retry backoff
    std::size_t running = 0;            ///< flights currently computing
    std::uint64_t queued_bytes = 0;     ///< image bytes held by queue + running

    /// Fold another shard's snapshot into this one for fleet reporting:
    /// counters and depth gauges add, histograms merge bucket-wise — the
    /// merged quantiles equal those of one histogram fed both streams.
    void merge(const MetricsSnapshot& o);
};

/// Print the full service report (counters, latency table incl. the
/// per-outcome rows, cache table) under a one-line label; the load bench,
/// chaos bench, and example use it verbatim.
void print_service_metrics(std::ostream& os, const std::string& label,
                           const MetricsSnapshot& m, const CacheStats& cache);

}  // namespace wavehpc::svc
