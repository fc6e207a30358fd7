#include "svc/metrics.hpp"

#include <ostream>

#include "perf/report.hpp"

namespace wavehpc::svc {

void ServiceCounters::merge(const ServiceCounters& o) noexcept {
    submitted += o.submitted;
    accepted += o.accepted;
    rejected += o.rejected;
    cache_hits += o.cache_hits;
    dedup_joins += o.dedup_joins;
    computes += o.computes;
    completed += o.completed;
    deadline_failures += o.deadline_failures;
    shutdown_failures += o.shutdown_failures;
    compute_failures += o.compute_failures;
    retries += o.retries;
    watchdog_timeouts += o.watchdog_timeouts;
    quarantined += o.quarantined;
    quarantine_rejects += o.quarantine_rejects;
    breaker_rejects += o.breaker_rejects;
    degraded_replies += o.degraded_replies;
    crc_audit_failures += o.crc_audit_failures;
    batches += o.batches;
    batched_requests += o.batched_requests;
    arena_hits += o.arena_hits;
    arena_misses += o.arena_misses;
    heap_fallbacks += o.heap_fallbacks;
}

void MetricsSnapshot::merge(const MetricsSnapshot& o) {
    counters.merge(o.counters);
    queue_wait.merge(o.queue_wait);
    compute.merge(o.compute);
    total.merge(o.total);
    for (std::size_t i = 0; i < kOutcomeCount; ++i) outcome[i].merge(o.outcome[i]);
    queue_depth += o.queue_depth;
    backoff_depth += o.backoff_depth;
    running += o.running;
    queued_bytes += o.queued_bytes;
}

const char* outcome_name(Outcome o) noexcept {
    switch (o) {
    case Outcome::Ok: return "ok";
    case Outcome::Retried: return "retried";
    case Outcome::Degraded: return "degraded";
    case Outcome::Quarantined: return "quarantined";
    case Outcome::BreakerRejected: return "breaker-rejected";
    }
    return "?";
}

void print_service_metrics(std::ostream& os, const std::string& label,
                           const MetricsSnapshot& m, const CacheStats& cache) {
    const auto& c = m.counters;
    os << label << ": submitted=" << c.submitted << " accepted=" << c.accepted
       << " rejected=" << c.rejected << " completed=" << c.completed
       << " computes=" << c.computes << " cache_hits=" << c.cache_hits
       << " dedup_joins=" << c.dedup_joins
       << " failures(deadline/shutdown/compute/watchdog)=" << c.deadline_failures
       << "/" << c.shutdown_failures << "/" << c.compute_failures << "/"
       << c.watchdog_timeouts << " queue_depth=" << m.queue_depth
       << " backoff_depth=" << m.backoff_depth << " running=" << m.running
       << " queued_bytes=" << m.queued_bytes << "\n";
    if (c.batches > 0) {
        const double avg = c.batches == 0
                               ? 0.0
                               : static_cast<double>(c.computes) /
                                     static_cast<double>(c.batches);
        os << label << " batching: batches=" << c.batches
           << " batched_requests=" << c.batched_requests
           << " avg_batch=" << avg << " arena(hits/misses/heap_fallbacks)="
           << c.arena_hits << "/" << c.arena_misses << "/" << c.heap_fallbacks
           << "\n";
    }
    if (c.retries + c.quarantined + c.quarantine_rejects + c.breaker_rejects +
            c.degraded_replies + c.crc_audit_failures >
        0) {
        os << label << " resilience: retries=" << c.retries
           << " degraded=" << c.degraded_replies
           << " quarantined=" << c.quarantined << " (+"
           << c.quarantine_rejects << " resubmits rejected)"
           << " breaker_rejects=" << c.breaker_rejects
           << " crc_audit_failures=" << c.crc_audit_failures << "\n";
    }

    perf::TableWriter lat(perf::latency_headers("latency"));
    perf::print_latency_row(lat, "queue_wait", m.queue_wait);
    perf::print_latency_row(lat, "compute", m.compute);
    perf::print_latency_row(lat, "total", m.total);
    for (std::size_t i = 0; i < kOutcomeCount; ++i) {
        if (m.outcome[i].count() == 0) continue;  // keep the quiet path quiet
        perf::print_latency_row(lat, outcome_name(static_cast<Outcome>(i)),
                                m.outcome[i]);
    }
    lat.print(os);

    perf::TableWriter ct({"cache", "hits", "misses", "hit_rate", "entries",
                          "bytes", "budget", "evictions", "evicted_bytes"});
    ct.add_row({"results", std::to_string(cache.hits), std::to_string(cache.misses),
                perf::TableWriter::pct(cache.hit_rate()),
                std::to_string(cache.entries), std::to_string(cache.bytes_in_use),
                std::to_string(cache.byte_budget), std::to_string(cache.evictions),
                std::to_string(cache.evicted_bytes)});
    ct.print(os);
    if (cache.audit_failures + cache.variant_hits > 0) {
        os << "cache audits: crc_failures=" << cache.audit_failures
           << " variant_hits=" << cache.variant_hits << "\n";
    }
}

}  // namespace wavehpc::svc
