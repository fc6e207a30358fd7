#pragma once
// In-process wavelet pyramid service: the "front door" the operational
// pipelines in the paper's setting need — accepts concurrent transform
// requests, batches identical ones, caches results, sheds load, and
// (ISSUE 5) survives compute faults instead of surfacing them raw.
//
// Layering (one mutex + one timer thread for backoff/watchdog deadlines):
//
//   submit() ── cache hit ──────────────────────────► ready future
//        │
//        ├── quarantined fingerprint ───────────────► reject (Quarantined)
//        │
//        ├── identical request already in flight ───► join it (single-flight)
//        │
//        ├── circuit breaker open for the backend ──► degraded cached variant
//        │                                            (allow_degraded) or
//        │                                            reject + retry-after
//        ├── admission control: queue depth or in-flight image bytes
//        │   over budget ──────────────────────────► degraded or reject
//        │
//        └── admit ► pending set ordered by (priority, deadline, seq)
//                       │ dispatched when a concurrency slot frees; the
//                       │ batch planner (ISSUE 8) coalesces up to
//                       │ batch_max schedule-equivalent pending flights
//                       ▼ into ONE fused sweep on the shared runtime pool
//                    run_batch ── per-flight watchdog armed for the attempt;
//                       │ every buffer (scratch + pyramid) checked out of
//                       │ the BufferArena; results are slab leases that
//                       │ return on last release (cache eviction included)
//                       │ chaos hooks: injected stall / bad_alloc /
//                       │ compute error / result-bit corruption
//                       ▼
//                    settle, per member, on the pool, without mu_:
//                       CRC ► chaos hook ► audit ► lease ► cache insert
//                       ▼
//                    under mu_: success ► fulfil waiters
//                    failure: breaker tick ► retry with jittered capped
//                             exponential backoff, or quarantine after
//                             max_attempts ► fail waiters
//
// Invariants the tests pin (on top of ISSUE 4's):
//   * A corrupted result buffer never reaches a waiter or the cache: the
//     CRC taken at compute end is audited before delivery and on insert.
//     Every one of these passes runs in the member's settle, on a pool
//     worker, never under the service mutex.
//   * A stalled compute fails its waiters after the watchdog budget and
//     releases the concurrency slot; the pool worker finishes on its own
//     and the salvage result may still be cached, but never delivered.
//   * shutdown() also fails flights parked in retry backoff with
//     ServiceShutdownError — no timer or task outlives the drain.
//   * With no chaos plan and no compute failures, behaviour is
//     byte-for-byte ISSUE 4's (the breaker stays closed, the quarantine
//     stays empty, the watchdog never fires at default budgets).
//
// The ThreadPool must outlive the service, and the service must be shut
// down (or destroyed — the destructor drains) before the pool.

#include <array>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "runtime/thread_pool.hpp"
#include "svc/arena.hpp"
#include "svc/cache.hpp"
#include "svc/chaos.hpp"
#include "svc/metrics.hpp"
#include "svc/request.hpp"
#include "svc/resilience.hpp"

namespace wavehpc::svc {

struct ServiceConfig {
    std::size_t max_queue_depth = 64;           ///< pending flights
    std::uint64_t max_queued_bytes = 256u << 20;  ///< image bytes, pending + running
    std::size_t max_concurrency = 2;            ///< flights computing at once
    std::uint64_t cache_bytes = 64u << 20;      ///< result cache budget
    ResilienceConfig resilience;                ///< retry/breaker/watchdog posture
    /// Batch planner (ISSUE 8): up to this many *schedule-equivalent*
    /// pending flights — same dims/taps/levels/boundary/backend AND
    /// same priority + deadline, so coalescing can never reorder work the
    /// scheduler promised to serialize — fuse into one sweep per dispatch.
    /// 1 = strict per-flight dispatch (the pre-ISSUE-8 behaviour).
    std::size_t batch_max = 8;
    /// > 0: a non-Interactive lead whose batch is underfull may be held up
    /// to this long after admission (never past its deadline) so compatible
    /// traffic can coalesce. 0 = dispatch immediately (default).
    std::uint64_t batch_window_us = 0;
    ArenaConfig arena;                          ///< slab pool posture

    /// Defaults overridden by the WAVEHPC_SVC_* knobs, arena, retry,
    /// breaker and watchdog included (core/knobs.hpp: unset or empty keeps
    /// the default, any value outside the knob's domain throws).
    [[nodiscard]] static ServiceConfig from_env();
};

class PyramidService {
public:
    /// The chaos plan defaults to ChaosPlan::from_env() (WAVEHPC_CHAOS_*);
    /// tests and the chaos bench swap it via set_chaos_plan() before
    /// offering traffic. Throws std::invalid_argument, naming the field,
    /// when a duration a WAVEHPC_SVC_*_MS knob bounds (retry base and cap,
    /// breaker open window, watchdog) lies outside that knob's domain:
    /// NaN, negative or past one hour.
    explicit PyramidService(runtime::ThreadPool& pool, ServiceConfig cfg = {});

    /// Drains via shutdown() if the caller has not already.
    ~PyramidService();

    PyramidService(const PyramidService&) = delete;
    PyramidService& operator=(const PyramidService&) = delete;

    /// Completion hook for an accepted request: runs exactly once, on the
    /// thread that made the future ready (submit's caller for a cache hit,
    /// a pool worker after a compute, the timer or a drain for failures),
    /// after the promise is fulfilled and outside the service lock. It
    /// must not throw.
    using Completion = std::function<void(const TransformFuture&)>;

    /// Synchronous admission decision; never blocks on compute. Throws
    /// std::invalid_argument for malformed requests (null image, bad
    /// taps/levels for the image size) — that is a caller bug, not load.
    /// `on_done`, if set, is called once the accepted request resolves;
    /// it is dropped unrun when the submit is rejected.
    [[nodiscard]] SubmitResult submit(TransformRequest request, Completion on_done = {});

    /// Graceful drain: fail everything still queued *or in retry backoff*
    /// (ServiceShutdownError), wait for dispatched flights to complete and
    /// deliver, stop the timer thread. Idempotent; concurrent callers all
    /// block until quiescence.
    void shutdown();

    [[nodiscard]] MetricsSnapshot metrics() const;
    [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }
    [[nodiscard]] ArenaStats arena_stats() const { return arena_.stats(); }
    /// The slab pool backing this service's computes (test/bench seam).
    [[nodiscard]] BufferArena& arena() noexcept { return arena_; }

    /// Cross-shard degraded scan (shard/cluster.hpp): the cached result for
    /// `key` exactly, else the freshest cached same-scene variant, else
    /// null. Pure cache read — no admission, no flight, no counters beyond
    /// the cache's own hit/variant bookkeeping.
    [[nodiscard]] std::shared_ptr<const TransformResult> peek_cached(
        const CacheKey& key);
    [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

    /// Swap the chaos plan (test/bench seam) and re-wire the cache lookup
    /// audit to the plan's enabled state. Install only while quiescent.
    void set_chaos_plan(ChaosPlan plan);

    /// The fault-injection engine — for pool_observer() wiring and stats.
    /// Use set_chaos_plan (not chaos().set_plan) to change the plan so the
    /// cache audit follows it.
    [[nodiscard]] ChaosEngine& chaos() noexcept { return chaos_; }
    [[nodiscard]] ChaosStats chaos_stats() const { return chaos_.stats(); }

private:
    /// One admitted unit of work; N deduplicated requests share a flight.
    struct Waiter {
        std::promise<TransformReply> promise;
        Clock::time_point submitted_at;
        bool joined = false;  ///< true for every waiter after the first
        /// The submitter's Completion bound to this waiter's future; run
        /// right after the promise is fulfilled (empty = none).
        std::function<void()> on_done;

        void set_value(TransformReply reply);
        void set_exception(std::exception_ptr error);
    };

    /// Where an undelivered flight currently lives. Running flights are in
    /// neither pending_ nor backoff_; the maps below are disjoint.
    enum class FlightState : std::uint8_t { Pending, Backoff, Running };

    /// One concurrency slot shared by every flight of a fused batch. The
    /// slot is released exactly once: by run_batch when the sweep settles,
    /// or early by the watchdog when EVERY armed member was abandoned
    /// (nothing useful is still attached to the running sweep).
    struct BatchSlot {
        std::size_t armed = 0;  ///< members not yet expired/abandoned
        bool released = false;  ///< the --running_ already happened
    };

    struct Flight {
        CacheKey key;
        TransformRequest request;  ///< first requester's params + image ref
        std::uint64_t image_bytes = 0;
        std::vector<Waiter> waiters;
        Priority priority;               ///< max over joined requests
        Clock::time_point deadline;      ///< latest over joined requests
        std::uint64_t seq = 0;           ///< admission order tiebreak
        Clock::time_point admitted_at;
        FlightState state = FlightState::Pending;
        std::uint32_t attempts = 0;      ///< compute attempts finished so far
        Clock::time_point retry_at;      ///< valid while state == Backoff
        Clock::time_point watch_deadline;  ///< valid while state == Running
        /// The watchdog fired: waiters are already failed (and the batch
        /// slot released once no armed member remains); the still-running
        /// compute must only salvage-cache this member.
        bool abandoned = false;
        std::shared_ptr<BatchSlot> slot;  ///< set while Running
    };

    struct PendingOrder {
        bool operator()(const Flight* a, const Flight* b) const noexcept {
            if (a->priority != b->priority) return a->priority > b->priority;
            if (a->deadline != b->deadline) return a->deadline < b->deadline;
            return a->seq < b->seq;
        }
    };

    /// Waiters to fail once the lock is released (promises must not be
    /// fulfilled under mu_ — a ready-made continuation could re-enter).
    struct FailureBatch {
        std::vector<Waiter> waiters;
        std::exception_ptr error;
        Outcome outcome = Outcome::Quarantined;  ///< histogram bucket
        bool record_outcome = false;
    };

    /// submit() minus the completion call: moves `on_done` into the waiter
    /// when the request queues or joins a flight, leaves it set when the
    /// answer is immediate.
    [[nodiscard]] SubmitResult admit(TransformRequest request, Completion& on_done);
    void dispatch_ready(std::unique_lock<std::mutex>& lk,
                        std::vector<FailureBatch>& failures);
    void run_batch(const std::vector<std::shared_ptr<Flight>>& batch);
    void deliver_failures(std::vector<FailureBatch>& failures);
    void timer_loop();
    /// May `b` join a batch led by `a`? Same transform shape AND the same
    /// scheduling attributes (priority, deadline, backend) — coalescing is
    /// restricted to flights the pending order treats as seq-tiebreak
    /// equals, so batching never reorders prioritized or deadlined work.
    [[nodiscard]] static bool batch_compatible(const Flight& a,
                                               const Flight& b) noexcept;
    /// Release the batch's concurrency slot if not already released.
    void release_slot_locked(BatchSlot& slot);
    /// Fail `flight`'s waiters under mu_ with outcome bookkeeping; caller
    /// delivers the batch after unlocking.
    void fail_flight_locked(Flight& flight, std::vector<FailureBatch>& failures,
                            std::exception_ptr error, Outcome outcome);
    [[nodiscard]] double retry_after_locked() const;
    void remove_flight_locked(Flight& flight);
    void erase_watch_locked(Flight& flight);
    void record_outcome_locked(Outcome o, double seconds);
    [[nodiscard]] SubmitResult try_degraded_locked(const CacheKey& key,
                                                   Clock::time_point submitted_at,
                                                   bool& served);

    runtime::ThreadPool& pool_;
    const ServiceConfig cfg_;
    BufferArena arena_;  ///< before cache_: evicted leases recycle into it
    ResultCache cache_;
    ChaosEngine chaos_;
    DigestMemo digest_memo_;  ///< resubmitted scenes skip the pixel hash

    mutable std::mutex mu_;
    std::condition_variable cv_drained_;
    std::condition_variable cv_timer_;
    bool stopping_ = false;
    bool timer_stop_ = false;
    std::uint64_t next_seq_ = 0;
    std::size_t running_ = 0;           // concurrency slots in use
    std::size_t inflight_computes_ = 0; // pool lambdas outstanding (>= drain gate)
    std::uint64_t queued_bytes_ = 0;  // image bytes of pending + running flights
    double ewma_compute_seconds_ = 0.0;
    std::unordered_map<CacheKey, std::shared_ptr<Flight>, CacheKeyHash> flights_;
    std::set<Flight*, PendingOrder> pending_;
    std::multimap<Clock::time_point, Flight*> backoff_;  // keyed by retry_at
    std::multimap<Clock::time_point, Flight*> watch_;    // keyed by watch_deadline
    std::unordered_set<CacheKey, CacheKeyHash> quarantine_;
    std::array<CircuitBreaker, 2> breakers_;  // indexed by Backend
    /// Earliest batch-window hold expiry; the timer thread re-runs
    /// dispatch_ready at this point. max() = nothing held.
    Clock::time_point hold_wake_ = Clock::time_point::max();

    ServiceCounters counters_;
    perf::LatencyHistogram queue_wait_hist_;
    perf::LatencyHistogram compute_hist_;
    perf::LatencyHistogram total_hist_;
    std::array<perf::LatencyHistogram, kOutcomeCount> outcome_hist_;

    std::thread timer_;  // last member: joins before the rest tears down
};

}  // namespace wavehpc::svc
