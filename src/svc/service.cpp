#include "svc/service.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "core/knobs.hpp"
#include "wavelet/threads_dwt.hpp"

namespace wavehpc::svc {

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

std::size_t backend_index(Backend b) noexcept {
    return static_cast<std::size_t>(b) < 2 ? static_cast<std::size_t>(b) : 0;
}

/// Take the submitter's hook (leaving it empty) bound to its future.
std::function<void()> bind_completion(PyramidService::Completion& on_done,
                                      const TransformFuture& future) {
    if (!on_done) return {};
    return [cb = std::exchange(on_done, {}), future] { cb(future); };
}

/// `cfg`, once every duration a WAVEHPC_SVC_*_MS knob bounds lies in that
/// knob's domain. A config built in code never passes the knob read, and
/// past one hour the watchdog's clock conversion overflows.
const ServiceConfig& checked(const ServiceConfig& cfg) {
    const auto bound = [](double seconds, const char* field) {
        constexpr double kMaxSeconds = core::knob_row::kMaxMillis / 1e3;
        if (seconds >= 0.0 && seconds <= kMaxSeconds) return;  // NaN fails both
        std::ostringstream os;
        os << "ServiceConfig: " << field << " = " << seconds << " lies outside [0, "
           << kMaxSeconds << "] seconds";
        throw std::invalid_argument(os.str());
    };
    const ResilienceConfig& r = cfg.resilience;
    bound(r.retry.base_seconds, "resilience.retry.base_seconds");
    bound(r.retry.cap_seconds, "resilience.retry.cap_seconds");
    bound(r.breaker.open_seconds, "resilience.breaker.open_seconds");
    bound(r.watchdog_seconds, "resilience.watchdog_seconds");
    return cfg;
}

}  // namespace

ServiceConfig ServiceConfig::from_env() {
    using core::env_real;
    using core::env_unsigned;
    // Millisecond knobs over fields kept in seconds.
    const auto ms = [](core::KnobRef<core::KnobKind::Real> knob, double seconds) {
        return env_real(knob).value_or(seconds * 1e3) * 1e-3;
    };
    ServiceConfig cfg;
    cfg.max_queue_depth = env_unsigned("WAVEHPC_SVC_QUEUE_DEPTH").value_or(cfg.max_queue_depth);
    cfg.max_queued_bytes =
        env_unsigned("WAVEHPC_SVC_QUEUE_BYTES").value_or(cfg.max_queued_bytes);
    cfg.max_concurrency = env_unsigned("WAVEHPC_SVC_CONCURRENCY").value_or(cfg.max_concurrency);
    cfg.cache_bytes = env_unsigned("WAVEHPC_SVC_CACHE_BYTES").value_or(cfg.cache_bytes);
    cfg.batch_max = env_unsigned("WAVEHPC_SVC_BATCH_MAX").value_or(cfg.batch_max);
    cfg.batch_window_us =
        env_unsigned("WAVEHPC_SVC_BATCH_WINDOW_US").value_or(cfg.batch_window_us);

    ArenaConfig& arena = cfg.arena;
    arena.arena_bytes = env_unsigned("WAVEHPC_SVC_ARENA_BYTES").value_or(arena.arena_bytes);
    arena.slab_classes =
        env_unsigned("WAVEHPC_SVC_ARENA_SLAB_CLASSES").value_or(arena.slab_classes);

    // The u32 fields' domains end at UINT32_MAX, so the casts are exact.
    RetryPolicy& retry = cfg.resilience.retry;
    retry.max_attempts = static_cast<std::uint32_t>(
        env_unsigned("WAVEHPC_SVC_RETRY_MAX").value_or(retry.max_attempts));
    retry.base_seconds = ms("WAVEHPC_SVC_RETRY_BASE_MS", retry.base_seconds);
    retry.cap_seconds = ms("WAVEHPC_SVC_RETRY_CAP_MS", retry.cap_seconds);
    retry.jitter = env_real("WAVEHPC_SVC_RETRY_JITTER").value_or(retry.jitter);

    BreakerConfig& breaker = cfg.resilience.breaker;
    breaker.failure_threshold =
        env_real("WAVEHPC_SVC_BREAKER_THRESHOLD").value_or(breaker.failure_threshold);
    breaker.ewma_alpha = env_real("WAVEHPC_SVC_BREAKER_ALPHA").value_or(breaker.ewma_alpha);
    breaker.min_samples = static_cast<std::uint32_t>(
        env_unsigned("WAVEHPC_SVC_BREAKER_MIN_SAMPLES").value_or(breaker.min_samples));
    breaker.open_seconds = ms("WAVEHPC_SVC_BREAKER_OPEN_MS", breaker.open_seconds);
    breaker.half_open_probes = static_cast<std::uint32_t>(
        env_unsigned("WAVEHPC_SVC_BREAKER_PROBES").value_or(breaker.half_open_probes));

    cfg.resilience.watchdog_seconds =
        ms("WAVEHPC_SVC_WATCHDOG_MS", cfg.resilience.watchdog_seconds);
    return cfg;
}

PyramidService::PyramidService(runtime::ThreadPool& pool, ServiceConfig cfg)
    : pool_(pool),
      cfg_(checked(cfg)),
      arena_(cfg.arena),
      cache_(cfg.cache_bytes),
      chaos_(ChaosPlan::from_env()),
      breakers_{CircuitBreaker(cfg.resilience.breaker),
                CircuitBreaker(cfg.resilience.breaker)} {
    cache_.set_audit_lookups(chaos_.enabled());
    timer_ = std::thread([this] { timer_loop(); });
}

PyramidService::~PyramidService() {
    shutdown();
    if (timer_.joinable()) timer_.join();
}

void PyramidService::set_chaos_plan(ChaosPlan plan) {
    chaos_.set_plan(std::move(plan));
    cache_.set_audit_lookups(chaos_.enabled());
}

void PyramidService::record_outcome_locked(Outcome o, double seconds) {
    outcome_hist_[static_cast<std::size_t>(o)].record(seconds);
}

void PyramidService::Waiter::set_value(TransformReply reply) {
    promise.set_value(std::move(reply));
    if (on_done) on_done();
}

void PyramidService::Waiter::set_exception(std::exception_ptr error) {
    promise.set_exception(std::move(error));
    if (on_done) on_done();
}

SubmitResult PyramidService::submit(TransformRequest request, Completion on_done) {
    SubmitResult out = admit(std::move(request), on_done);
    // Answered on the spot (cache hit or degraded variant): the future is
    // already ready and the lock released, so the hook runs here.
    if (out.accepted && on_done) on_done(out.future);
    return out;
}

SubmitResult PyramidService::admit(TransformRequest request, Completion& on_done) {
    if (!request.image) {
        throw std::invalid_argument("PyramidService::submit: null image");
    }
    // Any byte casts into an enum; one past its last value would reach the
    // kernels and the cache key raw.
    const auto in_range = [](bool ok, const char* field) {
        if (!ok) {
            throw std::invalid_argument(std::string("PyramidService::submit: bad ") + field);
        }
    };
    in_range(request.boundary <= core::BoundaryMode::ZeroPad, "boundary");
    in_range(request.kernel <= core::DwtKernel::Convolve, "kernel");
    in_range(request.backend <= Backend::Threads, "backend");
    in_range(request.priority <= Priority::Interactive, "priority");
    core::validate_decomposition_request(request.image->rows(),
                                         request.image->cols(), request.levels);
    const auto fp = core::FilterPair::daubechies(request.taps);  // eager taps validation
    // Auto becomes Convolve here, the kernel byte every cache key and shard
    // frame carries.
    request.kernel = core::resolve_dwt_kernel(request.kernel, fp);

    const auto submitted_at = Clock::now();
    // Digest outside the lock; the memo turns the linear pixel pass into
    // a pointer lookup for scenes the service has seen alive before.
    std::uint64_t digest_lo = 0;
    std::uint64_t digest_hi = 0;
    digest_memo_.digest(request.image, digest_lo, digest_hi);
    const CacheKey key =
        assemble_cache_key(digest_lo, digest_hi, *request.image, request.taps,
                           request.levels, request.boundary, request.kernel);
    const auto image_bytes =
        static_cast<std::uint64_t>(request.image->size()) * sizeof(float);

    std::vector<FailureBatch> failures;
    SubmitResult out;
    {
        std::unique_lock lk(mu_);
        ++counters_.submitted;

        if (stopping_) {
            ++counters_.rejected;
            out.accepted = false;
            out.reject_reason = RejectReason::ShuttingDown;
            out.retry_after_seconds = std::numeric_limits<double>::infinity();
            return out;
        }

        if (auto hit = cache_.lookup(key)) {
            ++counters_.accepted;
            ++counters_.cache_hits;
            ++counters_.completed;
            TransformReply reply;
            reply.result = std::move(hit);
            reply.cache_hit = true;
            reply.total_seconds = seconds_between(submitted_at, Clock::now());
            total_hist_.record(reply.total_seconds);
            record_outcome_locked(Outcome::Ok, reply.total_seconds);
            std::promise<TransformReply> ready;
            out.future = ready.get_future().share();
            ready.set_value(std::move(reply));
            out.accepted = true;
            return out;
        }

        if (quarantine_.contains(key)) {
            // Poison fingerprint: this exact request already burned its
            // whole retry budget; fail resubmissions fast instead of
            // letting them chew compute slots again.
            ++counters_.rejected;
            ++counters_.quarantine_rejects;
            record_outcome_locked(Outcome::Quarantined,
                                  seconds_between(submitted_at, Clock::now()));
            out.accepted = false;
            out.reject_reason = RejectReason::Quarantined;
            out.retry_after_seconds = std::numeric_limits<double>::infinity();
            return out;
        }

        if (const auto it = flights_.find(key); it != flights_.end()) {
            // Single-flight: identical request already admitted — join it.
            Flight& flight = *it->second;
            Waiter waiter;
            waiter.submitted_at = submitted_at;
            waiter.joined = true;
            out.future = waiter.promise.get_future().share();
            waiter.on_done = bind_completion(on_done, out.future);
            flight.waiters.push_back(std::move(waiter));
            const Priority prio = std::max(flight.priority, request.priority);
            const auto deadline = std::max(flight.deadline, request.deadline);
            if (prio != flight.priority || deadline != flight.deadline) {
                // Reorder only while the flight actually sits in pending_;
                // Backoff/Running flights pick the upgrade up on requeue.
                if (flight.state == FlightState::Pending) pending_.erase(&flight);
                flight.priority = prio;
                flight.deadline = deadline;
                if (flight.state == FlightState::Pending) pending_.insert(&flight);
            }
            ++counters_.accepted;
            ++counters_.dedup_joins;
            out.accepted = true;
            return out;
        }

        if (pending_.size() >= cfg_.max_queue_depth ||
            queued_bytes_ + image_bytes > cfg_.max_queued_bytes) {
            if (request.allow_degraded) {
                bool served = false;
                auto degraded = try_degraded_locked(key, submitted_at, served);
                if (served) return degraded;
            }
            ++counters_.rejected;
            out.accepted = false;
            out.reject_reason = RejectReason::Saturated;
            out.retry_after_seconds = retry_after_locked();
            return out;
        }

        // Last gate before admission, so a half-open probe reservation is
        // always followed by a real compute attempt.
        if (CircuitBreaker& breaker = breakers_[backend_index(request.backend)];
            !breaker.allow(submitted_at)) {
            if (request.allow_degraded) {
                bool served = false;
                auto degraded = try_degraded_locked(key, submitted_at, served);
                if (served) return degraded;
            }
            ++counters_.rejected;
            ++counters_.breaker_rejects;
            record_outcome_locked(Outcome::BreakerRejected,
                                  seconds_between(submitted_at, Clock::now()));
            out.accepted = false;
            out.reject_reason = RejectReason::BreakerOpen;
            out.retry_after_seconds = breaker.retry_after_seconds(submitted_at);
            return out;
        }

        auto flight = std::make_shared<Flight>();
        flight->key = key;
        flight->request = std::move(request);
        flight->image_bytes = image_bytes;
        flight->priority = flight->request.priority;
        flight->deadline = flight->request.deadline;
        flight->seq = next_seq_++;
        flight->admitted_at = submitted_at;
        Waiter waiter;
        waiter.submitted_at = submitted_at;
        out.future = waiter.promise.get_future().share();
        waiter.on_done = bind_completion(on_done, out.future);
        flight->waiters.push_back(std::move(waiter));
        pending_.insert(flight.get());
        flights_.emplace(key, std::move(flight));
        queued_bytes_ += image_bytes;
        ++counters_.accepted;
        out.accepted = true;

        dispatch_ready(lk, failures);
    }
    deliver_failures(failures);
    return out;
}

SubmitResult PyramidService::try_degraded_locked(const CacheKey& key,
                                                 Clock::time_point submitted_at,
                                                 bool& served) {
    SubmitResult out;
    auto variant = cache_.lookup_variant(key);
    if (!variant) {
        served = false;
        return out;
    }
    served = true;
    ++counters_.accepted;
    ++counters_.completed;
    ++counters_.degraded_replies;
    TransformReply reply;
    reply.result = std::move(variant);
    reply.degraded = true;
    reply.total_seconds = seconds_between(submitted_at, Clock::now());
    total_hist_.record(reply.total_seconds);
    record_outcome_locked(Outcome::Degraded, reply.total_seconds);
    std::promise<TransformReply> ready;
    out.future = ready.get_future().share();
    ready.set_value(std::move(reply));
    out.accepted = true;
    return out;
}

double PyramidService::retry_after_locked() const {
    const double per_request =
        ewma_compute_seconds_ > 0.0 ? ewma_compute_seconds_ : 0.05;
    const double backlog = static_cast<double>(pending_.size() + running_ + 1);
    const double eta =
        backlog * per_request / static_cast<double>(cfg_.max_concurrency);
    return std::clamp(eta, 1e-3, 30.0);
}

void PyramidService::remove_flight_locked(Flight& flight) {
    queued_bytes_ -= flight.image_bytes;
    const CacheKey key = flight.key;  // copy: erase destroys the flight
    flights_.erase(key);
}

void PyramidService::erase_watch_locked(Flight& flight) {
    auto [lo, hi] = watch_.equal_range(flight.watch_deadline);
    for (auto it = lo; it != hi; ++it) {
        if (it->second == &flight) {
            watch_.erase(it);
            return;
        }
    }
}

void PyramidService::fail_flight_locked(Flight& flight,
                                        std::vector<FailureBatch>& failures,
                                        std::exception_ptr error, Outcome outcome) {
    const auto now = Clock::now();
    for (const Waiter& w : flight.waiters) {
        record_outcome_locked(outcome, seconds_between(w.submitted_at, now));
    }
    failures.push_back({std::move(flight.waiters), std::move(error), outcome, true});
}

bool PyramidService::batch_compatible(const Flight& a, const Flight& b) noexcept {
    return a.priority == b.priority && a.deadline == b.deadline &&
           a.request.backend == b.request.backend &&
           a.request.taps == b.request.taps &&
           a.request.levels == b.request.levels &&
           a.request.boundary == b.request.boundary &&
           a.request.image->rows() == b.request.image->rows() &&
           a.request.image->cols() == b.request.image->cols();
}

void PyramidService::release_slot_locked(BatchSlot& slot) {
    if (!slot.released) {
        slot.released = true;
        --running_;
    }
}

void PyramidService::dispatch_ready(std::unique_lock<std::mutex>& lk,
                                    std::vector<FailureBatch>& failures) {
    (void)lk;  // documents the precondition: mu_ is held
    const auto now = Clock::now();
    while (running_ < cfg_.max_concurrency && !pending_.empty()) {
        Flight* lead = *pending_.begin();
        if (lead->deadline < now) {
            // Expired while queued: fail, never compute.
            pending_.erase(pending_.begin());
            counters_.deadline_failures += lead->waiters.size();
            failures.push_back(
                {std::move(lead->waiters),
                 std::make_exception_ptr(DeadlineExpiredError{})});
            remove_flight_locked(*lead);
            continue;
        }

        // Batch planner: collect schedule-equivalent followers in pending
        // order. Because batch_compatible requires identical (priority,
        // deadline), members are contiguous seq-tiebreak equals — the
        // planner never lifts work over anything the order would have run
        // first.
        std::vector<Flight*> members{lead};
        if (cfg_.batch_max > 1) {
            for (auto it = std::next(pending_.begin());
                 it != pending_.end() && members.size() < cfg_.batch_max; ++it) {
                if (batch_compatible(*lead, **it)) members.push_back(*it);
            }
        }

        // Optional hold: an underfull non-interactive batch may wait for
        // company within the window, never past the lead's deadline.
        if (cfg_.batch_window_us > 0 && members.size() < cfg_.batch_max &&
            lead->priority != Priority::Interactive) {
            const auto hold_until =
                lead->admitted_at + std::chrono::microseconds(cfg_.batch_window_us);
            if (now < hold_until && hold_until < lead->deadline) {
                hold_wake_ = std::min(hold_wake_, hold_until);
                cv_timer_.notify_one();
                break;  // keep order: nothing behind the held lead dispatches
            }
        }

        auto slot = std::make_shared<BatchSlot>();
        slot->armed = members.size();
        std::vector<std::shared_ptr<Flight>> batch;
        batch.reserve(members.size());
        for (Flight* f : members) {
            pending_.erase(f);
            f->state = FlightState::Running;
            f->slot = slot;
            batch.push_back(flights_.at(f->key));
        }
        ++running_;
        ++inflight_computes_;
        ++counters_.batches;
        if (members.size() > 1) counters_.batched_requests += members.size();
        const auto prio = lead->priority == Priority::Interactive
                              ? runtime::TaskPriority::High
                              : runtime::TaskPriority::Normal;
        pool_.submit([this, batch = std::move(batch)] { run_batch(batch); }, prio);
    }
}

void PyramidService::run_batch(const std::vector<std::shared_ptr<Flight>>& batch) {
    const auto start = Clock::now();
    const std::shared_ptr<BatchSlot> slot = batch.front()->slot;
    std::vector<FailureBatch> failures;

    /// Per-member compute state carried across the phases.
    struct Cell {
        std::shared_ptr<Flight> flight;
        ChaosDecision decision{};
        std::shared_ptr<const TransformResult> result;
        std::exception_ptr error;
        bool crc_failed = false;
    };
    std::vector<Cell> live;
    live.reserve(batch.size());

    {
        // Phase 1 (locked): per-member deadline recheck + watchdog arming.
        std::unique_lock lk(mu_);
        for (const auto& flight : batch) {
            if (flight->deadline < start) {
                // Expired between dispatch and a pool slot freeing up.
                counters_.deadline_failures += flight->waiters.size();
                failures.push_back(
                    {std::move(flight->waiters),
                     std::make_exception_ptr(DeadlineExpiredError{})});
                remove_flight_locked(*flight);
                --slot->armed;
                continue;
            }
            ++counters_.computes;
            // Arm the watchdog for this attempt: the budget is the
            // configured limit, tightened by whatever time the request
            // deadline leaves.
            double budget = cfg_.resilience.watchdog_seconds;
            if (flight->deadline != Clock::time_point::max()) {
                budget = budget > 0.0
                             ? std::min(budget,
                                        seconds_between(start, flight->deadline))
                             : seconds_between(start, flight->deadline);
            }
            if (budget > 0.0) {
                flight->watch_deadline =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(budget));
                watch_.emplace(flight->watch_deadline, flight.get());
                cv_timer_.notify_one();
            } else {
                flight->watch_deadline = Clock::time_point::max();
            }
            live.push_back(Cell{flight, {}, nullptr, nullptr, false});
        }
        if (live.empty()) {
            release_slot_locked(*slot);
            --inflight_computes_;
            dispatch_ready(lk, failures);
            if (stopping_ && inflight_computes_ == 0) cv_drained_.notify_all();
            lk.unlock();
            deliver_failures(failures);
            return;
        }
    }

    // Chaos decisions per member, drawn in batch (= admission) order
    // outside the lock, so a fused batch consumes the deterministic
    // decision stream exactly as per-flight dispatch would have.
    for (Cell& cell : live) {
        cell.decision = chaos_.next_compute_decision();
        try {
            chaos_.inject_before_compute(cell.decision);
        } catch (...) {
            // This member's injected pre-compute fault: it takes the
            // retry path; the rest of the batch still computes.
            cell.error = std::current_exception();
        }
    }

    // Phase 2 (unlocked): ONE fused sweep for every member that survived
    // injection, then every member's settle. Per-member results are
    // bit-identical to solo computes (decompose_batch contract); every
    // buffer comes from the arena.
    const TransformRequest& req0 = live.front().flight->request;
    runtime::ThreadPool* const pool =
        req0.backend == Backend::Serial ? nullptr : &pool_;
    std::vector<const core::ImageF*> images;
    std::vector<Cell*> computing;
    for (Cell& cell : live) {
        if (!cell.error) {
            images.push_back(cell.flight->request.image.get());
            computing.push_back(&cell);
        }
    }
    if (!images.empty()) {
        std::vector<core::Pyramid> pyrs;
        std::exception_ptr sweep_error;
        try {
            const auto fp = core::FilterPair::daubechies(req0.taps);
            pyrs = wavelet::decompose_batch(images, fp, req0.levels, req0.boundary, pool,
                                            req0.kernel, &arena_);
        } catch (...) {
            sweep_error = std::current_exception();
        }
        const auto sweep_end = Clock::now();
        const double sweep_seconds = seconds_between(start, sweep_end);
        // One member's settle, ending with its cache insert. It writes only
        // its own Cell, and every call it makes takes its own lock (chaos,
        // arena, cache), so members settle in parallel and no CRC pass
        // runs under mu_.
        const auto settle = [&](std::size_t i) {
            Cell& cell = *computing[i];
            auto owned = std::make_unique<TransformResult>();
            owned->pyramid = std::move(pyrs[i]);
            owned->key = cell.flight->key;
            owned->result_bytes = pyramid_bytes(owned->pyramid);
            owned->compute_seconds = sweep_seconds;
            // CRC point of truth, then the chaos corruption hook: an
            // injected bit flip lands *after* the checksum, so the audit
            // must catch it.
            owned->crc32 = pyramid_crc32(owned->pyramid);
            chaos_.corrupt_result(cell.decision, owned->pyramid);
            if (!audit_result(*owned)) {
                cell.crc_failed = true;
                cell.error = std::make_exception_ptr(CrcAuditError{});
                // The corrupted buffers still return to the pool: the
                // retry obtains fresh slabs and overwrites every element.
                arena_.recycle_pyramid(std::move(owned->pyramid));
                return;
            }
            // The lease: cache + waiters share it; the last release
            // (typically cache eviction) recycles the slabs.
            cell.result = arena_.adopt(std::move(owned));
            // Cached before phase 3 removes the flight, so a submit in
            // between hits the cache instead of starting a new flight. A
            // watchdog-abandoned member is cached too: salvage.
            cache_.insert(cell.flight->key, cell.result);
        };
        const auto settle_range = [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) settle(i);
        };
        if (sweep_error) {
            for (Cell* cell : computing) cell->error = sweep_error;
        } else if (pool != nullptr) {
            pool->parallel_for(0, computing.size(), settle_range);
        } else {
            settle_range(0, computing.size());
        }
    }
    const auto finish = Clock::now();

    /// Successful members to fulfil once the lock is dropped.
    struct Delivery {
        std::vector<Waiter> waiters;
        std::shared_ptr<const TransformResult> result;
        std::uint32_t attempts = 1;
    };
    std::vector<Delivery> deliveries;
    {
        // Phase 3 (locked): book every member's outcome — the per-flight
        // success/retry/quarantine logic, minus the slot bookkeeping,
        // which happens once for the whole batch at the end.
        std::unique_lock lk(mu_);
        bool ewma_updated = false;
        for (Cell& cell : live) {
            Flight& flight = *cell.flight;
            erase_watch_locked(flight);
            if (cell.crc_failed) ++counters_.crc_audit_failures;

            if (flight.abandoned) {
                // The watchdog already failed the waiters (and the slot,
                // once every member was abandoned); the settle already
                // cached a clean result as salvage, so the work is not
                // wasted.
                continue;
            }

            ++flight.attempts;
            CircuitBreaker& breaker =
                breakers_[backend_index(flight.request.backend)];

            if (cell.result) {
                breaker.record_success(finish);
                Delivery d;
                d.waiters = std::move(flight.waiters);  // includes joins during compute
                d.result = cell.result;
                d.attempts = flight.attempts;
                remove_flight_locked(flight);
                const double compute_seconds = cell.result->compute_seconds;
                queue_wait_hist_.record(seconds_between(flight.admitted_at, start));
                compute_hist_.record(compute_seconds);
                if (!ewma_updated) {
                    // One smoothing step per sweep with the *per-request*
                    // effective service time — the retry-after estimator
                    // models throughput, which batching multiplies.
                    const double per_request =
                        compute_seconds / static_cast<double>(live.size());
                    ewma_compute_seconds_ =
                        ewma_compute_seconds_ == 0.0
                            ? per_request
                            : 0.8 * ewma_compute_seconds_ + 0.2 * per_request;
                    ewma_updated = true;
                }
                counters_.completed += d.waiters.size();
                const Outcome o =
                    flight.attempts > 1 ? Outcome::Retried : Outcome::Ok;
                for (const Waiter& w : d.waiters) {
                    const double total = seconds_between(w.submitted_at, finish);
                    total_hist_.record(total);
                    record_outcome_locked(o, total);
                }
                deliveries.push_back(std::move(d));
            } else {
                breaker.record_failure(finish);
                if (stopping_) {
                    // Draining: no retries; propagate the error so the
                    // drain finishes promptly.
                    counters_.compute_failures += flight.waiters.size();
                    failures.push_back({std::move(flight.waiters), cell.error});
                    remove_flight_locked(flight);
                } else if (flight.attempts >= cfg_.resilience.retry.max_attempts) {
                    // Poison request: quarantine the fingerprint and fail
                    // permanently with the last attempt's error.
                    quarantine_.insert(flight.key);
                    counters_.compute_failures += flight.waiters.size();
                    counters_.quarantined += flight.waiters.size();
                    fail_flight_locked(flight, failures, cell.error,
                                       Outcome::Quarantined);
                    remove_flight_locked(flight);
                } else {
                    // Transient failure: park the flight until its jittered
                    // backoff elapses (timer thread).
                    ++counters_.retries;
                    const double delay = cfg_.resilience.retry.backoff_seconds(
                        flight.attempts, (flight.seq << 16) ^ flight.attempts);
                    flight.retry_at =
                        finish + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(delay));
                    flight.state = FlightState::Backoff;
                    backoff_.emplace(flight.retry_at, &flight);
                    flight.slot.reset();
                    cv_timer_.notify_one();
                }
            }
        }
        release_slot_locked(*slot);
        --inflight_computes_;
        dispatch_ready(lk, failures);
        if (stopping_ && inflight_computes_ == 0) cv_drained_.notify_all();
    }

    const auto batch_size = static_cast<std::uint32_t>(live.size());
    for (Delivery& d : deliveries) {
        for (Waiter& w : d.waiters) {
            TransformReply reply;
            reply.result = d.result;
            reply.shared_flight = w.joined;
            reply.attempts = d.attempts;
            reply.batch_size = batch_size;
            reply.queue_seconds = seconds_between(w.submitted_at, start);
            reply.compute_seconds = d.result->compute_seconds;
            reply.total_seconds = seconds_between(w.submitted_at, finish);
            w.set_value(std::move(reply));
        }
    }
    deliver_failures(failures);
}

void PyramidService::timer_loop() {
    std::unique_lock lk(mu_);
    while (!timer_stop_) {
        const auto now = Clock::now();
        std::vector<FailureBatch> failures;
        bool changed = false;

        // Backoffs that elapsed: requeue for dispatch.
        while (!backoff_.empty() && backoff_.begin()->first <= now) {
            Flight* flight = backoff_.begin()->second;
            backoff_.erase(backoff_.begin());
            flight->state = FlightState::Pending;
            pending_.insert(flight);
            changed = true;
        }

        // Watchdog deadlines that passed: fail the waiters, release the
        // batch's slot once no armed member remains, and leave the
        // still-running sweep to salvage-finish.
        while (!watch_.empty() && watch_.begin()->first <= now) {
            Flight* flight = watch_.begin()->second;
            watch_.erase(watch_.begin());
            flight->abandoned = true;
            counters_.watchdog_timeouts += flight->waiters.size();
            breakers_[backend_index(flight->request.backend)].record_failure(now);
            failures.push_back(
                {std::move(flight->waiters),
                 std::make_exception_ptr(WatchdogTimeoutError{})});
            remove_flight_locked(*flight);
            if (flight->slot && --flight->slot->armed == 0) {
                release_slot_locked(*flight->slot);
            }
            changed = true;
        }

        // A batch-window hold elapsed: let dispatch_ready re-plan.
        if (hold_wake_ <= now) {
            hold_wake_ = Clock::time_point::max();
            changed = true;
        }

        if (changed) dispatch_ready(lk, failures);
        if (!failures.empty()) {
            lk.unlock();
            deliver_failures(failures);
            lk.lock();
            continue;  // re-evaluate under fresh state
        }

        auto next = Clock::time_point::max();
        if (!backoff_.empty()) next = std::min(next, backoff_.begin()->first);
        if (!watch_.empty()) next = std::min(next, watch_.begin()->first);
        next = std::min(next, hold_wake_);
        if (next == Clock::time_point::max()) {
            cv_timer_.wait(lk);
        } else {
            cv_timer_.wait_until(lk, next);
        }
    }
}

void PyramidService::deliver_failures(std::vector<FailureBatch>& failures) {
    for (FailureBatch& batch : failures) {
        for (Waiter& w : batch.waiters) w.set_exception(batch.error);
    }
    failures.clear();
}

void PyramidService::shutdown() {
    std::vector<FailureBatch> failures;
    {
        std::unique_lock lk(mu_);
        if (!stopping_) {
            stopping_ = true;
            for (Flight* flight : pending_) {
                counters_.shutdown_failures += flight->waiters.size();
                failures.push_back(
                    {std::move(flight->waiters),
                     std::make_exception_ptr(ServiceShutdownError{})});
                remove_flight_locked(*flight);
            }
            pending_.clear();
            // Flights parked in retry backoff die the same way: their
            // timer entry is dropped here, so no retry fires post-drain.
            for (auto& [retry_at, flight] : backoff_) {
                counters_.shutdown_failures += flight->waiters.size();
                failures.push_back(
                    {std::move(flight->waiters),
                     std::make_exception_ptr(ServiceShutdownError{})});
                remove_flight_locked(*flight);
            }
            backoff_.clear();
        }
    }
    deliver_failures(failures);
    {
        std::unique_lock lk(mu_);
        cv_drained_.wait(lk, [this] { return inflight_computes_ == 0; });
        timer_stop_ = true;
    }
    cv_timer_.notify_all();
}

MetricsSnapshot PyramidService::metrics() const {
    std::lock_guard lk(mu_);
    MetricsSnapshot m;
    m.counters = counters_;
    m.queue_wait = queue_wait_hist_;
    m.compute = compute_hist_;
    m.total = total_hist_;
    m.outcome = outcome_hist_;
    m.queue_depth = pending_.size();
    m.backoff_depth = backoff_.size();
    m.running = running_;
    m.queued_bytes = queued_bytes_;
    // Arena counters live behind the arena's own mutex (mu_ -> arena.mu is
    // the only order ever taken, so this nesting cannot deadlock).
    const ArenaStats a = arena_.stats();
    m.counters.arena_hits = a.hits;
    m.counters.arena_misses = a.misses;
    m.counters.heap_fallbacks = a.heap_fallbacks;
    return m;
}

std::shared_ptr<const TransformResult> PyramidService::peek_cached(
    const CacheKey& key) {
    if (auto exact = cache_.lookup(key)) return exact;
    return cache_.lookup_variant(key);
}

}  // namespace wavehpc::svc
