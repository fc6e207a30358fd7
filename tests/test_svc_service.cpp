// Admission control, scheduling, and shutdown semantics of the pyramid
// service (ISSUE 4): saturation rejects instead of blocking or growing the
// queue, drain-on-shutdown completes accepted in-flight work and fails
// queued work with a distinct error, deadline-expired requests are
// failed, never computed, and the completion hook fires once per accepted
// request, after its future is ready.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/synthetic.hpp"

namespace {

using wavehpc::core::ImageF;
using wavehpc::runtime::ThreadPool;
using wavehpc::svc::Backend;
using wavehpc::svc::Clock;
using wavehpc::svc::DeadlineExpiredError;
using wavehpc::svc::Priority;
using wavehpc::svc::PyramidService;
using wavehpc::svc::ServiceConfig;
using wavehpc::svc::ServiceShutdownError;
using wavehpc::svc::TransformRequest;

std::shared_ptr<const ImageF> scene(std::size_t n, std::uint64_t seed) {
    return std::make_shared<const ImageF>(wavehpc::core::landsat_tm_like(n, n, seed));
}

TransformRequest request_for(std::shared_ptr<const ImageF> img, int taps = 4,
                             int levels = 1) {
    TransformRequest req;
    req.image = std::move(img);
    req.taps = taps;
    req.levels = levels;
    req.backend = Backend::Serial;
    return req;
}

/// A pool whose single worker is parked on a latch until release() — makes
/// every scheduling race in these tests a deterministic sequence.
struct GatedPool {
    GatedPool() : pool(1), opened(gate.get_future()) {
        auto wait_on = opened;
        pool.submit([wait_on] { wait_on.wait(); });
    }
    void release() { gate.set_value(); }

    ThreadPool pool;
    std::promise<void> gate;
    std::shared_future<void> opened;
};

TEST(ServiceAdmission, MalformedRequestsThrowSynchronously) {
    ThreadPool pool(1);
    PyramidService service(pool);
    EXPECT_THROW((void)service.submit(TransformRequest{}), std::invalid_argument);
    auto odd = request_for(scene(32, 1), 4, 9);  // 32 not divisible by 2^9
    EXPECT_THROW((void)service.submit(odd), std::invalid_argument);
    auto bad_taps = request_for(scene(32, 1), 5, 1);
    EXPECT_THROW((void)service.submit(bad_taps), std::invalid_argument);
}

// A byte cast into an enum past its last value must not reach the kernels
// or the cache key: admission names the field and refuses it.
TEST(ServiceAdmission, OutOfRangeEnumsAreRejectedByField) {
    ThreadPool pool(1);
    PyramidService service(pool);
    constexpr auto kBad = std::uint8_t{0xC7};
    struct Case {
        const char* field;
        void (*corrupt)(TransformRequest&);
    };
    const Case cases[] = {
        {"boundary",
         [](TransformRequest& r) { r.boundary = static_cast<wavehpc::core::BoundaryMode>(kBad); }},
        {"kernel",
         [](TransformRequest& r) { r.kernel = static_cast<wavehpc::core::DwtKernel>(kBad); }},
        {"backend", [](TransformRequest& r) { r.backend = static_cast<Backend>(kBad); }},
        {"priority", [](TransformRequest& r) { r.priority = static_cast<Priority>(kBad); }},
    };
    for (const Case& c : cases) {
        auto req = request_for(scene(32, 1));
        c.corrupt(req);
        try {
            (void)service.submit(req);
            ADD_FAILURE() << c.field << ": accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos) << e.what();
        }
    }
    EXPECT_EQ(service.metrics().counters.submitted, 0U);
}

TEST(ServiceAdmission, SaturationRejectsWithRetryAfterInsteadOfBlocking) {
    GatedPool gated;
    PyramidService service(gated.pool, ServiceConfig{.max_queue_depth = 2,
                                                     .max_concurrency = 1});
    // One dispatched (stuck behind the gate) + two queued fill the budget.
    ASSERT_TRUE(service.submit(request_for(scene(32, 1))).accepted);
    ASSERT_TRUE(service.submit(request_for(scene(32, 2))).accepted);
    ASSERT_TRUE(service.submit(request_for(scene(32, 3))).accepted);

    const auto rejected = service.submit(request_for(scene(32, 4)));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_GT(rejected.retry_after_seconds, 0.0);
    EXPECT_FALSE(rejected.future.valid());

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.rejected, 1U);
    EXPECT_EQ(m.queue_depth, 2U);  // bounded: the reject did not enqueue

    gated.release();
    service.shutdown();
}

TEST(ServiceAdmission, ByteBudgetRejectsLargeBacklog) {
    GatedPool gated;
    const std::uint64_t one_image = 32 * 32 * sizeof(float);
    PyramidService service(
        gated.pool, ServiceConfig{.max_queue_depth = 64,
                                  .max_queued_bytes = 2 * one_image,
                                  .max_concurrency = 1});
    ASSERT_TRUE(service.submit(request_for(scene(32, 1))).accepted);  // running
    ASSERT_TRUE(service.submit(request_for(scene(32, 2))).accepted);  // queued
    const auto rejected = service.submit(request_for(scene(32, 3)));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_GT(rejected.retry_after_seconds, 0.0);
    gated.release();
    service.shutdown();
}

TEST(ServiceShutdown, DrainsInFlightAndFailsQueuedDistinctly) {
    GatedPool gated;
    PyramidService service(gated.pool, ServiceConfig{.max_concurrency = 1});
    auto in_flight = service.submit(request_for(scene(32, 1)));
    auto queued = service.submit(request_for(scene(32, 2)));
    ASSERT_TRUE(in_flight.accepted);
    ASSERT_TRUE(queued.accepted);

    std::thread drainer([&] { service.shutdown(); });
    // The queued request fails promptly (before the gate ever opens)...
    EXPECT_THROW((void)queued.future.get(), ServiceShutdownError);
    // ...while the dispatched one completes once the worker resumes.
    gated.release();
    drainer.join();
    const auto reply = in_flight.future.get();
    ASSERT_NE(reply.result, nullptr);
    EXPECT_FALSE(reply.cache_hit);

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.computes, 1U);
    EXPECT_EQ(m.counters.shutdown_failures, 1U);
    EXPECT_EQ(m.queue_depth, 0U);
    EXPECT_EQ(m.running, 0U);
    EXPECT_EQ(m.queued_bytes, 0U);
}

// The completion hook runs exactly once per accepted submit, only after
// its future is ready: inline for a cache hit, after the compute for a
// flight and each of its joiners, on the draining thread for queued work
// failed by shutdown — and never for a reject.
TEST(ServiceCompletion, HookRunsOnceAfterTheFutureIsReadyOnEveryPath) {
    struct Calls {
        std::mutex mu;
        std::vector<std::string> tags;
        int not_ready = 0;
    } calls;
    const auto hook = [&calls](std::string tag) {
        return [&calls, tag](const wavehpc::svc::TransformFuture& f) {
            std::lock_guard lk(calls.mu);
            if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
                ++calls.not_ready;
            }
            calls.tags.push_back(tag);
        };
    };
    const auto count = [&calls](const std::string& tag) {
        std::lock_guard lk(calls.mu);
        return std::count(calls.tags.begin(), calls.tags.end(), tag);
    };

    GatedPool gated;
    PyramidService service(gated.pool, ServiceConfig{.max_concurrency = 1});
    auto lead = service.submit(request_for(scene(32, 1)), hook("lead"));
    auto joiner = service.submit(request_for(scene(32, 1)), hook("joiner"));
    auto queued = service.submit(request_for(scene(32, 2)), hook("queued"));
    ASSERT_TRUE(lead.accepted && joiner.accepted && queued.accepted);
    EXPECT_EQ(count("lead") + count("joiner") + count("queued"), 0);

    std::thread drainer([&] { service.shutdown(); });
    EXPECT_THROW((void)queued.future.get(), ServiceShutdownError);
    gated.release();
    drainer.join();  // shutdown waits for the flight, not for its hooks
    (void)lead.future.get();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((count("lead") == 0 || count("joiner") == 0) &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(count("lead"), 1);
    EXPECT_EQ(count("joiner"), 1);
    EXPECT_EQ(count("queued"), 1);

    const auto rejected = service.submit(request_for(scene(32, 3)), hook("rejected"));
    EXPECT_FALSE(rejected.accepted);

    ThreadPool pool(1);
    PyramidService warm(pool);
    (void)warm.submit(request_for(scene(32, 4))).future.get();
    const auto hit = warm.submit(request_for(scene(32, 4)), hook("hit"));
    ASSERT_TRUE(hit.accepted);
    EXPECT_EQ(count("hit"), 1);  // ran before submit returned
    EXPECT_TRUE(hit.future.get().cache_hit);

    EXPECT_EQ(count("rejected"), 0);
    EXPECT_EQ(calls.not_ready, 0);
}

TEST(ServiceShutdown, SubmitAfterShutdownIsRejected) {
    ThreadPool pool(1);
    PyramidService service(pool);
    service.shutdown();
    const auto sub = service.submit(request_for(scene(32, 1)));
    EXPECT_FALSE(sub.accepted);
    EXPECT_TRUE(std::isinf(sub.retry_after_seconds));
}

TEST(ServiceShutdown, ShutdownIsIdempotent) {
    ThreadPool pool(1);
    PyramidService service(pool);
    ASSERT_TRUE(service.submit(request_for(scene(32, 1))).accepted);
    service.shutdown();
    service.shutdown();  // second drain returns immediately
    SUCCEED();
}

TEST(ServiceDeadline, ExpiredWhileQueuedFailsWithoutCompute) {
    GatedPool gated;
    PyramidService service(gated.pool, ServiceConfig{.max_concurrency = 1});
    auto req = request_for(scene(32, 1));
    req.deadline = Clock::now() + std::chrono::milliseconds(10);
    auto sub = service.submit(req);
    ASSERT_TRUE(sub.accepted);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    gated.release();

    EXPECT_THROW((void)sub.future.get(), DeadlineExpiredError);
    const auto m = service.metrics();
    EXPECT_EQ(m.counters.computes, 0U);
    EXPECT_EQ(m.counters.deadline_failures, 1U);
    service.shutdown();
}

TEST(ServiceDeadline, GenerousDeadlineStillComputes) {
    ThreadPool pool(2);
    PyramidService service(pool);
    auto req = request_for(scene(32, 1));
    req.deadline = Clock::now() + std::chrono::seconds(30);
    auto sub = service.submit(req);
    ASSERT_TRUE(sub.accepted);
    EXPECT_NE(sub.future.get().result, nullptr);
    service.shutdown();
}

TEST(ServiceScheduling, HigherPriorityOvertakesEarlierSubmission) {
    GatedPool gated;
    PyramidService service(gated.pool, ServiceConfig{.max_concurrency = 1});
    // Occupy the only compute slot, then queue Background before Interactive.
    auto head = service.submit(request_for(scene(32, 1)));
    auto low = request_for(scene(32, 2));
    low.priority = Priority::Background;
    auto high = request_for(scene(32, 3));
    high.priority = Priority::Interactive;
    auto low_sub = service.submit(low);
    auto high_sub = service.submit(high);
    ASSERT_TRUE(low_sub.accepted);
    ASSERT_TRUE(high_sub.accepted);
    gated.release();

    const auto high_reply = high_sub.future.get();
    const auto low_reply = low_sub.future.get();
    (void)head.future.get();
    // max_concurrency = 1 serializes the computes, so the Background
    // request's total latency must include the Interactive one's compute.
    EXPECT_GT(low_reply.total_seconds,
              high_reply.total_seconds + low_reply.compute_seconds * 0.5);
    service.shutdown();
}

TEST(ServiceScheduling, EarlierDeadlineRunsFirstWithinPriority) {
    GatedPool gated;
    PyramidService service(gated.pool, ServiceConfig{.max_concurrency = 1});
    auto head = service.submit(request_for(scene(32, 1)));
    auto late = request_for(scene(32, 2));
    late.deadline = Clock::now() + std::chrono::seconds(60);
    auto soon = request_for(scene(32, 3));
    soon.deadline = Clock::now() + std::chrono::seconds(30);
    auto late_sub = service.submit(late);
    auto soon_sub = service.submit(soon);
    gated.release();

    const auto soon_reply = soon_sub.future.get();
    const auto late_reply = late_sub.future.get();
    (void)head.future.get();
    EXPECT_GT(late_reply.total_seconds,
              soon_reply.total_seconds + late_reply.compute_seconds * 0.5);
    service.shutdown();
}

TEST(ServiceLifetime, DestructorDrains) {
    ThreadPool pool(2);
    wavehpc::svc::TransformFuture future;
    {
        PyramidService service(pool);
        auto sub = service.submit(request_for(scene(32, 1)));
        ASSERT_TRUE(sub.accepted);
        future = sub.future;
    }  // ~PyramidService shuts down and drains
    EXPECT_NE(future.get().result, nullptr);
}

// Fleet aggregation: ServiceCounters::merge adds every one of the 22
// counters — a field silently dropped here would vanish from every fleet
// dashboard, so each gets a distinct prime-ish value and an exact check.
TEST(ServiceMetricsMerge, CountersMergeAddsEveryField) {
    wavehpc::svc::ServiceCounters a;
    a.submitted = 1;
    a.accepted = 2;
    a.rejected = 3;
    a.cache_hits = 4;
    a.dedup_joins = 5;
    a.computes = 6;
    a.completed = 7;
    a.deadline_failures = 8;
    a.shutdown_failures = 9;
    a.compute_failures = 10;
    a.retries = 11;
    a.watchdog_timeouts = 12;
    a.quarantined = 13;
    a.quarantine_rejects = 14;
    a.breaker_rejects = 15;
    a.degraded_replies = 16;
    a.crc_audit_failures = 17;
    a.batches = 18;
    a.batched_requests = 19;
    a.arena_hits = 20;
    a.arena_misses = 21;
    a.heap_fallbacks = 22;
    wavehpc::svc::ServiceCounters b;
    b.submitted = 100;
    b.accepted = 200;
    b.rejected = 300;
    b.cache_hits = 400;
    b.dedup_joins = 500;
    b.computes = 600;
    b.completed = 700;
    b.deadline_failures = 800;
    b.shutdown_failures = 900;
    b.compute_failures = 1000;
    b.retries = 1100;
    b.watchdog_timeouts = 1200;
    b.quarantined = 1300;
    b.quarantine_rejects = 1400;
    b.breaker_rejects = 1500;
    b.degraded_replies = 1600;
    b.crc_audit_failures = 1700;
    b.batches = 1800;
    b.batched_requests = 1900;
    b.arena_hits = 2000;
    b.arena_misses = 2100;
    b.heap_fallbacks = 2200;

    a.merge(b);
    EXPECT_EQ(a.submitted, 101U);
    EXPECT_EQ(a.accepted, 202U);
    EXPECT_EQ(a.rejected, 303U);
    EXPECT_EQ(a.cache_hits, 404U);
    EXPECT_EQ(a.dedup_joins, 505U);
    EXPECT_EQ(a.computes, 606U);
    EXPECT_EQ(a.completed, 707U);
    EXPECT_EQ(a.deadline_failures, 808U);
    EXPECT_EQ(a.shutdown_failures, 909U);
    EXPECT_EQ(a.compute_failures, 1010U);
    EXPECT_EQ(a.retries, 1111U);
    EXPECT_EQ(a.watchdog_timeouts, 1212U);
    EXPECT_EQ(a.quarantined, 1313U);
    EXPECT_EQ(a.quarantine_rejects, 1414U);
    EXPECT_EQ(a.breaker_rejects, 1515U);
    EXPECT_EQ(a.degraded_replies, 1616U);
    EXPECT_EQ(a.crc_audit_failures, 1717U);
    EXPECT_EQ(a.batches, 1818U);
    EXPECT_EQ(a.batched_requests, 1919U);
    EXPECT_EQ(a.arena_hits, 2020U);
    EXPECT_EQ(a.arena_misses, 2121U);
    EXPECT_EQ(a.heap_fallbacks, 2222U);
}

// MetricsSnapshot::merge must behave as if one service had seen both
// streams: counters and gauges add, and the merged histograms report the
// same count and quantiles as a reference histogram fed both sets.
TEST(ServiceMetricsMerge, SnapshotMergeMatchesSingleObserver) {
    wavehpc::svc::MetricsSnapshot a;
    wavehpc::svc::MetricsSnapshot b;
    wavehpc::perf::LatencyHistogram reference;
    for (int i = 1; i <= 50; ++i) {
        const double fast = 0.001 * i;   // 1..50 ms into shard a
        const double slow = 0.010 * i;   // 10..500 ms into shard b
        a.total.record(fast);
        b.total.record(slow);
        reference.record(fast);
        reference.record(slow);
    }
    a.counters.completed = 50;
    b.counters.completed = 50;
    a.queue_depth = 3;
    b.queue_depth = 4;
    a.backoff_depth = 1;
    b.backoff_depth = 2;
    a.running = 2;
    b.running = 5;
    a.queued_bytes = 1024;
    b.queued_bytes = 4096;
    a.outcome[0].record(0.002);
    b.outcome[0].record(0.020);

    a.merge(b);
    EXPECT_EQ(a.counters.completed, 100U);
    EXPECT_EQ(a.queue_depth, 7U);
    EXPECT_EQ(a.backoff_depth, 3U);
    EXPECT_EQ(a.running, 7U);
    EXPECT_EQ(a.queued_bytes, 5120U);
    EXPECT_EQ(a.outcome[0].count(), 2U);
    ASSERT_EQ(a.total.count(), reference.count());
    for (const double q : {0.10, 0.50, 0.90, 0.99}) {
        EXPECT_DOUBLE_EQ(a.total.quantile(q), reference.quantile(q));
    }
}

}  // namespace
