// Chaos-hardening of the pyramid service (ISSUE 5): deterministic fault
// injection, retry with backoff, poison-request quarantine, the per-backend
// circuit breaker, the compute watchdog, CRC result audits, and degraded
// cached-variant replies. The policy classes are unit-tested dry (no
// threads); the service-level tests drive real injected faults end to end.

#include "svc/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dwt.hpp"
#include "core/synthetic.hpp"
#include "svc/cache.hpp"

namespace {

using wavehpc::core::ImageF;
using wavehpc::runtime::ThreadPool;
using wavehpc::svc::audit_result;
using wavehpc::svc::Backend;
using wavehpc::svc::BreakerConfig;
using wavehpc::svc::ChaosComputeError;
using wavehpc::svc::ChaosEngine;
using wavehpc::svc::ChaosPlan;
using wavehpc::svc::CircuitBreaker;
using wavehpc::svc::Clock;
using wavehpc::svc::CrcAuditError;
using wavehpc::svc::Outcome;
using wavehpc::svc::pyramid_crc32;
using wavehpc::svc::PyramidService;
using wavehpc::svc::RejectReason;
using wavehpc::svc::ResilienceConfig;
using wavehpc::svc::RetryPolicy;
using wavehpc::svc::ServiceConfig;
using wavehpc::svc::ServiceShutdownError;
using wavehpc::svc::TransformReply;
using wavehpc::svc::TransformRequest;
using wavehpc::svc::TransformResult;
using wavehpc::svc::WatchdogTimeoutError;

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

/// Retry in milliseconds instead of the production tens-of-ms defaults, so
/// the end-to-end retry tests stay fast.
ResilienceConfig fast_resilience(std::uint32_t max_attempts = 4) {
    ResilienceConfig r;
    r.retry.max_attempts = max_attempts;
    r.retry.base_seconds = 0.001;
    r.retry.cap_seconds = 0.004;
    return r;
}

/// A degraded reply is still a whole pyramid: it validates, and its depth is
/// the level count its key names.
void expect_whole_pyramid(const TransformReply& reply) {
    ASSERT_NE(reply.result, nullptr);
    EXPECT_NO_THROW(wavehpc::core::validate_pyramid(reply.result->pyramid));
    EXPECT_EQ(reply.result->pyramid.depth(), reply.result->key.levels);
}

std::size_t outcome_count(const wavehpc::svc::MetricsSnapshot& m, Outcome o) {
    return static_cast<std::size_t>(
        m.outcome[static_cast<std::size_t>(o)].count());
}

bool wait_for(const std::function<bool()>& pred,
              std::chrono::milliseconds timeout = std::chrono::milliseconds(2000)) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (std::chrono::steady_clock::now() < deadline) {
        if (pred()) return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return pred();
}

// ---------------------------------------------------------------- plan

TEST(ChaosPlan, ParseFillsEveryKnob) {
    const auto plan = ChaosPlan::parse(
        "compute=0.25,alloc=0.125,stall=0.5,stall_ms=20,corrupt=0.0625,"
        "pool_stall=0.5,pool_stall_ms=1,compute_exact=1:3",
        42);
    EXPECT_EQ(plan.seed, 42U);
    EXPECT_DOUBLE_EQ(plan.compute_error_probability, 0.25);
    EXPECT_DOUBLE_EQ(plan.alloc_failure_probability, 0.125);
    EXPECT_DOUBLE_EQ(plan.stall_probability, 0.5);
    EXPECT_DOUBLE_EQ(plan.stall_seconds, 0.020);
    EXPECT_DOUBLE_EQ(plan.corrupt_probability, 0.0625);
    EXPECT_DOUBLE_EQ(plan.pool_stall_probability, 0.5);
    EXPECT_DOUBLE_EQ(plan.pool_stall_seconds, 0.001);
    ASSERT_EQ(plan.compute_error_exact.size(), 2U);
    EXPECT_EQ(plan.compute_error_exact[0], 1U);
    EXPECT_EQ(plan.compute_error_exact[1], 3U);
    EXPECT_TRUE(plan.enabled());
    EXPECT_FALSE(ChaosPlan{}.enabled());
}

TEST(ChaosPlan, MalformedSpecThrows) {
    EXPECT_THROW((void)ChaosPlan::parse("bogus=1", 1), std::invalid_argument);
    EXPECT_THROW((void)ChaosPlan::parse("compute=notanumber", 1),
                 std::invalid_argument);
    EXPECT_THROW((void)ChaosPlan::parse("compute=1.5", 1), std::invalid_argument);
    EXPECT_THROW((void)ChaosPlan::parse("compute", 1), std::invalid_argument);
    EXPECT_THROW((void)ChaosPlan::parse("compute_exact=1:x", 1),
                 std::invalid_argument);
    // A list that names nothing injects nothing; shard_kill= already threw.
    EXPECT_THROW((void)ChaosPlan::parse("compute_exact=", 1), std::invalid_argument);
    EXPECT_THROW((void)ChaosPlan::parse("compute_exact=::", 1), std::invalid_argument);
    // The one number rule: no leading space, '+' or hex in any field.
    for (const char* spec : {"compute= 0.5", "compute=+0.5", "stall_ms=0x10",
                             "compute_exact= 1", "shard_kill= 1:0:10", "shard_kill=0: 0:10"}) {
        EXPECT_THROW((void)ChaosPlan::parse(spec, 1), std::invalid_argument) << spec;
    }
}

TEST(ChaosPlan, ParsesShardEventsSortedByStartTime) {
    const auto plan = ChaosPlan::parse(
        "stall=0.5,shard_kill=2:400:150;0:100:50,"
        "shard_partition=1:200:80,shard_slow=3:50:500:25",
        9);
    ASSERT_EQ(plan.shard_events.size(), 4U);
    // stable_sort by start: slow@50, kill@100, partition@200, kill@400.
    EXPECT_EQ(plan.shard_events[0].kind, wavehpc::svc::ShardEventKind::Slow);
    EXPECT_EQ(plan.shard_events[0].shard, 3U);
    EXPECT_DOUBLE_EQ(plan.shard_events[0].start_seconds, 0.050);
    EXPECT_DOUBLE_EQ(plan.shard_events[0].duration_seconds, 0.500);
    EXPECT_DOUBLE_EQ(plan.shard_events[0].stall_seconds, 0.025);

    EXPECT_EQ(plan.shard_events[1].kind, wavehpc::svc::ShardEventKind::Kill);
    EXPECT_EQ(plan.shard_events[1].shard, 0U);
    EXPECT_DOUBLE_EQ(plan.shard_events[1].start_seconds, 0.100);

    EXPECT_EQ(plan.shard_events[2].kind,
              wavehpc::svc::ShardEventKind::Partition);
    EXPECT_EQ(plan.shard_events[2].shard, 1U);

    EXPECT_EQ(plan.shard_events[3].kind, wavehpc::svc::ShardEventKind::Kill);
    EXPECT_EQ(plan.shard_events[3].shard, 2U);
    EXPECT_DOUBLE_EQ(plan.shard_events[3].start_seconds, 0.400);
    EXPECT_DOUBLE_EQ(plan.shard_events[3].duration_seconds, 0.150);
}

TEST(ChaosPlan, ShardEventsAloneEnableThePlanAndDefaultSlowStall) {
    const auto plan = ChaosPlan::parse("shard_slow=0:0:100", 1);
    EXPECT_TRUE(plan.enabled());
    ASSERT_EQ(plan.shard_events.size(), 1U);
    EXPECT_DOUBLE_EQ(plan.shard_events[0].stall_seconds, 0.010);  // default
    // The in-service engine draws nothing from shard events.
    EXPECT_DOUBLE_EQ(plan.compute_error_probability, 0.0);
}

TEST(ChaosPlan, MalformedShardEventsThrow) {
    EXPECT_THROW((void)ChaosPlan::parse("shard_kill=1:100", 1),
                 std::invalid_argument);  // missing duration
    EXPECT_THROW((void)ChaosPlan::parse("shard_kill=1:100:50:9", 1),
                 std::invalid_argument);  // stall field is slow-only
    EXPECT_THROW((void)ChaosPlan::parse("shard_kill=x:100:50", 1),
                 std::invalid_argument);
    EXPECT_THROW((void)ChaosPlan::parse("shard_kill=", 1),
                 std::invalid_argument);
    EXPECT_THROW((void)ChaosPlan::parse("shard_slow=0:0:100:nope", 1),
                 std::invalid_argument);
}

TEST(ChaosPlan, DecisionsAreDeterministicPerSeedAndIndex) {
    const auto plan = ChaosPlan::parse("compute=0.3,corrupt=0.3,stall=0.3", 7);
    const auto replay = ChaosPlan::parse("compute=0.3,corrupt=0.3,stall=0.3", 7);
    bool any_fault = false;
    for (std::uint64_t i = 0; i < 256; ++i) {
        const auto a = plan.decide(i);
        const auto b = replay.decide(i);
        EXPECT_EQ(a.compute_error, b.compute_error);
        EXPECT_EQ(a.corrupt, b.corrupt);
        EXPECT_EQ(a.corrupt_word, b.corrupt_word);
        EXPECT_EQ(a.corrupt_bit, b.corrupt_bit);
        EXPECT_DOUBLE_EQ(a.stall_seconds, b.stall_seconds);
        any_fault |= a.compute_error || a.corrupt || a.stall_seconds > 0.0;
    }
    EXPECT_TRUE(any_fault);
    // A different seed draws a different fault pattern.
    const auto other = ChaosPlan::parse("compute=0.3,corrupt=0.3,stall=0.3", 8);
    bool differs = false;
    for (std::uint64_t i = 0; i < 256 && !differs; ++i) {
        differs = plan.decide(i).compute_error != other.decide(i).compute_error;
    }
    EXPECT_TRUE(differs);
}

TEST(ChaosPlan, ExactIndicesAlwaysFault) {
    ChaosPlan plan;
    plan.compute_error_exact = {0, 2};
    EXPECT_TRUE(plan.enabled());
    EXPECT_TRUE(plan.decide(0).compute_error);
    EXPECT_FALSE(plan.decide(1).compute_error);
    EXPECT_TRUE(plan.decide(2).compute_error);
}

TEST(ChaosEngineTest, DisabledEngineIsInert) {
    ChaosEngine engine;
    EXPECT_FALSE(engine.enabled());
    const auto d = engine.next_compute_decision();
    EXPECT_FALSE(d.compute_error);
    EXPECT_FALSE(d.alloc_failure);
    EXPECT_FALSE(d.corrupt);
    EXPECT_DOUBLE_EQ(d.stall_seconds, 0.0);
    EXPECT_EQ(engine.stats().draws, 0U);  // disabled draws are not counted
    EXPECT_FALSE(static_cast<bool>(engine.pool_observer()));
}

TEST(ChaosEngineTest, PoolObserverStallsDispatches) {
    ChaosEngine engine(ChaosPlan::parse("pool_stall=1.0,pool_stall_ms=1", 3));
    ThreadPool pool(2);
    pool.set_task_observer(engine.pool_observer());
    std::promise<void> done;
    pool.submit([&done] { done.set_value(); });
    done.get_future().wait();
    pool.set_task_observer({});
    EXPECT_GE(engine.stats().pool_stalls, 1U);
}

// ---------------------------------------------------------------- retry

TEST(RetryPolicyTest, BackoffIsCappedExponential) {
    RetryPolicy p;
    p.base_seconds = 0.010;
    p.multiplier = 2.0;
    p.cap_seconds = 0.050;
    p.jitter = 0.0;  // exact shape first
    EXPECT_DOUBLE_EQ(p.backoff_seconds(1, 0), 0.010);
    EXPECT_DOUBLE_EQ(p.backoff_seconds(2, 0), 0.020);
    EXPECT_DOUBLE_EQ(p.backoff_seconds(3, 0), 0.040);
    EXPECT_DOUBLE_EQ(p.backoff_seconds(4, 0), 0.050);   // capped
    EXPECT_DOUBLE_EQ(p.backoff_seconds(10, 0), 0.050);  // stays capped
}

TEST(RetryPolicyTest, JitterIsBoundedAndDeterministic) {
    RetryPolicy p;
    p.base_seconds = 0.010;
    p.jitter = 0.5;
    bool any_jittered = false;
    for (std::uint64_t draw = 0; draw < 64; ++draw) {
        const double d = p.backoff_seconds(1, draw);
        EXPECT_GE(d, 0.005);  // jitter shaves at most `jitter` of the delay
        EXPECT_LE(d, 0.010);
        EXPECT_DOUBLE_EQ(d, p.backoff_seconds(1, draw));  // replayable
        any_jittered |= d < 0.010;
    }
    EXPECT_TRUE(any_jittered);
}

// ---------------------------------------------------------------- breaker

TEST(CircuitBreakerTest, TripsAtThresholdAndFastRejectsWhileOpen) {
    BreakerConfig cfg;
    cfg.failure_threshold = 0.5;
    cfg.ewma_alpha = 0.5;
    cfg.min_samples = 2;
    cfg.open_seconds = 10.0;
    CircuitBreaker br(cfg);
    const auto t0 = Clock::now();

    EXPECT_TRUE(br.allow(t0));
    br.record_failure(t0);  // ewma 1.0, but below min_samples
    EXPECT_EQ(br.state(t0), CircuitBreaker::State::Closed);
    br.record_failure(t0);  // samples 2, ewma 1.0 > 0.5 -> trip
    EXPECT_EQ(br.state(t0), CircuitBreaker::State::Open);
    EXPECT_EQ(br.times_opened(), 1U);
    EXPECT_FALSE(br.allow(t0));
    const double after = br.retry_after_seconds(t0);
    EXPECT_GT(after, 9.0);
    EXPECT_LE(after, 10.0);
}

TEST(CircuitBreakerTest, HalfOpenProbesCloseOnSuccess) {
    BreakerConfig cfg;
    cfg.min_samples = 1;
    cfg.open_seconds = 1.0;
    cfg.half_open_probes = 2;
    CircuitBreaker br(cfg);
    const auto t0 = Clock::now();
    br.record_failure(t0);  // trips immediately (min_samples 1)
    ASSERT_EQ(br.state(t0), CircuitBreaker::State::Open);

    const auto t1 = t0 + std::chrono::milliseconds(1500);
    EXPECT_EQ(br.state(t1), CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(br.allow(t1));   // probe 1
    EXPECT_TRUE(br.allow(t1));   // probe 2
    EXPECT_FALSE(br.allow(t1));  // probe budget spent
    br.record_success(t1);
    EXPECT_EQ(br.state(t1), CircuitBreaker::State::HalfOpen);
    br.record_success(t1);  // every probe succeeded -> close, fresh EWMA
    EXPECT_EQ(br.state(t1), CircuitBreaker::State::Closed);
    EXPECT_DOUBLE_EQ(br.failure_rate(), 0.0);
    EXPECT_TRUE(br.allow(t1));
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopens) {
    BreakerConfig cfg;
    cfg.min_samples = 1;
    cfg.open_seconds = 1.0;
    CircuitBreaker br(cfg);
    const auto t0 = Clock::now();
    br.record_failure(t0);
    const auto t1 = t0 + std::chrono::milliseconds(1500);
    ASSERT_TRUE(br.allow(t1));
    br.record_failure(t1);  // the probe failed
    EXPECT_EQ(br.state(t1), CircuitBreaker::State::Open);
    EXPECT_EQ(br.times_opened(), 2U);
    EXPECT_FALSE(br.allow(t1));
}

// ---------------------------------------------------------------- crc

TEST(CrcAudit, DetectsASingleFlippedBit) {
    const auto img = wavehpc::core::landsat_tm_like(32, 32, 9);
    const auto fp = wavehpc::core::FilterPair::daubechies(4);
    TransformResult result;
    result.pyramid = wavehpc::core::decompose(img, fp, 2);
    result.crc32 = pyramid_crc32(result.pyramid);
    EXPECT_NE(result.crc32, 0U);
    EXPECT_TRUE(audit_result(result));

    float& f = result.pyramid.levels[0].hh.flat()[7];
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    bits ^= 1U << 13;
    std::memcpy(&f, &bits, sizeof bits);
    EXPECT_FALSE(audit_result(result));

    result.crc32 = 0;  // unaudited sentinel passes vacuously
    EXPECT_TRUE(audit_result(result));
}

// ---------------------------------------------------------------- service

TEST(ChaosService, RetryRecoversFromOneInjectedFault) {
    ThreadPool pool(2);
    ServiceConfig cfg;
    cfg.resilience = fast_resilience();
    PyramidService service(pool, cfg);
    ChaosPlan plan;
    plan.compute_error_exact = {0};  // only the very first attempt faults
    service.set_chaos_plan(plan);

    auto sub = service.submit(request_for(scene(32, 1)));
    ASSERT_TRUE(sub.accepted);
    const auto reply = sub.future.get();
    ASSERT_NE(reply.result, nullptr);
    EXPECT_EQ(reply.attempts, 2U);
    EXPECT_NE(reply.result->crc32, 0U);

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.retries, 1U);
    EXPECT_EQ(m.counters.computes, 2U);
    EXPECT_EQ(m.counters.completed, 1U);
    EXPECT_EQ(m.counters.compute_failures, 0U);
    EXPECT_EQ(outcome_count(m, Outcome::Retried), 1U);
    EXPECT_EQ(outcome_count(m, Outcome::Ok), 0U);
    EXPECT_EQ(service.chaos_stats().compute_errors, 1U);
    service.shutdown();
}

TEST(ChaosService, ExhaustedRetriesQuarantineAndRejectResubmits) {
    ThreadPool pool(2);
    ServiceConfig cfg;
    cfg.resilience = fast_resilience(2);
    PyramidService service(pool, cfg);
    service.set_chaos_plan(ChaosPlan::parse("compute=1.0", 1));

    auto sub = service.submit(request_for(scene(32, 2)));
    ASSERT_TRUE(sub.accepted);
    EXPECT_THROW((void)sub.future.get(), ChaosComputeError);

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.computes, 2U);  // both attempts ran
    EXPECT_EQ(m.counters.retries, 1U);
    EXPECT_EQ(m.counters.quarantined, 1U);
    EXPECT_EQ(m.counters.compute_failures, 1U);
    EXPECT_EQ(outcome_count(m, Outcome::Quarantined), 1U);

    // The fingerprint is poisoned: identical resubmits fail fast, a
    // different scene is still admitted.
    const auto again = service.submit(request_for(scene(32, 2)));
    EXPECT_FALSE(again.accepted);
    EXPECT_EQ(again.reject_reason, RejectReason::Quarantined);
    EXPECT_TRUE(std::isinf(again.retry_after_seconds));
    EXPECT_EQ(service.metrics().counters.quarantine_rejects, 1U);
    service.shutdown();
}

TEST(ChaosService, InjectedAllocFailurePropagatesAfterRetries) {
    ThreadPool pool(2);
    ServiceConfig cfg;
    cfg.resilience = fast_resilience(1);  // no retry: first failure is final
    PyramidService service(pool, cfg);
    service.set_chaos_plan(ChaosPlan::parse("alloc=1.0", 1));

    auto sub = service.submit(request_for(scene(32, 3)));
    ASSERT_TRUE(sub.accepted);
    EXPECT_THROW((void)sub.future.get(), std::bad_alloc);
    EXPECT_EQ(service.metrics().counters.quarantined, 1U);
    EXPECT_EQ(service.chaos_stats().alloc_failures, 1U);
    service.shutdown();
}

TEST(ChaosService, CorruptedResultsNeverEscapeTheCrcAudit) {
    ThreadPool pool(2);
    ServiceConfig cfg;
    cfg.resilience = fast_resilience(2);
    PyramidService service(pool, cfg);
    service.set_chaos_plan(ChaosPlan::parse("corrupt=1.0", 1));

    auto sub = service.submit(request_for(scene(32, 4)));
    ASSERT_TRUE(sub.accepted);
    // Every attempt's buffer is corrupted post-checksum, so every attempt
    // fails the audit and the flight exhausts its retries.
    EXPECT_THROW((void)sub.future.get(), CrcAuditError);

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.crc_audit_failures, 2U);
    EXPECT_EQ(m.counters.quarantined, 1U);
    EXPECT_EQ(service.chaos_stats().corruptions, 2U);
    // Nothing corrupted was cached.
    EXPECT_EQ(service.cache_stats().entries, 0U);
    service.shutdown();
}

TEST(ChaosService, WatchdogFailsAStalledComputeAndFreesTheSlot) {
    ThreadPool pool(2);
    ServiceConfig cfg;
    cfg.resilience = fast_resilience();
    cfg.resilience.watchdog_seconds = 0.05;
    PyramidService service(pool, cfg);
    service.set_chaos_plan(ChaosPlan::parse("stall=1.0,stall_ms=400", 1));

    auto sub = service.submit(request_for(scene(32, 5)));
    ASSERT_TRUE(sub.accepted);
    EXPECT_THROW((void)sub.future.get(), WatchdogTimeoutError);

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.watchdog_timeouts, 1U);
    EXPECT_EQ(m.running, 0U);  // the slot was released at the timeout
    // shutdown still waits for the abandoned compute to drain cleanly
    // (and the salvaged clean result may land in the cache afterwards).
    service.shutdown();
    EXPECT_GE(service.chaos_stats().stalls, 1U);
}

// The longest watchdog the knob accepts (WAVEHPC_SVC_WATCHDOG_MS=3600000)
// still arms on the clock: every request is computed and served.
TEST(ChaosService, OneHourWatchdogServesEveryRequest) {
    ThreadPool pool(2);
    ServiceConfig cfg;
    cfg.resilience.watchdog_seconds = 3600.0;
    PyramidService service(pool, cfg);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        auto sub = service.submit(request_for(scene(32, seed)));
        ASSERT_TRUE(sub.accepted);
        EXPECT_NO_THROW((void)sub.future.get()) << seed;
    }
    const auto m = service.metrics();
    EXPECT_EQ(m.counters.computes, 8U);
    EXPECT_EQ(m.counters.watchdog_timeouts, 0U);
    service.shutdown();
}

// A config built in code meets the domain of the WAVEHPC_SVC_*_MS knob that
// bounds each duration, [0, 3600] s: past an hour the watchdog's clock
// conversion can overflow and fail computed requests.
TEST(ResilienceConfigBounds, DurationsOutsideTheKnobDomainThrowNamingTheField) {
    ThreadPool pool(1);
    using Field = double& (*)(ServiceConfig&);
    const std::vector<std::pair<std::string, Field>> fields{
        {"resilience.retry.base_seconds",
         [](ServiceConfig& c) -> double& { return c.resilience.retry.base_seconds; }},
        {"resilience.retry.cap_seconds",
         [](ServiceConfig& c) -> double& { return c.resilience.retry.cap_seconds; }},
        {"resilience.breaker.open_seconds",
         [](ServiceConfig& c) -> double& { return c.resilience.breaker.open_seconds; }},
        {"resilience.watchdog_seconds",
         [](ServiceConfig& c) -> double& { return c.resilience.watchdog_seconds; }},
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const auto& [name, field] : fields) {
        for (const double bad :
             {kInf, 1e300, std::numeric_limits<double>::quiet_NaN(), -1.0, 3600.001}) {
            ServiceConfig cfg;
            field(cfg) = bad;
            try {
                PyramidService service(pool, cfg);
                ADD_FAILURE() << name << " = " << bad << ": constructed";
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
            }
        }
        for (const double good : {0.0, 3600.0}) {
            ServiceConfig cfg;
            field(cfg) = good;
            EXPECT_NO_THROW({ PyramidService service(pool, cfg); }) << name << " = " << good;
        }
    }
}

TEST(ChaosService, ShutdownDuringRetryBackoffFailsCleanly) {
    ThreadPool pool(2);
    ServiceConfig cfg;
    cfg.resilience = fast_resilience();
    cfg.resilience.retry.base_seconds = 5.0;  // park the retry far out
    cfg.resilience.retry.cap_seconds = 5.0;
    PyramidService service(pool, cfg);
    service.set_chaos_plan(ChaosPlan::parse("compute=1.0", 1));

    auto sub = service.submit(request_for(scene(32, 6)));
    ASSERT_TRUE(sub.accepted);
    ASSERT_TRUE(wait_for([&] { return service.metrics().backoff_depth == 1; }));

    // Shutdown while the flight waits out its backoff: the waiter must be
    // failed with the shutdown error (not the compute error, not a hang
    // until the retry timer would have fired).
    service.shutdown();
    EXPECT_THROW((void)sub.future.get(), ServiceShutdownError);

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.shutdown_failures, 1U);
    EXPECT_EQ(m.counters.retries, 1U);
    EXPECT_EQ(m.backoff_depth, 0U);
    EXPECT_EQ(m.queue_depth, 0U);
    EXPECT_EQ(m.running, 0U);
}

TEST(ChaosService, BreakerOpensAfterFailuresAndFastRejects) {
    ThreadPool pool(2);
    ServiceConfig cfg;
    cfg.resilience = fast_resilience(1);
    cfg.resilience.breaker.min_samples = 1;   // one failure trips it
    cfg.resilience.breaker.open_seconds = 60.0;
    PyramidService service(pool, cfg);
    service.set_chaos_plan(ChaosPlan::parse("compute=1.0", 1));

    auto first = service.submit(request_for(scene(32, 7)));
    ASSERT_TRUE(first.accepted);
    EXPECT_THROW((void)first.future.get(), ChaosComputeError);

    const auto rejected = service.submit(request_for(scene(32, 8)));
    EXPECT_FALSE(rejected.accepted);
    EXPECT_EQ(rejected.reject_reason, RejectReason::BreakerOpen);
    EXPECT_GT(rejected.retry_after_seconds, 0.0);
    EXPECT_LE(rejected.retry_after_seconds, 60.0);

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.breaker_rejects, 1U);
    EXPECT_EQ(outcome_count(m, Outcome::BreakerRejected), 1U);
    service.shutdown();
}

TEST(ChaosService, DegradedVariantServedWhileBreakerOpen) {
    ThreadPool pool(2);
    ServiceConfig cfg;
    cfg.resilience = fast_resilience(1);
    cfg.resilience.breaker.min_samples = 1;
    cfg.resilience.breaker.open_seconds = 60.0;
    // Full weight on the newest sample so the one failure after the warm
    // success still pushes the EWMA over the threshold.
    cfg.resilience.breaker.ewma_alpha = 1.0;
    PyramidService service(pool, cfg);

    // Healthy phase: cache a 2-level pyramid of the scene.
    auto img = scene(32, 9);
    auto warm = service.submit(request_for(img, 4, 2));
    ASSERT_TRUE(warm.accepted);
    ASSERT_NE(warm.future.get().result, nullptr);

    // Fault phase: every compute now fails; the first failure trips the
    // breaker (and quarantines its own key).
    service.set_chaos_plan(ChaosPlan::parse("compute=1.0", 1));
    auto broken = service.submit(request_for(img, 4, 1));
    ASSERT_TRUE(broken.accepted);
    EXPECT_THROW((void)broken.future.get(), ChaosComputeError);

    // A degradation-tolerant client asking for a 3-level pyramid of the
    // same scene gets the cached 2-level variant instead of a reject.
    auto tolerant = request_for(img, 4, 3);
    tolerant.allow_degraded = true;
    auto degraded = service.submit(tolerant);
    ASSERT_TRUE(degraded.accepted);
    const auto reply = degraded.future.get();
    EXPECT_TRUE(reply.degraded);
    ASSERT_NE(reply.result, nullptr);
    EXPECT_EQ(reply.result->key.levels, 2U);
    expect_whole_pyramid(reply);

    // An exact-parameter client is still fast-rejected.
    const auto strict = service.submit(request_for(img, 4, 4));
    EXPECT_FALSE(strict.accepted);
    EXPECT_EQ(strict.reject_reason, RejectReason::BreakerOpen);

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.degraded_replies, 1U);
    EXPECT_EQ(outcome_count(m, Outcome::Degraded), 1U);
    EXPECT_EQ(service.cache_stats().variant_hits, 1U);
    service.shutdown();
}

TEST(ChaosService, DegradedVariantServedWhenSaturated) {
    ThreadPool pool(2);
    std::promise<void> gate;
    std::shared_future<void> opened(gate.get_future());
    ServiceConfig cfg;
    cfg.max_queue_depth = 1;
    cfg.max_concurrency = 1;
    PyramidService service(pool, cfg);

    // Healthy phase: cache a 2-level pyramid, then park both pool workers
    // so later computes cannot start.
    auto img = scene(32, 10);
    auto warm = service.submit(request_for(img, 4, 2));
    ASSERT_TRUE(warm.accepted);
    ASSERT_NE(warm.future.get().result, nullptr);
    pool.submit([opened] { opened.wait(); });
    pool.submit([opened] { opened.wait(); });

    // Fill the single concurrency slot and the single queue slot.
    ASSERT_TRUE(service.submit(request_for(img, 4, 1)).accepted);
    ASSERT_TRUE(service.submit(request_for(img, 4, 3)).accepted);

    // Saturated: a strict client is rejected, a tolerant one degrades.
    const auto strict = service.submit(request_for(img, 4, 4));
    EXPECT_FALSE(strict.accepted);
    EXPECT_EQ(strict.reject_reason, RejectReason::Saturated);
    auto tolerant = request_for(img, 4, 4);
    tolerant.allow_degraded = true;
    auto degraded = service.submit(tolerant);
    ASSERT_TRUE(degraded.accepted);
    const auto reply = degraded.future.get();
    EXPECT_TRUE(reply.degraded);
    EXPECT_EQ(reply.result->key.levels, 2U);
    expect_whole_pyramid(reply);

    // A tolerant client whose scene has nothing cached is rejected too:
    // there is no partial answer to degrade to.
    auto uncached = request_for(scene(32, 12), 4, 2);
    uncached.allow_degraded = true;
    const auto nothing = service.submit(uncached);
    EXPECT_FALSE(nothing.accepted);
    EXPECT_EQ(nothing.reject_reason, RejectReason::Saturated);

    gate.set_value();
    service.shutdown();
}

TEST(ChaosService, ChaosOffLeavesTheResiliencePathInert) {
    ThreadPool pool(2);
    PyramidService service(pool);
    auto sub = service.submit(request_for(scene(32, 11)));
    ASSERT_TRUE(sub.accepted);
    const auto reply = sub.future.get();
    ASSERT_NE(reply.result, nullptr);
    EXPECT_EQ(reply.attempts, 1U);
    EXPECT_FALSE(reply.degraded);

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.retries, 0U);
    EXPECT_EQ(m.counters.quarantined, 0U);
    EXPECT_EQ(m.counters.breaker_rejects, 0U);
    EXPECT_EQ(m.counters.degraded_replies, 0U);
    EXPECT_EQ(m.counters.watchdog_timeouts, 0U);
    EXPECT_EQ(m.counters.crc_audit_failures, 0U);
    EXPECT_EQ(outcome_count(m, Outcome::Ok), 1U);
    const auto cs = service.chaos_stats();
    EXPECT_EQ(cs.draws, 0U);
    service.shutdown();
}

}  // namespace
