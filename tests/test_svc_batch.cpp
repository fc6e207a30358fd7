// Batched execution (ISSUE 8): the fused sweep is bit-identical to
// per-request execution across randomized parameter mixes, the planner
// only coalesces schedule-equivalent flights, a batch never delays a
// request past its deadline (expiry is re-checked at compute start), and
// the optional hold window fills underfull batches without ever holding
// interactive work.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <vector>

#include "core/dwt.hpp"
#include "core/synthetic.hpp"
#include "nan_arena.hpp"
#include "svc/arena.hpp"
#include "svc/service.hpp"
#include "testing/invariants.hpp"
#include "wavelet/threads_dwt.hpp"

namespace {

using wavehpc::core::BoundaryMode;
using wavehpc::core::DwtKernel;
using wavehpc::core::FilterPair;
using wavehpc::core::ImageF;
using wavehpc::core::Pyramid;
using wavehpc::runtime::ThreadPool;
using wavehpc::svc::Backend;
using wavehpc::svc::ChaosPlan;
using wavehpc::svc::Clock;
using wavehpc::svc::DeadlineExpiredError;
using wavehpc::svc::Priority;
using wavehpc::svc::PyramidService;
using wavehpc::svc::ServiceConfig;
using wavehpc::svc::TransformRequest;

std::shared_ptr<const ImageF> scene(std::size_t n, std::uint64_t seed) {
    return std::make_shared<const ImageF>(wavehpc::core::landsat_tm_like(n, n, seed));
}

/// A pool whose workers are all parked on a latch until release() — the
/// deterministic way to stack compatible requests into pending_.
struct GatedPool {
    explicit GatedPool(std::size_t workers = 1)
        : pool(workers), opened(gate.get_future()) {
        for (std::size_t w = 0; w < workers; ++w) {
            pool.submit([wait_on = opened] { wait_on.wait(); });
        }
    }
    void release() { gate.set_value(); }

    ThreadPool pool;
    std::promise<void> gate;
    std::shared_future<void> opened;
};

std::uint64_t next_rng(std::uint64_t& s) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 11;
}

// The core property: decompose_batch(i) is bit-identical to the solo
// serial reference for every member, across a seeded randomized sweep of
// batch sizes, shapes, taps, levels, boundary modes, serial vs pooled
// execution, and heap vs arena buffers. Before each round the arena
// is primed with NaN slabs, so a buffer used before it is fully written
// shows up as a mismatch.
TEST(DecomposeBatch, BitIdenticalToSoloAcrossRandomizedMixes) {
    ThreadPool pool(2);
    wavehpc::svc::BufferArena arena;
    std::uint64_t rng = 0xBA7C8E15u;
    constexpr int kTaps[] = {2, 4, 6, 8};
    constexpr BoundaryMode kModes[] = {BoundaryMode::Periodic,
                                       BoundaryMode::Symmetric,
                                       BoundaryMode::ZeroPad};
    std::uint64_t run_hits = 0;

    for (int round = 0; round < 12; ++round) {
        const std::size_t n = 16u << (next_rng(rng) % 3);  // 16/32/64
        const int taps = kTaps[next_rng(rng) % 4];
        const int levels = 1 + static_cast<int>(next_rng(rng) % 3);
        const auto mode = kModes[next_rng(rng) % 3];
        const std::size_t batch = 1 + next_rng(rng) % 5;
        const bool pooled = (next_rng(rng) & 1) != 0;
        const bool pool_buffers = (next_rng(rng) & 1) != 0;

        std::vector<ImageF> imgs;
        std::vector<const ImageF*> ptrs;
        for (std::size_t b = 0; b < batch; ++b) {
            imgs.push_back(wavehpc::core::landsat_tm_like(n, n, rng ^ b));
        }
        for (const ImageF& img : imgs) ptrs.push_back(&img);

        const auto fp = FilterPair::daubechies(taps);
        if (pool_buffers) {
            // Every buffer of a round fits the class of a level-0 row band.
            // Prime more slabs than a round obtains: a member four subbands
            // per level, and each stripe, at most two at once on this pool,
            // two ring and at most two head slabs.
            wavehpc::testing::prime_with_nan(
                arena, n * n / 2, (6 * batch + 8) * static_cast<std::size_t>(levels));
        }
        const std::uint64_t hits_before = arena.stats().hits;
        const auto pyrs = wavehpc::wavelet::decompose_batch(
            ptrs, fp, levels, mode, pooled ? &pool : nullptr, DwtKernel::Convolve,
            pool_buffers ? &arena : nullptr);
        run_hits += arena.stats().hits - hits_before;
        ASSERT_EQ(pyrs.size(), batch);
        for (std::size_t b = 0; b < batch; ++b) {
            const Pyramid ref = wavehpc::core::decompose(imgs[b], fp, levels, mode);
            EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(pyrs[b], ref))
                << "round " << round << " member " << b << " n=" << n
                << " taps=" << taps << " levels=" << levels;
        }
    }
    // The decompositions actually drew pooled slabs.
    EXPECT_GT(run_hits, 0U);
}

TEST(DecomposeBatch, RejectsNullAndMismatchedShapes) {
    const auto fp = FilterPair::daubechies(4);
    ImageF a = wavehpc::core::landsat_tm_like(16, 16, 1);
    ImageF b = wavehpc::core::landsat_tm_like(32, 32, 2);
    EXPECT_THROW((void)wavehpc::wavelet::decompose_batch(
                     {&a, nullptr}, fp, 1, BoundaryMode::Periodic, nullptr),
                 std::invalid_argument);
    EXPECT_THROW((void)wavehpc::wavelet::decompose_batch(
                     {&a, &b}, fp, 1, BoundaryMode::Periodic, nullptr),
                 std::invalid_argument);
    EXPECT_TRUE(wavehpc::wavelet::decompose_batch({}, fp, 1,
                                                  BoundaryMode::Periodic, nullptr)
                    .empty());
}

TEST(DecomposeBatch, KernelArgumentLeavesEveryMemberUnchanged) {
    // Convolve is the one kernel: a batch that names Auto and one that
    // names Convolve produce the same bits, serial and pooled.
    ThreadPool pool(2);
    const auto fp = FilterPair::daubechies(6);
    const ImageF a = wavehpc::core::landsat_tm_like(32, 32, 3);
    const ImageF b = wavehpc::core::landsat_tm_like(32, 32, 4);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        const auto autos = wavehpc::wavelet::decompose_batch(
            {&a, &b}, fp, 2, BoundaryMode::Symmetric, p, DwtKernel::Auto);
        const auto convolves = wavehpc::wavelet::decompose_batch(
            {&a, &b}, fp, 2, BoundaryMode::Symmetric, p, DwtKernel::Convolve);
        ASSERT_EQ(autos.size(), 2U);
        ASSERT_EQ(convolves.size(), 2U);
        for (std::size_t m = 0; m < 2; ++m) {
            EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(autos[m], convolves[m]))
                << "member " << m << (p != nullptr ? " pooled" : " serial");
        }
    }
}

// testing::pyramids_bit_identical is the one pyramid comparison of the
// tests and benches: it must see a sign flip of a zero in any band, accept
// a NaN against its own copy, and reject a structural mismatch.
TEST(PyramidsBitIdentical, ComparesEveryBandsBytesAndItsStructure) {
    const auto fp = FilterPair::daubechies(4);
    const Pyramid ref =
        wavehpc::core::decompose(wavehpc::core::landsat_tm_like(32, 32, 8), fp, 2,
                                 BoundaryMode::Periodic);
    ASSERT_EQ(ref.depth(), 2U);
    EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(ref, ref));

    // Every band of every level, the approximation included.
    const auto flip_sign_of_zero = [&ref](const auto& band_of) {
        Pyramid a = ref;
        Pyramid b = ref;
        band_of(a)(1, 1) = 0.0F;
        band_of(b)(1, 1) = -0.0F;
        return wavehpc::testing::pyramids_bit_identical(a, b);
    };
    EXPECT_FALSE(flip_sign_of_zero([](Pyramid& p) -> ImageF& { return p.approx; }));
    for (std::size_t l = 0; l < ref.depth(); ++l) {
        EXPECT_FALSE(flip_sign_of_zero([l](Pyramid& p) -> ImageF& { return p.levels[l].lh; }))
            << "lh level " << l;
        EXPECT_FALSE(flip_sign_of_zero([l](Pyramid& p) -> ImageF& { return p.levels[l].hl; }))
            << "hl level " << l;
        EXPECT_FALSE(flip_sign_of_zero([l](Pyramid& p) -> ImageF& { return p.levels[l].hh; }))
            << "hh level " << l;
    }

    Pyramid with_nan = ref;
    with_nan.levels[1].hh(0, 0) = std::numeric_limits<float>::quiet_NaN();
    const Pyramid nan_copy = with_nan;
    EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(with_nan, nan_copy));
    EXPECT_FALSE(wavehpc::testing::pyramids_bit_identical(with_nan, ref));

    Pyramid shallower = ref;
    shallower.levels.pop_back();
    EXPECT_FALSE(wavehpc::testing::pyramids_bit_identical(shallower, ref));
    const Pyramid wider =
        wavehpc::core::decompose(wavehpc::core::landsat_tm_like(32, 64, 8), fp, 2,
                                 BoundaryMode::Periodic);
    EXPECT_FALSE(wavehpc::testing::pyramids_bit_identical(wider, ref));
}

// Service-level property test: a randomized mix offered to a batching
// service resolves every request bit-identically to the serial reference,
// whether it was computed solo, fused, deduplicated, or served from cache.
TEST(ServiceBatching, RandomizedMixBitIdenticalToPerRequestExecution) {
    GatedPool gated;
    ServiceConfig cfg;
    cfg.max_queue_depth = 256;
    cfg.max_concurrency = 1;  // one slot: compatible traffic stacks up
    cfg.batch_max = 8;
    PyramidService service(gated.pool, cfg);

    // All submissions stack in pending_ behind the gate, so the planner
    // sees the whole randomized mix at once — deterministic coverage of
    // grouping across taps/levels/backend.
    std::uint64_t rng = 0x5EEDB00Fu;
    constexpr int kTaps[] = {4, 8};
    struct Pending {
        TransformRequest req;
        wavehpc::svc::TransformFuture future;
    };
    std::vector<Pending> accepted;
    for (int i = 0; i < 60; ++i) {
        TransformRequest req;
        req.image = scene(32, 1 + next_rng(rng) % 6);
        req.taps = kTaps[next_rng(rng) % 2];
        req.levels = 1 + static_cast<int>(next_rng(rng) % 2);
        req.backend = (next_rng(rng) & 1) != 0 ? Backend::Threads : Backend::Serial;
        auto sub = service.submit(req);
        if (sub.accepted) accepted.push_back({req, sub.future});
    }
    ASSERT_GT(accepted.size(), 30U);
    gated.release();

    std::uint64_t fused_replies = 0;
    for (auto& p : accepted) {
        const auto reply = p.future.get();
        ASSERT_NE(reply.result, nullptr);
        if (reply.batch_size > 1) ++fused_replies;
        const Pyramid ref = wavehpc::core::decompose(
            *p.req.image, FilterPair::daubechies(p.req.taps), p.req.levels, p.req.boundary);
        EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(reply.result->pyramid, ref));
    }
    // The mix actually exercised the fused path.
    EXPECT_GT(fused_replies, 0U);
    const auto m = service.metrics();
    EXPECT_GT(m.counters.batches, 0U);
    service.shutdown();
}

TEST(ServiceBatching, QueuedCompatibleRequestsFuseIntoOneSweep) {
    GatedPool gated;
    ServiceConfig cfg;
    cfg.max_concurrency = 1;
    cfg.batch_max = 8;
    PyramidService service(gated.pool, cfg);

    // First submit dispatches solo (slot free); the next three stack in
    // pending_ behind the gate and must fuse into one batch of 3.
    std::vector<wavehpc::svc::TransformFuture> futures;
    for (std::uint64_t s = 1; s <= 4; ++s) {
        TransformRequest req;
        req.image = scene(32, s);
        req.taps = 4;
        auto sub = service.submit(req);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(sub.future);
    }
    gated.release();

    EXPECT_EQ(futures[0].get().batch_size, 1U);
    for (int i = 1; i < 4; ++i) {
        EXPECT_EQ(futures[i].get().batch_size, 3U);
    }
    const auto m = service.metrics();
    EXPECT_EQ(m.counters.batches, 2U);
    EXPECT_EQ(m.counters.batched_requests, 3U);
    EXPECT_EQ(m.counters.computes, 4U);
    EXPECT_EQ(m.counters.completed, 4U);
    service.shutdown();
}

// A fused batch settles its members on the pool: each one's CRC point of
// truth, chaos hook, audit and cache insert run in parallel. One member's
// result is corrupted after its checksum; the audit must catch exactly
// that member, retry it alone, and leave the other members untouched.
TEST(ServiceBatching, FusedBatchSettlesOnThePoolAndRetriesOnlyTheCorruptedMember) {
    // Draw 0 is the lead's solo attempt, draws 1-5 the fused batch and
    // draw 6 the retry: find a seed whose plan corrupts exactly one of
    // draws 1-5 and neither of the others.
    ChaosPlan plan;
    std::uint64_t corrupted = 0;
    for (std::uint64_t seed = 1; corrupted == 0; ++seed) {
        ASSERT_LT(seed, 10000U);
        plan = ChaosPlan::parse("corrupt=0.2", seed);
        if (plan.decide(0).corrupt || plan.decide(6).corrupt) continue;
        std::uint64_t hits = 0;
        std::uint64_t at = 0;
        for (std::uint64_t d = 1; d <= 5; ++d) {
            if (plan.decide(d).corrupt) {
                ++hits;
                at = d;
            }
        }
        if (hits == 1) corrupted = at;
    }

    GatedPool gated(4);
    ServiceConfig cfg;
    cfg.max_concurrency = 1;
    cfg.batch_max = 8;
    cfg.resilience.retry.base_seconds = 0.001;
    PyramidService service(gated.pool, cfg);
    service.set_chaos_plan(plan);

    // The lead dispatches solo behind the gate; the other five stack in
    // pending_ and fuse into one batch when it completes.
    std::vector<TransformRequest> reqs;
    std::vector<wavehpc::svc::TransformFuture> futures;
    for (std::uint64_t s = 0; s < 6; ++s) {
        TransformRequest req;
        req.image = scene(64, 100 + s);
        req.taps = 4;
        req.levels = 2;
        auto sub = service.submit(req);
        ASSERT_TRUE(sub.accepted);
        reqs.push_back(req);
        futures.push_back(sub.future);
    }
    gated.release();

    for (std::size_t i = 0; i < futures.size(); ++i) {
        const auto reply = futures[i].get();
        ASSERT_NE(reply.result, nullptr);
        const Pyramid ref = wavehpc::core::decompose(
            *reqs[i].image, FilterPair::daubechies(reqs[i].taps), reqs[i].levels,
            reqs[i].boundary);
        EXPECT_TRUE(wavehpc::testing::pyramids_bit_identical(reply.result->pyramid, ref))
            << "request " << i;
        EXPECT_EQ(reply.attempts, i == corrupted ? 2U : 1U) << "request " << i;
        if (i > 0 && i != corrupted) {
            EXPECT_EQ(reply.batch_size, 5U) << "request " << i;
        }
    }
    service.shutdown();

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.crc_audit_failures, 1U);
    EXPECT_EQ(m.counters.retries, 1U);
    EXPECT_EQ(service.chaos_stats().corruptions, 1U);
    const auto cache = service.cache_stats();
    EXPECT_EQ(cache.entries, 6U);
    EXPECT_EQ(cache.insertions, 6U);
    EXPECT_EQ(cache.audit_failures, 0U);
}

TEST(ServiceBatching, ScheduleUnequalRequestsNeverCoalesce) {
    GatedPool gated;
    ServiceConfig cfg;
    cfg.max_concurrency = 1;
    cfg.batch_max = 8;
    PyramidService service(gated.pool, cfg);

    // Queue up requests that differ ONLY in scheduling class / shape /
    // params: every one must run solo.
    std::vector<wavehpc::svc::TransformFuture> futures;
    auto submit = [&](TransformRequest req) {
        auto sub = service.submit(std::move(req));
        ASSERT_TRUE(sub.accepted);
        futures.push_back(sub.future);
    };
    TransformRequest warm;  // occupies the slot behind the gate
    warm.image = scene(32, 1);
    submit(std::move(warm));

    TransformRequest background;
    background.image = scene(32, 2);
    background.priority = Priority::Background;
    submit(std::move(background));
    TransformRequest normal;
    normal.image = scene(32, 3);
    normal.priority = Priority::Normal;
    submit(std::move(normal));
    TransformRequest deadlined;
    deadlined.image = scene(32, 4);
    deadlined.deadline = Clock::now() + std::chrono::seconds(60);
    submit(std::move(deadlined));
    TransformRequest other_taps;
    other_taps.image = scene(32, 5);
    other_taps.taps = 4;  // differs from the default 8 of the others
    submit(std::move(other_taps));

    gated.release();
    for (auto& f : futures) EXPECT_EQ(f.get().batch_size, 1U);
    const auto m = service.metrics();
    EXPECT_EQ(m.counters.batched_requests, 0U);
    EXPECT_EQ(m.counters.batches, 5U);
    service.shutdown();
}

TEST(ServiceBatching, ExpiryIsRecheckedAtComputeStart) {
    GatedPool gated;
    ServiceConfig cfg;
    cfg.max_concurrency = 1;
    cfg.batch_max = 8;
    PyramidService service(gated.pool, cfg);

    // Occupy the slot, then queue two compatible deadlined requests and
    // hold the gate until the deadline is gone: run_batch must fail them
    // at compute start, never compute them.
    TransformRequest warm;
    warm.image = scene(32, 1);
    auto warm_sub = service.submit(std::move(warm));
    ASSERT_TRUE(warm_sub.accepted);

    const auto deadline = Clock::now() + std::chrono::milliseconds(50);
    std::vector<wavehpc::svc::TransformFuture> doomed;
    for (std::uint64_t s = 2; s <= 3; ++s) {
        TransformRequest req;
        req.image = scene(32, s);
        req.deadline = deadline;
        auto sub = service.submit(req);
        ASSERT_TRUE(sub.accepted);
        doomed.push_back(sub.future);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    gated.release();

    EXPECT_NE(warm_sub.future.get().result, nullptr);
    for (auto& f : doomed) {
        EXPECT_THROW((void)f.get(), DeadlineExpiredError);
    }
    const auto m = service.metrics();
    EXPECT_EQ(m.counters.deadline_failures, 2U);
    EXPECT_EQ(m.counters.computes, 1U);  // only the warm request computed
    service.shutdown();
}

TEST(ServiceBatching, HoldWindowFillsBatchThenDispatches) {
    ThreadPool pool(1);
    ServiceConfig cfg;
    cfg.max_concurrency = 1;
    cfg.batch_max = 3;
    cfg.batch_window_us = 400000;  // generous: submits land inside it
    PyramidService service(pool, cfg);

    // An underfull background lead is held; two more compatible submits
    // complete the batch, which dispatches immediately (full == no hold).
    std::vector<wavehpc::svc::TransformFuture> futures;
    for (std::uint64_t s = 1; s <= 3; ++s) {
        TransformRequest req;
        req.image = scene(32, s);
        req.priority = Priority::Background;
        auto sub = service.submit(req);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(sub.future);
    }
    for (auto& f : futures) {
        EXPECT_EQ(f.get().batch_size, 3U);
    }
    const auto m = service.metrics();
    EXPECT_EQ(m.counters.batches, 1U);
    EXPECT_EQ(m.counters.batched_requests, 3U);
    service.shutdown();
}

TEST(ServiceBatching, HeldLeadDispatchesWhenTheWindowExpires) {
    ThreadPool pool(1);
    ServiceConfig cfg;
    cfg.max_concurrency = 1;
    cfg.batch_max = 8;
    cfg.batch_window_us = 20000;  // 20 ms, then the timer releases it
    PyramidService service(pool, cfg);

    TransformRequest req;
    req.image = scene(32, 1);
    req.priority = Priority::Background;
    auto sub = service.submit(std::move(req));
    ASSERT_TRUE(sub.accepted);
    const auto reply = sub.future.get();  // resolves without more traffic
    ASSERT_NE(reply.result, nullptr);
    EXPECT_EQ(reply.batch_size, 1U);
    service.shutdown();
}

TEST(ServiceBatching, InteractiveIsNeverHeldByTheWindow) {
    ThreadPool pool(1);
    ServiceConfig cfg;
    cfg.max_concurrency = 1;
    cfg.batch_max = 8;
    cfg.batch_window_us = 60000000;  // 60 s: a held lead would time out the test
    PyramidService service(pool, cfg);

    TransformRequest req;
    req.image = scene(32, 1);
    req.priority = Priority::Interactive;
    auto sub = service.submit(std::move(req));
    ASSERT_TRUE(sub.accepted);
    const auto status =
        sub.future.wait_for(std::chrono::seconds(10));
    ASSERT_EQ(status, std::future_status::ready);
    EXPECT_NE(sub.future.get().result, nullptr);
    service.shutdown();
}

// A batch window must never hold a lead past its deadline: with the
// window longer than the deadline allows, dispatch happens immediately.
TEST(ServiceBatching, HoldNeverCrossesTheDeadline) {
    ThreadPool pool(1);
    ServiceConfig cfg;
    cfg.max_concurrency = 1;
    cfg.batch_max = 8;
    cfg.batch_window_us = 60000000;  // 60 s window...
    PyramidService service(pool, cfg);

    TransformRequest req;
    req.image = scene(32, 1);
    req.priority = Priority::Background;
    req.deadline = Clock::now() + std::chrono::seconds(5);  // ...5 s deadline
    auto sub = service.submit(std::move(req));
    ASSERT_TRUE(sub.accepted);
    const auto status = sub.future.wait_for(std::chrono::seconds(10));
    ASSERT_EQ(status, std::future_status::ready);
    EXPECT_NE(sub.future.get().result, nullptr);  // served, not expired
    service.shutdown();
}

TEST(ServiceBatching, BatchMaxOneRestoresPerFlightDispatch) {
    GatedPool gated;
    ServiceConfig cfg;
    cfg.max_concurrency = 1;
    cfg.batch_max = 1;
    PyramidService service(gated.pool, cfg);

    std::vector<wavehpc::svc::TransformFuture> futures;
    for (std::uint64_t s = 1; s <= 3; ++s) {
        TransformRequest req;
        req.image = scene(32, s);
        auto sub = service.submit(req);
        ASSERT_TRUE(sub.accepted);
        futures.push_back(sub.future);
    }
    gated.release();
    for (auto& f : futures) EXPECT_EQ(f.get().batch_size, 1U);
    const auto m = service.metrics();
    EXPECT_EQ(m.counters.batches, 3U);
    EXPECT_EQ(m.counters.batched_requests, 0U);
    service.shutdown();
}

// The arena counters surface through service metrics, and a warm repeat
// of the same working set stops allocating: every checkout is a hit.
TEST(ServiceBatching, WarmSteadyStateStopsAllocating) {
    ThreadPool pool(1);
    ServiceConfig cfg;
    cfg.max_concurrency = 1;
    cfg.batch_max = 8;
    PyramidService service(pool, cfg);

    auto offer = [&](std::uint64_t seed) {
        TransformRequest req;
        req.image = scene(32, seed);
        auto sub = service.submit(std::move(req));
        ASSERT_TRUE(sub.accepted);
        ASSERT_NE(sub.future.get().result, nullptr);
    };
    // Cold lap: allocates (misses); the cache holds the leases, so use
    // fresh scenes per lap to force real computes.
    for (std::uint64_t s = 1; s <= 4; ++s) offer(1000 + s);
    const auto cold = service.arena_stats();
    EXPECT_GT(cold.misses, 0U);

    // Warm laps: the recycled per-level scratch now cycles through the
    // free lists, so hits grow and nothing ever needs the heap fallback.
    // (Band slabs stay donated to the cache until eviction, so misses may
    // still tick — the soak bench pins full allocation-freedom once the
    // cache reaches steady state.)
    for (std::uint64_t s = 1; s <= 4; ++s) offer(2000 + s);
    const auto mid = service.arena_stats();
    for (std::uint64_t s = 1; s <= 4; ++s) offer(3000 + s);
    const auto warm = service.arena_stats();
    EXPECT_GT(warm.hits, mid.hits);
    EXPECT_EQ(warm.heap_fallbacks, 0U);

    const auto m = service.metrics();
    EXPECT_EQ(m.counters.arena_hits, warm.hits);
    EXPECT_EQ(m.counters.arena_misses, warm.misses);
    EXPECT_EQ(m.counters.heap_fallbacks, 0U);
    service.shutdown();
}

}  // namespace
