#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace {

using wavehpc::runtime::ThreadPool;

TEST(ThreadPool, ConstructsRequestedWorkerCount) {
    ThreadPool pool(3);
    EXPECT_EQ(pool.workers(), 3U);
}

TEST(ThreadPool, DefaultsToAtLeastOneWorker) {
    ThreadPool pool;
    EXPECT_GE(pool.workers(), 1U);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallel_for(0, hits.size(), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
    ThreadPool pool(2);
    bool called = false;
    pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForComputesCorrectSum) {
    ThreadPool pool(4);
    std::vector<long> partial(pool.workers() * 16, 0);
    std::atomic<std::size_t> slot{0};
    std::atomic<long> total{0};
    pool.parallel_for(1, 10001, [&](std::size_t b, std::size_t e) {
        long s = 0;
        for (std::size_t i = b; i < e; ++i) s += static_cast<long>(i);
        total.fetch_add(s);
    });
    EXPECT_EQ(total.load(), 10000L * 10001L / 2);
    (void)partial;
    (void)slot;
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
    ThreadPool pool(3);
    EXPECT_THROW(pool.parallel_for(0, 100,
                                   [](std::size_t b, std::size_t) {
                                       if (b == 0) throw std::runtime_error("boom");
                                   }),
                 std::runtime_error);
    // Pool must still be usable afterwards.
    std::atomic<int> ok{0};
    pool.parallel_for(0, 10, [&](std::size_t b, std::size_t e) {
        ok.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int i = 0; i < 50; ++i) {
        pool.submit([&] { count.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, SingleWorkerStillCompletesParallelFor) {
    ThreadPool pool(1);
    std::atomic<long> total{0};
    pool.parallel_for(0, 100, [&](std::size_t b, std::size_t e) {
        total.fetch_add(static_cast<long>(e - b));
    });
    EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, ParallelForAggregatesEveryChunkException) {
    ThreadPool pool(4);
    try {
        pool.parallel_for(0, 4, [](std::size_t, std::size_t) {
            throw std::runtime_error("chunk failed");
        });
        FAIL() << "expected a throw";
    } catch (const wavehpc::runtime::ParallelGroupError& e) {
        // Every one of the 4 chunks threw; none may be dropped.
        EXPECT_EQ(e.exceptions().size(), 4U);
        EXPECT_NE(std::string(e.what()).find("chunk failed"), std::string::npos);
    } catch (const std::runtime_error&) {
        // Permitted only if scheduling let a single chunk observe the error
        // — cannot happen with 4 independent throwing chunks.
        FAIL() << "all four chunks throw; aggregate expected";
    }
    // Pool must still be usable afterwards.
    std::atomic<int> ok{0};
    pool.parallel_for(0, 10, [&](std::size_t b, std::size_t e) {
        ok.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPool, SingleChunkExceptionKeepsOriginalType) {
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallel_for(0, 1,
                                   [](std::size_t, std::size_t) {
                                       throw std::invalid_argument("inline chunk");
                                   }),
                 std::invalid_argument);
}

// Regression: the seed runtime deadlocked when a worker called parallel_for
// (the blocked waiter occupied a slot no other task could fill). The new
// runtime helps: a waiting worker drains queued tasks.
TEST(ThreadPool, NestedParallelForFromWorkerCompletes) {
    for (std::size_t workers : {1U, 2U, 4U}) {
        ThreadPool pool(workers);
        std::atomic<long> total{0};
        pool.parallel_for(0, 8, [&](std::size_t ob, std::size_t oe) {
            for (std::size_t i = ob; i < oe; ++i) {
                pool.parallel_for(0, 32, [&](std::size_t b, std::size_t e) {
                    total.fetch_add(static_cast<long>(e - b));
                });
            }
        });
        EXPECT_EQ(total.load(), 8 * 32) << "workers=" << workers;
    }
}

TEST(ThreadPool, NestedParallelForPropagatesInnerException) {
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.parallel_for(0, 2,
                          [&](std::size_t b, std::size_t) {
                              pool.parallel_for(0, 4, [&](std::size_t ib, std::size_t) {
                                  if (b == 0 && ib == 0) {
                                      throw std::runtime_error("inner");
                                  }
                              });
                          }),
        std::runtime_error);
}

TEST(ThreadPool, ScopedTaskGroupJoinsAndRethrows) {
    ThreadPool pool(3);
    std::atomic<int> count{0};
    {
        wavehpc::runtime::ScopedTaskGroup group(pool);
        for (int i = 0; i < 20; ++i) {
            group.submit([&] { count.fetch_add(1); });
        }
        group.wait();
        EXPECT_EQ(count.load(), 20);
    }
    {
        wavehpc::runtime::ScopedTaskGroup group(pool);
        group.submit([] { throw std::runtime_error("task boom"); });
        EXPECT_THROW(group.wait(), std::runtime_error);
    }
    // A group abandoned without wait() must still join in the destructor.
    std::atomic<int> late{0};
    {
        wavehpc::runtime::ScopedTaskGroup group(pool);
        group.submit([&] { late.fetch_add(1); });
    }
    EXPECT_EQ(late.load(), 1);
}

// Regression: the seed silently enqueued tasks submitted after stopping_
// was set and dropped them when the drained workers returned. submit must
// reject instead.
TEST(ThreadPool, SubmitAfterStopIsRejected) {
    std::atomic<bool> rejected{false};
    std::atomic<bool> done{false};
    {
        ThreadPool pool(1);
        pool.submit([&] {
            // Keep probing until the destructor (running concurrently on
            // the main thread) flips stopping_ — then submit must throw.
            for (int i = 0; i < 500000 && !rejected.load(); ++i) {
                try {
                    pool.submit([] {});
                } catch (const std::logic_error&) {
                    rejected.store(true);
                }
                std::this_thread::sleep_for(std::chrono::microseconds(50));
            }
            done.store(true);
        });
        // Destructor runs now: sets stopping_, then joins the probe task.
    }
    EXPECT_TRUE(done.load());
    EXPECT_TRUE(rejected.load());
}

TEST(ThreadPool, MetricsCountTasksGroupsAndQueueDepth) {
    ThreadPool pool(4);
    pool.reset_metrics();
    pool.parallel_for(0, 100, [](std::size_t, std::size_t) {});
    const auto m = pool.metrics();
    EXPECT_EQ(m.tasks_executed, 4U);  // one chunk per worker
    EXPECT_EQ(m.groups_completed, 1U);
    EXPECT_GE(m.queue_high_water, 1U);
    EXPECT_LE(m.queue_high_water, 4U);

    pool.reset_metrics();
    const auto z = pool.metrics();
    EXPECT_EQ(z.tasks_executed, 0U);
    EXPECT_EQ(z.queue_high_water, 0U);
}

TEST(ThreadPool, HighPrioritySubmitOvertakesQueuedNormalWork) {
    using wavehpc::runtime::ScopedTaskGroup;
    using wavehpc::runtime::TaskPriority;
    // One worker, blocked on a latch, so everything below queues behind it
    // in a deterministic order; the High task must run before the three
    // Normal ones that were enqueued first.
    ThreadPool pool(1);
    std::promise<void> gate;
    std::shared_future<void> opened(gate.get_future());
    std::vector<int> order;
    std::mutex order_mu;
    auto record = [&](int id) {
        std::lock_guard lk(order_mu);
        order.push_back(id);
    };
    ScopedTaskGroup group(pool);
    group.submit([opened] { opened.wait(); });
    for (int id = 0; id < 3; ++id) {
        group.submit([&record, id] { record(id); });
    }
    group.submit([&record] { record(99); }, TaskPriority::High);
    gate.set_value();
    group.wait();
    ASSERT_EQ(order.size(), 4U);
    EXPECT_EQ(order[0], 99);
    EXPECT_EQ(order[1], 0);
    EXPECT_EQ(order[2], 1);
    EXPECT_EQ(order[3], 2);
}

}  // namespace
