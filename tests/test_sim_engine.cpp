#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

namespace {

using wavehpc::sim::DeadlockError;
using wavehpc::sim::Engine;
using wavehpc::sim::Proc;
using wavehpc::sim::SeededTieBreak;

TEST(Engine, EmptyEngineRuns) {
    Engine e;
    EXPECT_NO_THROW(e.run());
    EXPECT_DOUBLE_EQ(e.makespan(), 0.0);
}

TEST(Engine, SingleProcessAdvancesClock) {
    Engine e;
    e.add_process("p0", [](Proc& p) {
        p.advance(1.5);
        p.advance(2.5);
        EXPECT_DOUBLE_EQ(p.now(), 4.0);
    });
    e.run();
    EXPECT_DOUBLE_EQ(e.makespan(), 4.0);
}

TEST(Engine, MakespanIsMaxOverProcesses) {
    Engine e;
    e.add_process("short", [](Proc& p) { p.advance(1.0); });
    e.add_process("long", [](Proc& p) { p.advance(7.0); });
    e.run();
    EXPECT_DOUBLE_EQ(e.makespan(), 7.0);
}

TEST(Engine, ExecutionFollowsVirtualTimeOrder) {
    // Two processes record the order of their actions; the min-clock-first
    // scheduler must interleave them by virtual time, not creation order.
    Engine e;
    std::vector<std::pair<std::size_t, double>> log;
    e.add_process("a", [&](Proc& p) {
        p.advance(2.0);  // now 2
        log.emplace_back(p.pid(), p.now());
        p.advance(4.0);  // now 6
        log.emplace_back(p.pid(), p.now());
    });
    e.add_process("b", [&](Proc& p) {
        p.advance(1.0);  // now 1
        log.emplace_back(p.pid(), p.now());
        p.advance(2.0);  // now 3
        log.emplace_back(p.pid(), p.now());
    });
    e.run();
    ASSERT_EQ(log.size(), 4U);
    for (std::size_t i = 1; i < log.size(); ++i) {
        EXPECT_LE(log[i - 1].second, log[i].second) << "event " << i;
    }
}

TEST(Engine, DeterministicAcrossRuns) {
    const auto record = [] {
        Engine e;
        std::vector<std::size_t> order;
        for (std::size_t i = 0; i < 5; ++i) {
            e.add_process(std::string("p").append(std::to_string(i)), [&order, i](Proc& p) {
                for (int k = 0; k < 3; ++k) {
                    p.advance(0.1 * static_cast<double>(i + 1));
                    order.push_back(i);
                }
            });
        }
        e.run();
        return order;
    };
    const auto a = record();
    const auto b = record();
    EXPECT_EQ(a, b);
}

TEST(Engine, BlockAndNotifyDeliverAtArrivalTime) {
    Engine e;
    double producer_done = 0.0;
    bool flag = false;
    double flag_time = 0.0;
    std::size_t consumer_pid = 0;

    consumer_pid = e.add_process("consumer", [&](Proc& p) {
        p.block([&]() -> std::optional<double> {
            if (flag) return flag_time;
            return std::nullopt;
        });
        EXPECT_DOUBLE_EQ(p.now(), 3.5);  // max(own clock 0, arrival 3.5)
    });
    e.add_process("producer", [&](Proc& p) {
        p.advance(3.0);
        flag = true;
        flag_time = 3.5;  // in-flight for 0.5
        p.notify(consumer_pid);
        producer_done = p.now();
    });
    e.run();
    EXPECT_DOUBLE_EQ(producer_done, 3.0);
    EXPECT_DOUBLE_EQ(e.makespan(), 3.5);
}

TEST(Engine, ImmediatelySatisfiableBlockDoesNotHang) {
    Engine e;
    e.add_process("p", [](Proc& p) {
        p.advance(1.0);
        p.block([]() -> std::optional<double> { return 0.5; });
        EXPECT_DOUBLE_EQ(p.now(), 1.0);  // wake in the past clamps to now
        p.block([]() -> std::optional<double> { return 2.0; });
        EXPECT_DOUBLE_EQ(p.now(), 2.0);
    });
    e.run();
}

TEST(Engine, DeadlockIsDetectedAndReported) {
    Engine e;
    e.add_process("stuck1", [](Proc& p) {
        p.block([]() -> std::optional<double> { return std::nullopt; });
    });
    e.add_process("stuck2", [](Proc& p) {
        p.advance(1.0);
        p.block([]() -> std::optional<double> { return std::nullopt; });
    });
    EXPECT_THROW(e.run(), DeadlockError);
}

TEST(Engine, ProcessExceptionPropagatesAndUnblocksOthers) {
    Engine e;
    e.add_process("waiter", [](Proc& p) {
        p.block([]() -> std::optional<double> { return std::nullopt; });
    });
    e.add_process("thrower", [](Proc& p) {
        p.advance(1.0);
        throw std::runtime_error("node failure");
    });
    EXPECT_THROW(e.run(), std::runtime_error);
}

TEST(Engine, NegativeAdvanceRejected) {
    Engine e;
    e.add_process("p", [](Proc& p) { p.advance(-1.0); });
    EXPECT_THROW(e.run(), std::invalid_argument);
}

TEST(Engine, AddProcessAfterRunRejected) {
    Engine e;
    e.add_process("p", [](Proc& p) { p.advance(0.0); });
    e.run();
    EXPECT_THROW(e.add_process("late", [](Proc&) {}), std::logic_error);
}

TEST(Engine, DeadlockReportNamesEveryBlockedProcessAndItsWait) {
    Engine e;
    e.add_process("rank0", [](Proc& p) {
        p.block([]() -> std::optional<double> { return std::nullopt; },
                "crecv(tag=7, src=1)");
    });
    e.add_process("rank1", [](Proc& p) {
        p.advance(0.5);
        p.block([]() -> std::optional<double> { return std::nullopt; },
                "crecv(tag=9, src=0)");
    });
    try {
        e.run();
        FAIL() << "expected DeadlockError";
    } catch (const DeadlockError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("rank0"), std::string::npos) << what;
        EXPECT_NE(what.find("crecv(tag=7, src=1)"), std::string::npos) << what;
        EXPECT_NE(what.find("rank1"), std::string::npos) << what;
        EXPECT_NE(what.find("crecv(tag=9, src=0)"), std::string::npos) << what;
    }
}

TEST(Engine, BlockUntilTimesOutAtDeadline) {
    Engine e;
    e.add_process("p", [](Proc& p) {
        const bool ok =
            p.block_until([]() -> std::optional<double> { return std::nullopt; }, 2.5);
        EXPECT_FALSE(ok);
        EXPECT_DOUBLE_EQ(p.now(), 2.5);
    });
    e.run();  // no DeadlockError: a timed wait is never a deadlock
}

TEST(Engine, BlockUntilWakesOnNotifyBeforeDeadline) {
    Engine e;
    bool ready = false;
    std::size_t waiter_pid = 0;
    waiter_pid = e.add_process("waiter", [&](Proc& p) {
        const bool ok = p.block_until(
            [&]() -> std::optional<double> {
                if (ready) return 1.0;
                return std::nullopt;
            },
            100.0);
        EXPECT_TRUE(ok);
        EXPECT_DOUBLE_EQ(p.now(), 1.0);
    });
    e.add_process("setter", [&](Proc& p) {
        p.advance(1.0);
        ready = true;
        p.notify(waiter_pid);
    });
    e.run();
}

TEST(Engine, BlockUntilTimeoutWinsWhenWakeIsPastDeadline) {
    // The condition becomes satisfiable only at t=5, after the t=2 deadline:
    // the wait must end unsatisfied at exactly t=2.
    Engine e;
    bool sent = false;
    std::size_t waiter_pid = 0;
    waiter_pid = e.add_process("waiter", [&](Proc& p) {
        const bool ok = p.block_until(
            [&]() -> std::optional<double> {
                if (sent) return 5.0;  // arrival after the deadline
                return std::nullopt;
            },
            2.0);
        EXPECT_FALSE(ok);
        EXPECT_DOUBLE_EQ(p.now(), 2.0);
    });
    e.add_process("sender", [&](Proc& p) {
        p.advance(0.5);
        sent = true;
        p.notify(waiter_pid);
        p.advance(10.0);
    });
    e.run();
}

TEST(Engine, TimedOutProcessResumesInVirtualTimeOrder) {
    // A timeout at t=1 must fire between the t=0.5 and t=2 events of the
    // other process, not after them.
    Engine e;
    std::vector<std::string> order;
    e.add_process("sleeper", [&](Proc& p) {
        (void)p.block_until([]() -> std::optional<double> { return std::nullopt; }, 1.0);
        order.push_back("timeout@" + std::to_string(p.now()));
    });
    e.add_process("worker", [&](Proc& p) {
        p.advance(0.5);
        order.push_back("work@0.5");
        p.advance(1.5);
        order.push_back("work@2.0");
    });
    e.run();
    ASSERT_EQ(order.size(), 3U);
    EXPECT_EQ(order[0], "work@0.5");
    EXPECT_EQ(order[1], "timeout@1.000000");
    EXPECT_EQ(order[2], "work@2.0");
}

TEST(Engine, ManyProcessesPingPongThroughSharedState) {
    // A relay: process i waits for counter == i, then increments it.
    Engine e;
    constexpr std::size_t kN = 16;
    std::size_t counter = 0;
    std::vector<std::size_t> pids(kN);
    for (std::size_t i = 0; i < kN; ++i) {
        pids[i] = e.add_process("relay" + std::to_string(i), [&, i](Proc& p) {
            p.block([&, i]() -> std::optional<double> {
                if (counter == i) return static_cast<double>(i);
                return std::nullopt;
            });
            ++counter;
            // Wake everybody still waiting; only the next one matches.
            for (std::size_t j = 0; j < kN; ++j) {
                if (j != i) p.notify(pids[j]);
            }
        });
    }
    e.run();
    EXPECT_EQ(counter, kN);
}

// ---------------------------------------------------- schedule exploration

// Eight processes, all tied at t=0 and again at t=1: the execution order of
// the tied groups is exactly what a SchedulePolicy may permute.
std::vector<std::size_t> tied_execution_order(std::optional<std::uint64_t> seed) {
    Engine e;
    if (seed.has_value()) {
        e.set_schedule_policy(std::make_unique<SeededTieBreak>(*seed));
    }
    std::vector<std::size_t> order;
    constexpr std::size_t kN = 8;
    for (std::size_t i = 0; i < kN; ++i) {
        e.add_process(std::string("p").append(std::to_string(i)), [&order, i](Proc& p) {
            order.push_back(i);
            p.advance(1.0);
            order.push_back(i);
        });
    }
    e.run();
    return order;
}

TEST(Engine, DefaultPolicyRunsLowestPidFirst) {
    const auto order = tied_execution_order(std::nullopt);
    ASSERT_EQ(order.size(), 16U);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(order[i], i);
        EXPECT_EQ(order[8 + i], i);
    }
}

TEST(Engine, SeededTieBreakIsReplayableFromSeed) {
    for (std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
        EXPECT_EQ(tied_execution_order(seed), tied_execution_order(seed))
            << "seed " << seed << " not bit-identical across runs";
    }
}

TEST(Engine, SeededTieBreakExploresNonDefaultOrders) {
    const auto identity = tied_execution_order(std::nullopt);
    bool any_differs = false;
    for (std::uint64_t seed = 1; seed <= 8 && !any_differs; ++seed) {
        const auto order = tied_execution_order(seed);
        // Every explored schedule is a permutation of the same work...
        auto sorted = order;
        std::sort(sorted.begin(), sorted.end());
        ASSERT_EQ(sorted, [] {
            std::vector<std::size_t> v(16);
            for (std::size_t i = 0; i < 16; ++i) v[i] = i / 2;
            return v;
        }());
        // ...and at least one seed must deviate from lowest-pid order.
        any_differs = order != identity;
    }
    EXPECT_TRUE(any_differs) << "8 seeds all reproduced the default order";
}

TEST(Engine, SeededTieBreakNeverReordersDistinctClocks) {
    // Processes with strictly staggered clocks have no ties: any seed must
    // produce the same virtual-time-ordered event sequence as the default.
    const auto run_with = [](std::optional<std::uint64_t> seed) {
        Engine e;
        if (seed.has_value()) {
            e.set_schedule_policy(std::make_unique<SeededTieBreak>(*seed));
        }
        std::vector<std::string> events;
        for (std::size_t i = 0; i < 4; ++i) {
            e.add_process(std::string("p").append(std::to_string(i)), [&events, i](Proc& p) {
                p.advance(0.1 * static_cast<double>(i + 1));
                events.push_back("a" + std::to_string(i));
                p.advance(1.0);
                events.push_back("b" + std::to_string(i));
            });
        }
        e.run();
        return events;
    };
    const auto base = run_with(std::nullopt);
    for (std::uint64_t seed : {7ULL, 99ULL, 123456789ULL}) {
        EXPECT_EQ(run_with(seed), base) << "seed " << seed;
    }
}

TEST(Engine, SeededTieBreakKeepsTimeoutOrdering) {
    // Reprise of TimedOutProcessResumesInVirtualTimeOrder under exploration:
    // the timeout at t=1 is an untied scheduled event, so every seed must
    // keep it between the t=0.5 and t=2 work items.
    for (std::uint64_t seed : {3ULL, 17ULL, 2026ULL}) {
        Engine e;
        e.set_schedule_policy(std::make_unique<SeededTieBreak>(seed));
        std::vector<std::string> order;
        e.add_process("sleeper", [&](Proc& p) {
            (void)p.block_until([]() -> std::optional<double> { return std::nullopt; },
                                1.0);
            order.push_back("timeout");
        });
        e.add_process("worker", [&](Proc& p) {
            p.advance(0.5);
            order.push_back("work@0.5");
            p.advance(1.5);
            order.push_back("work@2.0");
        });
        e.run();
        ASSERT_EQ(order.size(), 3U) << "seed " << seed;
        EXPECT_EQ(order[0], "work@0.5") << "seed " << seed;
        EXPECT_EQ(order[1], "timeout") << "seed " << seed;
        EXPECT_EQ(order[2], "work@2.0") << "seed " << seed;
    }
}

TEST(Engine, SchedulePolicyDescribesItselfForRepros) {
    Engine e;
    EXPECT_EQ(e.schedule_policy(), nullptr);
    e.set_schedule_policy(std::make_unique<SeededTieBreak>(42));
    ASSERT_NE(e.schedule_policy(), nullptr);
    EXPECT_EQ(e.schedule_policy()->describe(), "sched_seed=42");
}

TEST(Engine, SetSchedulePolicyAfterRunThrows) {
    Engine e;
    e.add_process("p0", [](Proc& p) { p.advance(1.0); });
    e.run();
    EXPECT_THROW(e.set_schedule_policy(std::make_unique<SeededTieBreak>(1)),
                 std::logic_error);
}

}  // namespace
