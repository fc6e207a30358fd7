#pragma once
// Host shared-memory parallel runtime: a fixed-size worker pool with a
// blocking parallel_for. This is the "modern HPC node" backend for the
// wavelet kernels — the simulators model the 1990s machines, this runs the
// same decomposition for real on the host.
//
// Completion is built on pool-owned TaskGroup latches (task_group.hpp), not
// on waiter-stack condvars, which makes the join race-free. Waiting from
// inside a worker is supported: the waiter helps by draining queued tasks
// instead of blocking a slot, so nested parallel_for calls cannot deadlock.
// Every failed task's exception is collected; a join rethrows the single
// failure or a ParallelGroupError aggregating all of them.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/task_group.hpp"

namespace wavehpc::runtime {

/// Counters the pool keeps about its own overhead, for the Appendix-B-style
/// "performance budget" reporting in bench output (bench_kernels_micro
/// prints their per-level deltas). Snapshot with ThreadPool::metrics();
/// subtract two snapshots to meter a region.
struct PoolMetrics {
    std::uint64_t tasks_executed = 0;    ///< tasks run, by workers or helpers
    std::uint64_t helper_tasks = 0;      ///< subset run by waiters helping
    std::uint64_t groups_completed = 0;  ///< parallel_for / group joins
    std::uint64_t queue_high_water = 0;  ///< max tasks ever queued at once
    double idle_seconds = 0.0;           ///< total worker time blocked for work
};

/// Scheduling class for submitted tasks. The pool keeps one queue per
/// priority and always pops High before Normal; within a priority tasks
/// stay FIFO. parallel_for chunks are Normal, so a High submit overtakes
/// queued data-parallel work but never preempts a running task. Added for
/// the pyramid service (src/svc), whose interactive requests must not sit
/// behind a backlog of batch work.
enum class TaskPriority : std::uint8_t { Normal = 0, High = 1 };

class ThreadPool {
public:
    /// Spawns `workers` threads (defaults to hardware_concurrency, min 1).
    explicit ThreadPool(std::size_t workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t workers() const noexcept { return threads_.size(); }

    /// Run fn(begin, end) over [first, last) split into roughly equal chunks,
    /// one per worker (static scheduling, like an OpenMP static for).
    /// Blocks until every chunk finished; rethrows the single worker
    /// exception, or ParallelGroupError when several chunks threw.
    /// A single-chunk range runs inline on the caller. Safe to call from
    /// inside a worker (the nested wait helps drain the queue) and from
    /// many caller threads concurrently.
    void parallel_for(std::size_t first, std::size_t last,
                      const std::function<void(std::size_t, std::size_t)>& fn);

    /// Enqueue an arbitrary task; used by tests and by callers composing
    /// their own joins. The task must not throw (a throwing group-less task
    /// terminates, as there is no join to deliver the exception to).
    /// Throws std::logic_error if the pool is already stopping: the seed
    /// runtime silently enqueued such tasks and dropped them on drain.
    void submit(std::function<void()> task,
                TaskPriority priority = TaskPriority::Normal);

    /// Enqueue a task attached to a caller-held group (see acquire_group /
    /// ScopedTaskGroup). Exceptions are captured into the group and
    /// rethrown by wait(group).
    void submit(TaskGroup& group, std::function<void()> task,
                TaskPriority priority = TaskPriority::Normal);

    /// Block until `group` finished, then rethrow its collected errors.
    /// When called from a worker of this pool, drains queued tasks while
    /// waiting instead of blocking the slot.
    void wait(TaskGroup& group);

    /// Take a reusable group from the pool's free list (grown on demand;
    /// storage lives as long as the pool). Pair with release_group, or use
    /// ScopedTaskGroup. The group must outlive its last complete(), which
    /// wait() guarantees — hence pool ownership, never the waiter's stack.
    [[nodiscard]] TaskGroup& acquire_group();

    /// Return a finished group to the free list.
    void release_group(TaskGroup& group) noexcept;

    /// Block until the queue is drained and all workers are idle. Only
    /// meaningful when no other thread is submitting concurrently.
    void wait_idle();

    /// Snapshot of the overhead counters (cheap; atomics + one lock).
    [[nodiscard]] PoolMetrics metrics() const;

    /// Zero all overhead counters (e.g. between bench phases).
    void reset_metrics();

    /// Install (empty function = clear) an observer invoked right before
    /// every *queued* task executes, on the executing thread, outside the
    /// pool lock. This is the fault-injection seam the chaos layer uses to
    /// stall a seeded fraction of dispatches (svc::ChaosEngine); it must
    /// be cheap and must not throw. Inline-run single-chunk parallel_for
    /// calls bypass the queue and are not observed. Thread-safe to swap
    /// while workers run; tasks already popped keep the observer they saw.
    void set_task_observer(std::function<void()> observer);

private:
    struct Task {
        std::function<void()> fn;
        TaskGroup* group = nullptr;  ///< completion latch; null for submit()
    };

    void worker_loop();
    void run_task(Task& task);
    bool try_help_one();  ///< steal one queued task; false if queues empty
    void enqueue(Task task, TaskPriority priority = TaskPriority::Normal);
    /// Queue every task under ONE lock acquisition and one notify_all —
    /// the parallel_for dispatch path (ISSUE 8): a W-chunk sweep used to
    /// pay W lock/notify round-trips per level. All-or-nothing: throws
    /// (pool stopping) with no task enqueued. `tasks` is consumed.
    void enqueue_bulk(std::vector<Task>& tasks,
                      TaskPriority priority = TaskPriority::Normal);
    bool queues_empty() const { return queue_.empty() && high_queue_.empty(); }
    Task pop_task();  ///< callers must hold mu_ and ensure !queues_empty()

    std::vector<std::thread> threads_;
    // Swapped atomically under mu_; executing threads hold a snapshot so a
    // concurrent set_task_observer never races a running observer.
    std::shared_ptr<const std::function<void()>> task_observer_;
    std::deque<Task> queue_;       // TaskPriority::Normal (incl. parallel_for)
    std::deque<Task> high_queue_;  // TaskPriority::High, always popped first
    mutable std::mutex mu_;
    std::condition_variable cv_task_;
    std::condition_variable cv_idle_;
    std::size_t busy_ = 0;      // workers + helpers running a task
    bool stopping_ = false;     // guarded by mu_

    std::mutex group_mu_;
    std::vector<std::unique_ptr<TaskGroup>> group_storage_;
    std::vector<TaskGroup*> free_groups_;

    std::atomic<std::uint64_t> tasks_executed_{0};
    std::atomic<std::uint64_t> helper_tasks_{0};
    std::atomic<std::uint64_t> groups_completed_{0};
    std::atomic<std::uint64_t> idle_ns_{0};
    std::uint64_t queue_high_water_ = 0;  // guarded by mu_
};

/// RAII join for composing custom task sets:
///     ScopedTaskGroup g(pool);
///     g.submit([..]{ ... });   // any number of tasks
///     g.wait();                // blocks, rethrows task errors
/// The destructor waits (discarding errors) if wait() was never reached and
/// returns the group to the pool.
class ScopedTaskGroup {
public:
    explicit ScopedTaskGroup(ThreadPool& pool)
        : pool_(pool), group_(&pool.acquire_group()) {}
    ~ScopedTaskGroup();

    ScopedTaskGroup(const ScopedTaskGroup&) = delete;
    ScopedTaskGroup& operator=(const ScopedTaskGroup&) = delete;

    void submit(std::function<void()> task,
                TaskPriority priority = TaskPriority::Normal) {
        pool_.submit(*group_, std::move(task), priority);
    }
    void wait();

private:
    ThreadPool& pool_;
    TaskGroup* group_;
    bool joined_ = false;
};

}  // namespace wavehpc::runtime
