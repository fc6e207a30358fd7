#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace wavehpc::runtime {

namespace {

// Identifies the pool (if any) whose worker_loop is running on this thread,
// so a nested parallel_for can help-drain the queue instead of deadlocking
// in a blocking wait.
thread_local ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
    if (workers == 0) {
        workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
        threads_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard lk(mu_);
        stopping_ = true;
    }
    cv_task_.notify_all();
    for (auto& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
    tls_worker_pool = this;
    for (;;) {
        Task task;
        std::shared_ptr<const std::function<void()>> observer;
        {
            std::unique_lock lk(mu_);
            if (!stopping_ && queues_empty()) {
                const auto idle_start = std::chrono::steady_clock::now();
                cv_task_.wait(lk, [this] { return stopping_ || !queues_empty(); });
                idle_ns_.fetch_add(
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - idle_start)
                            .count()),
                    std::memory_order_relaxed);
            }
            if (queues_empty()) return;  // stopping and drained
            task = pop_task();
            observer = task_observer_;
            ++busy_;
        }
        if (observer) (*observer)();
        run_task(task);
        {
            std::lock_guard lk(mu_);
            --busy_;
            if (queues_empty() && busy_ == 0) cv_idle_.notify_all();
        }
    }
}

void ThreadPool::run_task(Task& task) {
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
    if (task.group == nullptr) {
        // Plain submit(): no join exists to deliver an exception to, so a
        // throw propagates out of the worker and terminates (documented).
        task.fn();
        return;
    }
    std::exception_ptr error;
    try {
        task.fn();
    } catch (...) {
        error = std::current_exception();
    }
    task.group->complete(std::move(error));
}

ThreadPool::Task ThreadPool::pop_task() {
    std::deque<Task>& q = high_queue_.empty() ? queue_ : high_queue_;
    Task task = std::move(q.front());
    q.pop_front();
    return task;
}

bool ThreadPool::try_help_one() {
    Task task;
    std::shared_ptr<const std::function<void()>> observer;
    {
        std::lock_guard lk(mu_);
        if (queues_empty()) return false;
        task = pop_task();
        observer = task_observer_;
        ++busy_;
    }
    helper_tasks_.fetch_add(1, std::memory_order_relaxed);
    if (observer) (*observer)();
    run_task(task);
    {
        std::lock_guard lk(mu_);
        --busy_;
        if (queues_empty() && busy_ == 0) cv_idle_.notify_all();
    }
    return true;
}

void ThreadPool::enqueue(Task task, TaskPriority priority) {
    {
        std::lock_guard lk(mu_);
        assert(!stopping_ && "ThreadPool: submit after stop");
        if (stopping_) {
            throw std::logic_error(
                "ThreadPool: submit on a stopping pool (task would be dropped)");
        }
        (priority == TaskPriority::High ? high_queue_ : queue_)
            .push_back(std::move(task));
        queue_high_water_ = std::max<std::uint64_t>(
            queue_high_water_, queue_.size() + high_queue_.size());
    }
    cv_task_.notify_one();
}

void ThreadPool::enqueue_bulk(std::vector<Task>& tasks, TaskPriority priority) {
    if (tasks.empty()) return;
    {
        std::lock_guard lk(mu_);
        assert(!stopping_ && "ThreadPool: submit after stop");
        if (stopping_) {
            throw std::logic_error(
                "ThreadPool: submit on a stopping pool (task would be dropped)");
        }
        std::deque<Task>& q = priority == TaskPriority::High ? high_queue_ : queue_;
        for (Task& t : tasks) q.push_back(std::move(t));
        queue_high_water_ = std::max<std::uint64_t>(
            queue_high_water_, queue_.size() + high_queue_.size());
    }
    tasks.clear();
    cv_task_.notify_all();
}

void ThreadPool::submit(std::function<void()> task, TaskPriority priority) {
    enqueue(Task{std::move(task), nullptr}, priority);
}

void ThreadPool::submit(TaskGroup& group, std::function<void()> task,
                        TaskPriority priority) {
    group.add(1);
    try {
        enqueue(Task{std::move(task), &group}, priority);
    } catch (...) {
        group.complete(nullptr);  // re-balance the latch
        throw;
    }
}

void ThreadPool::wait(TaskGroup& group) {
    if (tls_worker_pool == this) {
        // Called from inside a worker: drain queued tasks while the group
        // is outstanding so the occupied slot keeps making progress (a
        // blocking wait here deadlocked the seed runtime on 1-worker pools
        // and starved larger ones).
        while (!group.finished()) {
            if (!try_help_one()) {
                // Queue empty: every remaining task of the group is already
                // running on another worker; block until they signal.
                group.wait_blocking();
                break;
            }
        }
    } else {
        group.wait_blocking();
    }
    groups_completed_.fetch_add(1, std::memory_order_relaxed);
    group.rethrow_if_error();
}

TaskGroup& ThreadPool::acquire_group() {
    std::lock_guard lk(group_mu_);
    if (free_groups_.empty()) {
        group_storage_.push_back(std::make_unique<TaskGroup>());
        free_groups_.push_back(group_storage_.back().get());
    }
    TaskGroup* g = free_groups_.back();
    free_groups_.pop_back();
    g->reset();
    return *g;
}

void ThreadPool::release_group(TaskGroup& group) noexcept {
    std::lock_guard lk(group_mu_);
    free_groups_.push_back(&group);
}

void ThreadPool::wait_idle() {
    std::unique_lock lk(mu_);
    cv_idle_.wait(lk, [this] { return queues_empty() && busy_ == 0; });
}

void ThreadPool::parallel_for(std::size_t first, std::size_t last,
                              const std::function<void(std::size_t, std::size_t)>& fn) {
    if (first >= last) return;
    const std::size_t n = last - first;
    const std::size_t parts = std::min(n, workers());
    if (parts <= 1) {
        // Single chunk (or 1-worker pool): run inline on the caller — no
        // queue round-trip, and trivially correct when nested.
        tasks_executed_.fetch_add(1, std::memory_order_relaxed);
        groups_completed_.fetch_add(1, std::memory_order_relaxed);
        fn(first, last);
        return;
    }

    TaskGroup& group = acquire_group();
    group.add(parts);
    // Stage every chunk, then queue them all under one lock + one notify
    // (enqueue_bulk) — per-chunk round-trips dominated dispatch cost for
    // short sweeps, and batched flights multiply the chunk count.
    std::vector<Task> chunks;
    chunks.reserve(parts);
    for (std::size_t p = 0; p < parts; ++p) {
        const std::size_t chunk_first = first + n * p / parts;
        const std::size_t chunk_last = first + n * (p + 1) / parts;
        chunks.push_back(Task{
            [&fn, chunk_first, chunk_last] { fn(chunk_first, chunk_last); }, &group});
    }
    try {
        enqueue_bulk(chunks);
    } catch (...) {
        // Refused (pool stopping): nothing was enqueued — balance the whole
        // latch and hand the group back.
        for (std::size_t p = 0; p < parts; ++p) group.complete(nullptr);
        release_group(group);
        throw;
    }
    try {
        wait(group);
    } catch (...) {
        release_group(group);
        throw;
    }
    release_group(group);
}

PoolMetrics ThreadPool::metrics() const {
    PoolMetrics m;
    m.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
    m.helper_tasks = helper_tasks_.load(std::memory_order_relaxed);
    m.groups_completed = groups_completed_.load(std::memory_order_relaxed);
    m.idle_seconds =
        static_cast<double>(idle_ns_.load(std::memory_order_relaxed)) * 1e-9;
    {
        std::lock_guard lk(mu_);
        m.queue_high_water = queue_high_water_;
    }
    return m;
}

void ThreadPool::set_task_observer(std::function<void()> observer) {
    auto next = observer
                    ? std::make_shared<const std::function<void()>>(std::move(observer))
                    : nullptr;
    std::lock_guard lk(mu_);
    task_observer_ = std::move(next);
}

void ThreadPool::reset_metrics() {
    tasks_executed_.store(0, std::memory_order_relaxed);
    helper_tasks_.store(0, std::memory_order_relaxed);
    groups_completed_.store(0, std::memory_order_relaxed);
    idle_ns_.store(0, std::memory_order_relaxed);
    std::lock_guard lk(mu_);
    queue_high_water_ = 0;
}

ScopedTaskGroup::~ScopedTaskGroup() {
    if (!joined_) {
        try {
            pool_.wait(*group_);
        } catch (...) {  // NOLINT(bugprone-empty-catch) — dtor must not throw
        }
    }
    pool_.release_group(*group_);
}

void ScopedTaskGroup::wait() {
    joined_ = true;
    pool_.wait(*group_);
}

}  // namespace wavehpc::runtime
