/**
 * @file
 * Task-based thread pool behind the experiment sweep engine
 * (bench/sweep.hh).
 *
 * The pool executes arbitrary submitted jobs. Work is grouped into
 * TaskGroups so a caller can wait on exactly the batch it submitted;
 * while waiting, the caller *helps* by draining its own group's queued
 * tasks, which makes nested submission safe: a pool task may itself
 * create a group, submit, and wait (e.g. a sweep cell that fans out
 * its own work while itself running as a pool task) without deadlocking
 * even when every worker is busy. Independent groups submit and run
 * concurrently — no cross-caller serialization.
 *
 * parallelFor() is a convenience built on TaskGroup for
 * embarrassingly-parallel loops (the sweep's cell fan-out): the
 * caller runs shard 0 itself and drains the rest, so a pool with zero
 * workers degrades to a plain serial loop.
 *
 * A process-wide pool (ThreadPool::global()) is created lazily with
 * hardware_concurrency() - 1 workers.
 */

#ifndef MODM_COMMON_THREAD_POOL_HH
#define MODM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace modm {

/**
 * Fixed set of worker threads executing submitted tasks.
 */
class ThreadPool
{
  public:
    /**
     * A batch of tasks submitted together and waited on together.
     * Groups are independent: several threads may each drive their own
     * group on the same pool concurrently, and a task may create a
     * nested group on the same pool.
     */
    class TaskGroup
    {
      public:
        /** Bind to a pool; submit() queues onto it. */
        explicit TaskGroup(ThreadPool &pool) : pool_(pool) {}

        /** Waits for outstanding tasks before destruction. */
        ~TaskGroup() { wait(); }

        TaskGroup(const TaskGroup &) = delete;
        TaskGroup &operator=(const TaskGroup &) = delete;

        /**
         * Queue one task. Tasks must not throw. May be called from
         * inside another task of the same group (the waiter picks the
         * addition up).
         */
        void submit(std::function<void()> fn)
        {
            pool_.submit(this, std::move(fn));
        }

        /**
         * Block until every submitted task finished. The calling
         * thread drains this group's queued tasks itself while it
         * waits, so progress never depends on a free worker.
         */
        void wait() { pool_.waitGroup(this); }

      private:
        friend class ThreadPool;
        ThreadPool &pool_;
        std::size_t pending_ = 0; // guarded by pool_.mutex_
    };

    /**
     * @param workers Number of worker threads (in addition to any
     *        calling thread). 0 yields a pool that runs everything
     *        inline on the callers.
     */
    explicit ThreadPool(std::size_t workers);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker threads owned by the pool (excludes callers). */
    std::size_t workerCount() const { return workers_.size(); }

    /**
     * Maximum tasks that can run concurrently when one caller also
     * helps: the workers plus the calling thread.
     */
    std::size_t concurrency() const { return workers_.size() + 1; }

    /**
     * Run fn(shard) for every shard in [0, shardCount); blocks until
     * all shards completed. Shard 0 runs on the calling thread.
     * Reentrant and concurrency-safe: fn may itself call parallelFor
     * (or submit tasks) on this pool, and independent callers proceed
     * in parallel rather than serializing.
     */
    void parallelFor(std::size_t shardCount,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Process-wide pool with hardware_concurrency() - 1 workers.
     * Created on first use; never destroyed before exit.
     */
    static ThreadPool &global();

  private:
    /** One queued unit of work. */
    struct Task
    {
        TaskGroup *group;
        std::function<void()> fn;
    };

    void submit(TaskGroup *group, std::function<void()> fn);
    void waitGroup(TaskGroup *group);
    void workerLoop();
    /** Run a task and do completion bookkeeping. Lock held on entry
     *  and exit, released around fn(). */
    void runTask(std::unique_lock<std::mutex> &lock, Task task);

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable wake_;     // workers: queue non-empty / stop
    std::condition_variable groupDone_; // waiters: task finished/queued
    std::deque<Task> queue_;
    bool stopping_ = false;
};

} // namespace modm

#endif // MODM_COMMON_THREAD_POOL_HH
