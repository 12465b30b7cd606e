/**
 * @file
 * Worker threads for independent jobs.
 *
 *  - parallelFor(): one-shot fork-join (spawns and joins per call),
 *    used by the external-pass evaluation batches (core/pass_eval) and
 *    the corpus runner's seed sweep. Both keep the same determinism
 *    discipline: every job is a pure function of its index writing into
 *    a disjoint result slot, and the caller folds the slots in index
 *    order, so the outcome is bit-identical for any worker count.
 *  - TaskQueue: a queue of individually submitted tasks (the daemon's
 *    per-connection dispatch).
 *
 * Jobs must not throw: an exception escaping a worker thread would
 * std::terminate the process. Callers catch inside the job and report
 * through their result slots.
 */
#ifndef SEER_SUPPORT_WORKER_POOL_H_
#define SEER_SUPPORT_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace seer {

/**
 * A plain task queue for independent, individually-submitted jobs —
 * the primitive parallelFor deliberately is not. The daemon dispatches
 * one task per client connection: tasks arrive one at a time from the
 * accept loop, run concurrently up to `threads`, and the queue drains
 * cleanly on shutdown (in-flight tasks finish; queued-but-unstarted
 * tasks still run — a connected client must get *some* response).
 *
 * Tasks must not throw (same contract as parallelFor jobs). No
 * determinism guarantees: ordering across tasks is whatever the
 * scheduler does. Anything needing bit-reproducibility belongs on
 * parallelFor, not here.
 */
class TaskQueue
{
  public:
    explicit TaskQueue(unsigned threads);
    /** Drains the queue (waits for every posted task), then joins. */
    ~TaskQueue();

    TaskQueue(const TaskQueue &) = delete;
    TaskQueue &operator=(const TaskQueue &) = delete;

    /** Enqueue a task; false (task dropped) after shutdown began. */
    bool post(std::function<void()> task);

    /** Block until every posted task has finished. */
    void drain();

    /** Stop accepting tasks, drain, and join the workers. Idempotent. */
    void shutdown();

    /** Tasks posted but not yet finished. */
    size_t pending() const;

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    size_t active_ = 0;
    bool shutdown_ = false;
};

/**
 * One-shot fork-join: run fn(0..count-1), spread over up to `threads`
 * workers spawned for this call (the calling thread is one of them),
 * and join. Completion order is unspecified. When `cancel` is provided
 * and returns true, remaining *unstarted* jobs are skipped (in-flight
 * jobs always finish: cancellation is cooperative).
 */
void parallelFor(size_t count, unsigned threads,
                 const std::function<void(size_t)> &fn,
                 const std::function<bool()> &cancel = nullptr);

/** Worker count for "use every core" requests (never 0). */
unsigned hardwareThreads();

} // namespace seer

#endif // SEER_SUPPORT_WORKER_POOL_H_
