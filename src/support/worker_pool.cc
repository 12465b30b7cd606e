#include "support/worker_pool.h"

#include <algorithm>
#include <atomic>

namespace seer {

TaskQueue::TaskQueue(unsigned threads)
{
    unsigned workers = std::max(1u, threads);
    workers_.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

TaskQueue::~TaskQueue()
{
    shutdown();
}

bool
TaskQueue::post(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_)
            return false;
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
    return true;
}

void
TaskQueue::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock,
                  [&] { return queue_.empty() && active_ == 0; });
}

void
TaskQueue::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (shutdown_ && workers_.empty())
            return;
        shutdown_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
}

size_t
TaskQueue::pending() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size() + active_;
}

void
TaskQueue::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        work_cv_.wait(lock,
                      [&] { return shutdown_ || !queue_.empty(); });
        // Shutdown still drains the queue: a posted task represents an
        // accepted client that must get a response.
        if (queue_.empty()) {
            if (shutdown_)
                return;
            continue;
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
        lock.unlock();
        task();
        lock.lock();
        --active_;
        if (queue_.empty() && active_ == 0)
            idle_cv_.notify_all();
    }
}

void
parallelFor(size_t count, unsigned threads,
            const std::function<void(size_t)> &fn,
            const std::function<bool()> &cancel)
{
    if (count == 0)
        return;
    unsigned workers =
        static_cast<unsigned>(std::min<size_t>(std::max(1u, threads), count));
    if (workers <= 1) {
        for (size_t i = 0; i < count; ++i) {
            if (cancel && cancel())
                return;
            fn(i);
        }
        return;
    }
    std::atomic<size_t> cursor{0};
    std::atomic<bool> stop{false};
    auto body = [&] {
        while (!stop.load(std::memory_order_relaxed)) {
            size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= count)
                return;
            if (cancel && cancel()) {
                stop.store(true, std::memory_order_relaxed);
                return;
            }
            fn(i);
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (unsigned t = 1; t < workers; ++t)
        pool.emplace_back(body);
    body(); // the calling thread is worker 0
    for (std::thread &worker : pool)
        worker.join();
}

unsigned
hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

} // namespace seer
