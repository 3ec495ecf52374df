#include "support/thread_pool.hpp"

#include <algorithm>
#include <string>

#if defined(__linux__)
#include <pthread.h>
#endif

namespace gmt
{

namespace
{

void
nameWorker(std::thread &t, int index)
{
#if defined(__linux__)
    // Comm names are capped at 15 chars + NUL; "gmt-worker-N" fits
    // for any realistic pool size, and longer names are cut.
    std::string name = "gmt-worker-" + std::to_string(index);
    name.resize(std::min<size_t>(name.size(), 15));
    pthread_setname_np(t.native_handle(), name.c_str());
#else
    (void)t;
    (void)index;
#endif
}

} // namespace

ThreadPool::ThreadPool(int num_threads)
{
    int n = std::max(1, num_threads);
    workers_.reserve(n);
    for (int i = 0; i < n; ++i) {
        workers_.emplace_back([this] { workerLoop(); });
        nameWorker(workers_.back(), i);
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(job));
    }
    work_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

int
ThreadPool::hardwareDefault()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? static_cast<int>(n) : 1;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            work_ready_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return; // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
            ++in_flight_;
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mu_);
            --in_flight_;
            if (queue_.empty() && in_flight_ == 0)
                idle_.notify_all();
        }
    }
}

} // namespace gmt
