#include "sag/exec/thread_pool.h"

namespace sag::exec {

ThreadPool::ThreadPool(std::size_t threads) {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() {
    {
        const MutexLock lock(mutex_);
        stopping_ = true;
    }
    task_ready_.notify_all();
    for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
    {
        const MutexLock lock(mutex_);
        queue_.push(std::move(task));
        ++in_flight_;
    }
    task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
    MutexLock lock(mutex_);
    while (in_flight_ != 0) all_done_.wait(lock);
}

void ThreadPool::worker_loop() {
    while (true) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            // Explicit predicate loop (not a wait-with-lambda): the
            // guarded reads stay in this lock-held scope, where the
            // thread-safety analysis can see the capability.
            while (!stopping_ && queue_.empty()) task_ready_.wait(lock);
            if (queue_.empty()) return;  // stopping, queue drained
            task = std::move(queue_.front());
            queue_.pop();
        }
        task();
        {
            const MutexLock lock(mutex_);
            --in_flight_;
            if (in_flight_ == 0) all_done_.notify_all();
        }
    }
}

void parallel_for_index(ThreadPool& pool, std::size_t count,
                        const std::function<void(std::size_t)>& fn) {
    for (std::size_t i = 0; i < count; ++i) {
        pool.submit([&fn, i] { fn(i); });
    }
    pool.wait_idle();
}

}  // namespace sag::exec
