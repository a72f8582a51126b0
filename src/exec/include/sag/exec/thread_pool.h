#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "sag/exec/mutex.h"
#include "sag/exec/thread_annotations.h"

namespace sag::exec {

/// A minimal fixed-size worker pool. Its users are serve::Session, which
/// runs background re-solves on a one-worker pool, and bench_fig7_sag,
/// which evaluates seeds through parallel_for_index. Callers stay
/// deterministic because work items are indexed and outputs land in
/// pre-sized slots (no order-dependent accumulation).
///
/// Locking discipline is a compile-time property: every shared member is
/// SAG_GUARDED_BY(mutex_), so an unguarded access fails the clang
/// `thread-safety` CI build instead of waiting for a TSan interleaving
/// (docs/STATIC_ANALYSIS.md §8).
class ThreadPool {
public:
    /// Starts `threads` workers; callers pass at least 1.
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueues a task; tasks must not throw (std::terminate otherwise).
    void submit(std::function<void()> task);

    /// Blocks until every submitted task has finished.
    void wait_idle();

private:
    void worker_loop();

    std::vector<std::thread> workers_;  // written only in ctor/dtor
    Mutex mutex_;
    CondVar task_ready_;
    CondVar all_done_;
    std::queue<std::function<void()>> queue_ SAG_GUARDED_BY(mutex_);
    std::size_t in_flight_ SAG_GUARDED_BY(mutex_) = 0;
    bool stopping_ SAG_GUARDED_BY(mutex_) = false;
};

/// Runs fn(i) for i in [0, count) on `pool`, blocking until all complete.
/// fn must only write to its own index's output slot.
void parallel_for_index(ThreadPool& pool, std::size_t count,
                        const std::function<void(std::size_t)>& fn);

}  // namespace sag::exec
