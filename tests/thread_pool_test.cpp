#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sag/exec/thread_pool.h"

namespace sag {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
    exec::ThreadPool pool(4);
    std::atomic<int> counter{0};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnFreshPoolReturnsImmediately) {
    exec::ThreadPool pool(2);
    pool.wait_idle();  // must not hang
    SUCCEED();
}

TEST(ThreadPoolTest, RunsAsManyTasksAtOnceAsItHasWorkers) {
    // Each task waits until all kWorkers tasks have started. Only a pool
    // with kWorkers live workers lets them all meet; a narrower one runs
    // into the shared deadline and fails instead of hanging.
    constexpr int kWorkers = 4;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::atomic<int> started{0};
    std::atomic<int> met{0};
    exec::ThreadPool pool(kWorkers);
    for (int i = 0; i < kWorkers; ++i) {
        pool.submit([&] {
            started.fetch_add(1);
            while (started.load() < kWorkers &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::yield();
            }
            if (started.load() == kWorkers) met.fetch_add(1);
        });
    }
    pool.wait_idle();
    EXPECT_EQ(met.load(), kWorkers);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
    exec::ThreadPool pool(3);
    std::atomic<int> counter{0};
    for (int wave = 0; wave < 5; ++wave) {
        for (int i = 0; i < 20; ++i) {
            pool.submit([&counter] { counter.fetch_add(1); });
        }
        pool.wait_idle();
        EXPECT_EQ(counter.load(), (wave + 1) * 20);
    }
}

TEST(ParallelForTest, EachIndexWritesItsSlot) {
    exec::ThreadPool pool(4);
    std::vector<std::size_t> out(257, 0);
    exec::parallel_for_index(pool, out.size(),
                       [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelForTest, ZeroCountIsNoop) {
    exec::ThreadPool pool(2);
    exec::parallel_for_index(pool, 0, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ParallelForTest, DeterministicReductionViaSlots) {
    // The pattern benches use: evaluate seeds in parallel into slots,
    // reduce serially -> identical result regardless of thread count.
    const auto compute = [](std::size_t threads) {
        exec::ThreadPool pool(threads);
        std::vector<double> slot(40);
        exec::parallel_for_index(pool, slot.size(), [&](std::size_t i) {
            double acc = 0.0;
            for (std::size_t k = 0; k <= i; ++k) acc += std::sqrt(double(k + 1));
            slot[i] = acc;
        });
        return std::accumulate(slot.begin(), slot.end(), 0.0);
    };
    EXPECT_DOUBLE_EQ(compute(1), compute(7));
}

}  // namespace
}  // namespace sag
