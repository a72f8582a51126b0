#include <atomic>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "sag/sim/paper_presets.h"
#include "sag/exec/thread_pool.h"

namespace sag::sim {
namespace {

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
    exec::ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4u);
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

TEST(ThreadPoolTest, ZeroThreadsPicksHardwareConcurrency) {
    exec::ThreadPool pool(0);
    EXPECT_GE(pool.thread_count(), 1u);
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

TEST(PaperPresetsTest, MatchSectionFourSettings) {
    // The presets start from GeneratorConfig's defaults: the §IV base.
    const GeneratorConfig base;
    EXPECT_DOUBLE_EQ(base.min_distance_request, 30.0);
    EXPECT_DOUBLE_EQ(base.max_distance_request, 40.0);
    EXPECT_DOUBLE_EQ(base.snr_threshold_db.db(), -15.0);
    EXPECT_EQ(base.base_station_count, 4u);

    EXPECT_DOUBLE_EQ(presets::field500(20).field_side, 500.0);
    EXPECT_EQ(presets::field500(20).subscriber_count, 20u);
    EXPECT_DOUBLE_EQ(presets::field800(70).field_side, 800.0);
    EXPECT_DOUBLE_EQ(presets::field800_relaxed(50).snr_threshold_db.db(), -40.0);
    EXPECT_DOUBLE_EQ(presets::field300(10).field_side, 300.0);
    EXPECT_DOUBLE_EQ(presets::snr_sweep_point(units::Decibel{-11.55}).snr_threshold_db.db(), -11.55);
    EXPECT_EQ(presets::topology_showcase().bs_layout, BsLayout::Corners);
}

TEST(PaperPresetsTest, PresetsGenerateValidScenarios) {
    for (const auto& cfg :
         {presets::field500(20), presets::field800(70), presets::field300(10),
          presets::topology_showcase()}) {
        EXPECT_NO_THROW((void)generate_scenario(cfg, 1));
    }
}

}  // namespace
}  // namespace sag::sim
