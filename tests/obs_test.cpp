// sag::obs unit and integration tests: span nesting and same-name
// aggregation, counter merge across ThreadPool workers, the no-sink
// no-op path, and the counters the solver pipelines actually emit.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "sag/core/sag.h"
#include "sag/core/snr_field.h"
#include "sag/ids/ids.h"
#include "sag/obs/obs.h"
#include "sag/opt/hitting_set.h"
#include "sag/sim/scenario_gen.h"
#include "sag/exec/thread_pool.h"

namespace sag::obs {
namespace {

TEST(ObsTest, NoRecorderInstalledIsInertAndSafe) {
    ASSERT_EQ(Recorder::current(), nullptr);
    EXPECT_FALSE(enabled());
    // Macros must be callable with no sink installed.
    SAG_OBS_COUNT("obs_test.orphan");
    SAG_OBS_GAUGE("obs_test.orphan_gauge", 1.0);
    { SAG_OBS_SPAN("obs_test.orphan_span"); }
    EXPECT_EQ(Recorder::current(), nullptr);
}

TEST(ObsTest, ScopedRecorderInstallsAndUninstalls) {
    {
        ScopedRecorder rec;
        EXPECT_TRUE(enabled());
        EXPECT_EQ(Recorder::current(), &rec.recorder());
    }
    EXPECT_FALSE(enabled());
}

TEST(ObsTest, CountersAccumulateAndGaugesLastWriteWins) {
    ScopedRecorder rec;
    SAG_OBS_COUNT("obs_test.hits");
    SAG_OBS_COUNT_ADD("obs_test.hits", 4);
    SAG_OBS_COUNT("obs_test.other");
    SAG_OBS_GAUGE("obs_test.level", 1.5);
    SAG_OBS_GAUGE("obs_test.level", 2.5);

    const RunReport report = rec.snapshot();
    EXPECT_EQ(report.counters.at("obs_test.hits"), 5u);
    EXPECT_EQ(report.counters.at("obs_test.other"), 1u);
    EXPECT_DOUBLE_EQ(report.gauges.at("obs_test.level"), 2.5);
}

TEST(ObsTest, SpansNestIntoATree) {
    ScopedRecorder rec;
    {
        SAG_OBS_SPAN("outer");
        {
            SAG_OBS_SPAN("inner_a");
            SAG_OBS_COUNT("obs_test.in_a");
        }
        { SAG_OBS_SPAN("inner_b"); }
    }
    const RunReport report = rec.snapshot();
    ASSERT_EQ(report.trace.size(), 1u);
    const TraceNode& outer = report.trace[0];
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(outer.count, 1u);
    ASSERT_EQ(outer.children.size(), 2u);
    // Children keep first-recorded order.
    EXPECT_EQ(outer.children[0].name, "inner_a");
    EXPECT_EQ(outer.children[1].name, "inner_b");
    EXPECT_GE(outer.seconds, outer.children[0].seconds);
}

TEST(ObsTest, SameNameSiblingSpansAggregate) {
    ScopedRecorder rec;
    {
        SAG_OBS_SPAN("loop");
        for (int i = 0; i < 3; ++i) {
            SAG_OBS_SPAN("iteration");
            { SAG_OBS_SPAN("body"); }
        }
    }
    const RunReport report = rec.snapshot();
    ASSERT_EQ(report.trace.size(), 1u);
    ASSERT_EQ(report.trace[0].children.size(), 1u);
    const TraceNode& iter = report.trace[0].children[0];
    EXPECT_EQ(iter.name, "iteration");
    EXPECT_EQ(iter.count, 3u);
    ASSERT_EQ(iter.children.size(), 1u);
    EXPECT_EQ(iter.children[0].count, 3u);
}

TEST(ObsTest, OpenSpansAreExcludedFromSnapshot) {
    ScopedRecorder rec;
    { SAG_OBS_SPAN("closed"); }
    Span open("still_open");
    // The snapshot contract: only spans closed by snapshot time appear.
    // An open span — and anything recorded beneath it — is excluded.
    const RunReport report = rec.snapshot();
    ASSERT_EQ(report.trace.size(), 1u);
    EXPECT_EQ(report.trace[0].name, "closed");
}

TEST(ObsTest, CountersMergeAcrossThreadPoolWorkers) {
    ScopedRecorder rec;
    exec::ThreadPool pool(4);
    constexpr std::size_t kTasks = 64;
    exec::parallel_for_index(pool, kTasks, [](std::size_t i) {
        SAG_OBS_COUNT("obs_test.worker_hits");
        SAG_OBS_COUNT_ADD("obs_test.worker_sum", i);
        SAG_OBS_SPAN("worker_task");
    });
    const RunReport report = rec.snapshot();
    EXPECT_EQ(report.counters.at("obs_test.worker_hits"), kTasks);
    EXPECT_EQ(report.counters.at("obs_test.worker_sum"),
              kTasks * (kTasks - 1) / 2);
    // Worker root spans with the same name merge into one node whose
    // count is the total number of instances across all threads.
    ASSERT_EQ(report.trace.size(), 1u);
    EXPECT_EQ(report.trace[0].name, "worker_task");
    EXPECT_EQ(report.trace[0].count, kTasks);
}

TEST(ObsTest, ConcurrentCountingIsLossFree) {
    ScopedRecorder rec;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([] {
            for (int i = 0; i < kPerThread; ++i) SAG_OBS_COUNT("obs_test.race");
        });
    }
    for (std::thread& t : threads) t.join();
    const RunReport report = rec.snapshot();
    EXPECT_EQ(report.counters.at("obs_test.race"),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(ObsTest, FreshRecorderDoesNotInheritStaleThreadState) {
    {
        ScopedRecorder first;
        SAG_OBS_COUNT("obs_test.stale");
    }
    ScopedRecorder second;
    SAG_OBS_COUNT("obs_test.fresh");
    const RunReport report = second.snapshot();
    EXPECT_EQ(report.counters.count("obs_test.stale"), 0u);
    EXPECT_EQ(report.counters.at("obs_test.fresh"), 1u);
}

// --- integration: the names the wired solvers actually emit ---

core::Scenario small_scenario() {
    sim::GeneratorConfig cfg;
    cfg.field_side = 400.0;
    cfg.subscriber_count = 30;
    cfg.base_station_count = 2;
    cfg.snr_threshold_db = units::Decibel{-15.0};
    return sim::generate_scenario(cfg, 11);
}

TEST(ObsIntegrationTest, SolveSagEmitsPipelinePhaseSpans) {
    ScopedRecorder rec;
    const auto result = core::solve_sag(small_scenario());
    ASSERT_TRUE(result.feasible);
    const RunReport report = rec.snapshot();

    ASSERT_EQ(report.trace.size(), 1u);
    EXPECT_EQ(report.trace[0].name, "sag.solve");
    std::vector<std::string> phases;
    for (const TraceNode& c : report.trace[0].children) phases.push_back(c.name);
    EXPECT_EQ(phases, (std::vector<std::string>{"sag.coverage", "sag.pipeline"}));

    EXPECT_GE(report.counters.at("samc.zones"), 1u);
    EXPECT_GT(report.counters.at("snr_field.deltas.applied"), 0u);
    EXPECT_GT(report.counters.at("pro.drop_probes"), 0u);
    EXPECT_GT(report.gauges.at("sag.total_power"), 0.0);
}

TEST(ObsIntegrationTest, HittingSetCountsMembershipEntries) {
    // Candidates: the two centers, each inside its own disk only, and the
    // two boundary intersections (3, +-4), each inside both disks.
    const geom::Circle disks[] = {{{0.0, 0.0}, 5.0}, {{6.0, 0.0}, 5.0}};
    ScopedRecorder rec;
    EXPECT_EQ(opt::geometric_hitting_set(disks).size(), 1u);
    const RunReport report = rec.snapshot();
    EXPECT_EQ(report.counters.at("opt.hitting_set.candidates"), 4u);
    EXPECT_EQ(report.counters.at("opt.hitting_set.membership_entries"), 6u);
}

TEST(ObsIntegrationTest, TransactionRollbackCountsRevertedDeltas) {
    const auto scenario = small_scenario();
    const std::vector<geom::Vec2> rs = {{0.0, 0.0}, {50.0, 50.0}};
    ScopedRecorder rec;
    core::SnrField field = core::SnrField::at_max_power(scenario, rs);
    {
        core::SnrField::Transaction tx(field);
        field.move_rs(ids::RsId{0}, {10.0, 10.0});
        field.set_power(ids::RsId{1}, units::Watt{1.0});
        // tx rolls back: two reverting deltas replay.
    }
    const RunReport report = rec.snapshot();
    EXPECT_EQ(report.counters.at("snr_field.deltas.applied"), 2u);
    EXPECT_EQ(report.counters.at("snr_field.deltas.reverted"), 2u);
}

}  // namespace
}  // namespace sag::obs
