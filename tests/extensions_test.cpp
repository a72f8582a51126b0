// Tests for the optional extensions: PRO selection ablation mode and
// aggregation-aware UCPO.
#include <gtest/gtest.h>

#include "sag/core/power.h"
#include "sag/core/samc.h"
#include "sag/core/ucra.h"
#include "sag/ids/ids.h"
#include "sag/sim/scenario_gen.h"
#include "sag/wireless/link.h"

namespace sag {
namespace {

class ProSelectionTest : public ::testing::TestWithParam<int> {};

TEST_P(ProSelectionTest, MinDeltaNeverWorseThanFirstIndex) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 25;
    const auto s = sim::generate_scenario(cfg, GetParam());
    const auto plan = core::solve_samc(s).plan;
    ASSERT_TRUE(plan.feasible);

    core::ProOptions min_delta;  // default
    core::ProOptions naive;
    naive.selection = core::ProOptions::Selection::FirstIndex;
    const auto a = core::allocate_power_pro(s, plan, min_delta);
    const auto b = core::allocate_power_pro(s, plan, naive);
    ASSERT_TRUE(a.feasible);
    ASSERT_TRUE(b.feasible);
    // Both are valid allocations; the paper's rule should not lose.
    // (They often tie when no RS ever gets stuck.)
    EXPECT_LE(a.total, b.total + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProSelectionTest, ::testing::Values(3, 7, 11, 15));

TEST(AggregatedUcpoTest, NeverBelowPaperUcpo) {
    for (const int seed : {2, 6, 10}) {
        sim::GeneratorConfig cfg;
        cfg.field_side = 800.0;
        cfg.subscriber_count = 30;
        cfg.base_station_count = 4;
        const auto s = sim::generate_scenario(cfg, seed);
        const auto cov = core::solve_samc(s).plan;
        ASSERT_TRUE(cov.feasible);
        auto paper = core::solve_mbmc(s, cov);
        auto aggregated = paper;
        core::allocate_power_ucpo(s, cov, paper);
        core::allocate_power_ucpo_aggregated(s, cov, aggregated);
        EXPECT_GE(aggregated.upper_tier_power(), paper.upper_tier_power() - 1e-9)
            << "seed " << seed;
        // Still bounded by the all-Pmax baseline.
        auto baseline = paper;
        core::allocate_power_max(s, baseline);
        EXPECT_LE(aggregated.upper_tier_power(), baseline.upper_tier_power() + 1e-9);
    }
}

TEST(AggregatedUcpoTest, SingleLeafChainMatchesPaperUcpoWhenOneSubscriber) {
    // With one subscriber there is nothing to aggregate: both UCPO
    // variants must assign the same chain power.
    core::Scenario s;
    s.field = geom::Rect::centered_square(500.0);
    s.subscribers = {{{200.0, 0.0}, 40.0}};
    s.base_stations = {{{-200.0, 0.0}}};
    core::CoveragePlan cov;
    cov.rs_positions = {{200.0, 0.0}};
    cov.assignment = {ids::RsId{0}};
    cov.feasible = true;
    auto paper = core::solve_mbmc(s, cov);
    auto aggregated = paper;
    core::allocate_power_ucpo(s, cov, paper);
    core::allocate_power_ucpo_aggregated(s, cov, aggregated);
    ASSERT_GT(paper.connectivity_rs_count(), 0u);
    for (std::size_t v = 0; v < paper.node_count(); ++v) {
        EXPECT_NEAR(aggregated.powers[v], paper.powers[v], 1e-9) << "node " << v;
    }
}

TEST(AggregatedUcpoTest, SharedTrunkCarriesBothSubtreeRates) {
    // Two coverage RSs in a line behind one another: the trunk edge
    // (near RS -> BS) carries both subscribers' traffic, so aggregation
    // must raise its chain power above the paper allocation.
    core::Scenario s;
    s.field = geom::Rect::centered_square(900.0);
    s.subscribers = {{{50.0, 0.0}, 40.0}, {{350.0, 0.0}, 40.0}};
    s.base_stations = {{{-250.0, 0.0}}};
    core::CoveragePlan cov;
    cov.rs_positions = {{50.0, 0.0}, {350.0, 0.0}};
    cov.assignment = {ids::RsId{0}, ids::RsId{1}};
    cov.feasible = true;
    auto paper = core::solve_mbmc(s, cov);
    auto aggregated = paper;
    core::allocate_power_ucpo(s, cov, paper);
    core::allocate_power_ucpo_aggregated(s, cov, aggregated);
    // Find a connectivity node on the trunk (between node for cov RS 0
    // and the BS) and compare.
    const std::size_t trunk_child = s.base_stations.size() + 0;
    std::size_t cur = paper.parent[trunk_child];
    ASSERT_EQ(paper.kinds[cur], core::NodeKind::ConnectivityRs);
    EXPECT_GT(aggregated.powers[cur], paper.powers[cur] * (1.0 + 1e-9));
}

}  // namespace
}  // namespace sag
