// Tests for the optional extensions: PRO selection ablation mode and
// aggregation-aware UCPO.
#include <cstddef>
#include <stdexcept>
#include <vector>

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

/// A hand-built upper tier: base stations, then one coverage RS per entry
/// of `cov_parent` (a coverage RS index, or the RS count plus b for BS b),
/// each hung from its parent by a one-relay chain through the edge's
/// midpoint.
core::ConnectivityPlan relay_forest(const core::Scenario& s, const core::CoveragePlan& cov,
                                    const std::vector<std::size_t>& cov_parent) {
    const std::size_t bs_count = s.base_stations.size();
    core::ConnectivityPlan plan;
    for (const core::BaseStation& b : s.base_stations) {
        plan.positions.push_back(b.pos);
        plan.kinds.push_back(core::NodeKind::BaseStation);
    }
    for (const geom::Vec2& p : cov.rs_positions) {
        plan.positions.push_back(p);
        plan.kinds.push_back(core::NodeKind::CoverageRs);
    }
    plan.parent.resize(plan.positions.size());
    for (std::size_t b = 0; b < bs_count; ++b) plan.parent[b] = b;
    plan.powers.assign(plan.positions.size(), 0.0);
    for (std::size_t i = 0; i < cov_parent.size(); ++i) {
        const std::size_t c = cov_parent.size();
        const std::size_t top = cov_parent[i] < c ? bs_count + cov_parent[i] : cov_parent[i] - c;
        const std::size_t node = bs_count + i;
        plan.positions.push_back((plan.positions[node] + plan.positions[top]) / 2.0);
        plan.kinds.push_back(core::NodeKind::ConnectivityRs);
        plan.parent.push_back(top);
        plan.powers.push_back(0.0);
        plan.parent[node] = plan.positions.size() - 1;
    }
    plan.feasible = true;
    return plan;
}

TEST(AggregatedUcpoTest, CoverageRsCycleThrows) {
    // Coverage RS 0's chain tops out at RS 1 and RS 1's at RS 0: the
    // coverage-RS tree has no root, so there is no order to fold in.
    core::Scenario s;
    s.field = geom::Rect::centered_square(500.0);
    s.subscribers = {{{0.0, 100.0}, 40.0}, {{0.0, 200.0}, 40.0}};
    s.base_stations = {{{0.0, 0.0}}};
    core::CoveragePlan cov;
    cov.rs_positions = {{0.0, 100.0}, {0.0, 200.0}};
    cov.assignment = {ids::RsId{0}, ids::RsId{1}};
    cov.feasible = true;
    core::ConnectivityPlan plan = relay_forest(s, cov, {1, 0});
    EXPECT_THROW(core::allocate_power_ucpo_aggregated(s, cov, plan), std::invalid_argument);
}

TEST(AggregatedUcpoTest, ForestFoldsChildrenBeforeParentsInOneOrder) {
    // Two coverage-RS trees, three levels each, with siblings; indices do
    // not follow depth. Roots 1 and 6 hang from BSs 1 and 0:
    //   6 -> {0, 4, 7}, 0 -> {2, 5};   1 -> {8}, 8 -> {3}.
    // Every chain power must equal, bit for bit, the documented fold: own
    // rates summed in SS order, then each RS's subtree rate added into its
    // parent's along the reverse of (roots ascending, then breadth-first
    // with children ascending).
    constexpr std::size_t kCov = 9;
    const std::vector<std::size_t> cov_parent = {6, kCov + 1, 0, 8, 6, 0, kCov + 0, 6, 1};
    core::Scenario s;
    s.field = geom::Rect::centered_square(1000.0);
    s.base_stations = {{{-300.0, 0.0}}, {{300.0, 0.0}}};
    core::CoveragePlan cov;
    for (std::size_t i = 0; i < kCov; ++i) {
        const double x = -250.0 + 60.0 * static_cast<double>(i);
        cov.rs_positions.push_back({x, 40.0 * static_cast<double>(i % 3)});
    }
    // Two or three SSs per RS with distinct requests, so every rate and
    // every partial sum differs in its low bits. Requests of 3-10 km keep
    // each rate low enough that no chain clamps at P_max.
    for (std::size_t k = 0; k < 2 * kCov + 4; ++k) {
        const std::size_t i = (5 * k) % kCov;
        const double request = 3000.0 + 337.0 * static_cast<double>(k);
        s.subscribers.push_back({cov.rs_positions[i] + geom::Vec2{0.0, 1.0}, request});
        cov.assignment.push_back(ids::RsId{i});
    }
    cov.feasible = true;
    core::ConnectivityPlan plan = relay_forest(s, cov, cov_parent);
    core::allocate_power_ucpo_aggregated(s, cov, plan);

    std::vector<double> rate(kCov, 0.0);
    for (const ids::SsId j : s.ss_ids()) {
        rate[cov.assignment[j].index()] +=
            wireless::shannon_capacity(s.radio, s.min_rx_power(j));
    }
    const std::vector<std::size_t> parents_first = {1, 6, 8, 0, 4, 7, 3, 2, 5};
    for (auto it = parents_first.rbegin(); it != parents_first.rend(); ++it) {
        if (cov_parent[*it] < kCov) rate[cov_parent[*it]] += rate[*it];
    }
    const std::size_t bs_count = s.base_stations.size();
    for (std::size_t i = 0; i < kCov; ++i) {
        const std::size_t relay = plan.parent[bs_count + i];
        const std::size_t top = plan.parent[relay];
        const double section =
            geom::distance(plan.positions[bs_count + i], plan.positions[top]) / 2.0;
        const units::Watt expected = s.tx_power_for(
            wireless::min_rx_power_for_rate(s.radio, rate[i]), units::Meters{section});
        ASSERT_LT(expected, s.rs_max_power()) << "RS " << i << " clamps";
        EXPECT_EQ(plan.powers[relay], expected.watts()) << "RS " << i;
    }
}

}  // namespace
}  // namespace sag
