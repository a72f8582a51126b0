// Failure injection: corrupt solver outputs in every structural way we
// could think of and confirm the independent verifiers flag them instead
// of crashing or silently passing. The verifiers are the last line of
// defense for every benchmark number in EXPERIMENTS.md, so they must be
// unconditionally robust.
#include <gtest/gtest.h>

#include "sag/core/feasibility.h"
#include "sag/core/sag.h"
#include "sag/core/ucra.h"
#include "sag/ids/ids.h"
#include "sag/sim/scenario_gen.h"

namespace sag::core {
namespace {

struct Fixture {
    Scenario scenario;
    SagResult result;

    Fixture() {
        sim::GeneratorConfig cfg;
        cfg.field_side = 500.0;
        cfg.subscriber_count = 12;
        cfg.base_station_count = 2;
        scenario = sim::generate_scenario(cfg, 55);
        result = solve_sag(scenario);
    }
};

TEST(FailureInjectionCoverage, PristinePlanPasses) {
    const Fixture f;
    ASSERT_TRUE(f.result.feasible);
    EXPECT_TRUE(verify_coverage(f.scenario, f.result.coverage,
                                f.result.lower_power.powers)
                    .feasible);
}

TEST(FailureInjectionCoverage, OutOfRangeAssignmentFlagged) {
    const Fixture f;
    auto plan = f.result.coverage;
    plan.assignment[ids::SsId{3}] = ids::RsId{plan.rs_count() + 7};  // dangling index
    const auto report =
        verify_coverage(f.scenario, plan, f.result.lower_power.powers);
    EXPECT_FALSE(report.feasible);
}

TEST(FailureInjectionCoverage, TruncatedPowerVectorFlagged) {
    const Fixture f;
    auto powers = f.result.lower_power.powers;
    powers.pop_back();
    EXPECT_FALSE(verify_coverage(f.scenario, f.result.coverage, powers).feasible);
}

TEST(FailureInjectionCoverage, ZeroedPowerFailsRate) {
    const Fixture f;
    auto powers = f.result.lower_power.powers;
    powers[f.result.coverage.assignment[ids::SsId{0}].index()] = 0.0;
    const auto report = verify_coverage(f.scenario, f.result.coverage, powers);
    EXPECT_FALSE(report.feasible);
    EXPECT_FALSE(report.subscribers[ids::SsId{0}].rate_ok);
}

TEST(FailureInjectionCoverage, TeleportedRsFailsDistance) {
    const Fixture f;
    auto plan = f.result.coverage;
    plan.rs_positions[plan.assignment[ids::SsId{0}].index()] = {10'000.0, 10'000.0};
    const auto report =
        verify_coverage(f.scenario, plan, f.result.lower_power.powers);
    EXPECT_FALSE(report.feasible);
    EXPECT_FALSE(report.subscribers[ids::SsId{0}].distance_ok);
}

TEST(FailureInjectionConnectivity, PristineTreePasses) {
    const Fixture f;
    EXPECT_TRUE(
        verify_connectivity(f.scenario, f.result.coverage, f.result.connectivity)
            .feasible);
}

TEST(FailureInjectionConnectivity, ParentCycleFlaggedNotHung) {
    const Fixture f;
    auto plan = f.result.connectivity;
    // Find two connectivity RSs and make them each other's parent.
    std::vector<std::size_t> conn;
    for (std::size_t v = 0; v < plan.node_count(); ++v) {
        if (plan.kinds[v] == NodeKind::ConnectivityRs) conn.push_back(v);
    }
    if (conn.size() < 2) GTEST_SKIP() << "tree too small to corrupt";
    plan.parent[conn[0]] = conn[1];
    plan.parent[conn[1]] = conn[0];
    const auto report = verify_connectivity(f.scenario, f.result.coverage, plan);
    EXPECT_FALSE(report.feasible);
    EXPECT_FALSE(report.all_rooted);
}

TEST(FailureInjectionConnectivity, OutOfRangeParentFlagged) {
    const Fixture f;
    auto plan = f.result.connectivity;
    plan.parent.back() = plan.node_count() + 5;
    const auto report = verify_connectivity(f.scenario, f.result.coverage, plan);
    EXPECT_FALSE(report.feasible);
    EXPECT_NE(report.detail.find("malformed"), std::string::npos);
}

TEST(FailureInjectionConnectivity, DanglingAssignmentIgnoredNotFaulted) {
    const Fixture f;
    auto coverage = f.result.coverage;
    coverage.assignment[ids::SsId{3}] = ids::RsId{coverage.rs_count() + 7};
    // The hop bounds come from the RSs' served lists; an SS naming no RS
    // constrains no hop (verify_coverage is what flags it).
    EXPECT_TRUE(
        verify_connectivity(f.scenario, coverage, f.result.connectivity).feasible);
    coverage.assignment[ids::SsId{3}] = ids::RsId::invalid();
    EXPECT_TRUE(
        verify_connectivity(f.scenario, coverage, f.result.connectivity).feasible);
}

TEST(FailureInjectionConnectivity, SizeMismatchFlagged) {
    const Fixture f;
    auto plan = f.result.connectivity;
    plan.powers.pop_back();
    EXPECT_FALSE(
        verify_connectivity(f.scenario, f.result.coverage, plan).feasible);
    plan = f.result.connectivity;
    plan.kinds.pop_back();
    EXPECT_FALSE(
        verify_connectivity(f.scenario, f.result.coverage, plan).feasible);
}

TEST(FailureInjectionConnectivity, WrongLayoutConventionFlagged) {
    const Fixture f;
    auto plan = f.result.connectivity;
    // Swap a BS slot with a coverage slot: layout convention broken.
    std::swap(plan.kinds[0], plan.kinds[f.scenario.base_stations.size()]);
    EXPECT_FALSE(
        verify_connectivity(f.scenario, f.result.coverage, plan).feasible);
}

TEST(FailureInjectionConnectivity, StretchedHopFlagged) {
    const Fixture f;
    auto plan = f.result.connectivity;
    // Teleport one connectivity RS far away: its own hop (and its
    // child's) become too long.
    for (std::size_t v = 0; v < plan.node_count(); ++v) {
        if (plan.kinds[v] == NodeKind::ConnectivityRs) {
            plan.positions[v] = {9'000.0, 9'000.0};
            break;
        }
    }
    const auto report = verify_connectivity(f.scenario, f.result.coverage, plan);
    EXPECT_FALSE(report.feasible);
    EXPECT_FALSE(report.hops_ok);
}

TEST(FailureInjectionConnectivity, DetachedCoverageRsFlagged) {
    const Fixture f;
    auto plan = f.result.connectivity;
    const std::size_t cov_node = f.scenario.base_stations.size();
    plan.parent[cov_node] = cov_node;  // now roots at a non-BS
    const auto report = verify_connectivity(f.scenario, f.result.coverage, plan);
    EXPECT_FALSE(report.feasible);
    EXPECT_FALSE(report.all_rooted);
}

}  // namespace
}  // namespace sag::core
