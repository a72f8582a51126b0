#include <gtest/gtest.h>

#include "sag/core/candidates.h"
#include "sag/core/feasibility.h"
#include "sag/core/ilpqc.h"
#include "sag/core/sag.h"
#include "sag/core/ucra.h"
#include "sag/sim/paper_presets.h"
#include "sag/sim/scenario_gen.h"

namespace sag::core {
namespace {

TEST(SagPipelineTest, EndToEndVerifies) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 20;
    cfg.base_station_count = 4;
    const Scenario s = sim::generate_scenario(cfg, 7);
    const auto result = solve_sag(s);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(verify_coverage(s, result.coverage, result.lower_power.powers).feasible);
    EXPECT_TRUE(verify_connectivity(s, result.coverage, result.connectivity).feasible);
    EXPECT_NEAR(result.total_power(),
                result.lower_tier_power() + result.upper_tier_power(), 1e-9);
}

TEST(SagPipelineTest, GreenBeatsBaselineOnPower) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 25;
    cfg.base_station_count = 4;
    const Scenario s = sim::generate_scenario(cfg, 11);
    const auto sag = solve_sag(s);
    ASSERT_TRUE(sag.feasible);
    const auto darp = solve_darp_baseline(s, sag.coverage, ids::BsId{0});
    ASSERT_TRUE(darp.feasible);
    EXPECT_LT(sag.total_power(), darp.total_power());
}

TEST(SagPipelineTest, DarpUsesMaxPowerEverywhere) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 15;
    const Scenario s = sim::generate_scenario(cfg, 19);
    const auto cov = solve_samc(s).plan;
    ASSERT_TRUE(cov.feasible);
    const auto darp = solve_darp_baseline(s, cov, ids::BsId{0});
    EXPECT_NEAR(darp.lower_tier_power(),
                static_cast<double>(cov.rs_count()) * s.radio.max_power.watts(), 1e-9);
    EXPECT_NEAR(darp.upper_tier_power(),
                static_cast<double>(darp.connectivity_rs_count()) * s.radio.max_power.watts(),
                1e-9);
}

// On the paper's two-ray channel every power solve_sag returns stays at
// or below the relay cap, at every threshold of the field presets. Off
// that channel the cap is not enforced yet (ROADMAP: "relay caps are not
// enforced off the paper channel"); this pins the paper model meanwhile.
TEST(SagPipelineTest, TwoRayPowersStayWithinRelayCap) {
    using Preset = sim::GeneratorConfig (*)(std::size_t);
    std::size_t feasible = 0;
    for (const Preset preset :
         {&sim::presets::field300, &sim::presets::field500, &sim::presets::field800}) {
        for (const double snr_db : {-10.0, -15.0, -20.0, -25.0}) {
            for (const std::size_t users : {std::size_t{15}, std::size_t{30}, std::size_t{60}}) {
                for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
                    sim::GeneratorConfig cfg = preset(users);
                    cfg.snr_threshold_db = units::Decibel{snr_db};
                    const Scenario s = sim::generate_scenario(cfg, seed);
                    const SagResult r = solve_sag(s);
                    const double cap = s.rs_max_power().watts() * (1.0 + 1e-9);
                    for (const double p : r.lower_power.powers) {
                        EXPECT_LE(p, cap) << cfg.field_side << " m, " << snr_db
                                          << " dB, " << users << " SSs, seed " << seed;
                    }
                    for (const double p : r.connectivity.powers) {
                        EXPECT_LE(p, cap) << cfg.field_side << " m, " << snr_db
                                          << " dB, " << users << " SSs, seed " << seed;
                    }
                    if (r.feasible) ++feasible;
                }
            }
        }
    }
    // Most cells solve (all above -10 dB), so the cap is checked on real
    // deployments.
    EXPECT_GE(feasible, 108u);
}

TEST(SagPipelineTest, InfeasibleCoveragePropagates) {
    Scenario s;
    s.field = geom::Rect::centered_square(300.0);
    s.subscribers = {{{-45.0, 0.0}, 35.0}, {{45.0, 0.0}, 35.0}};
    s.base_stations = {{{0.0, 100.0}}};
    s.snr_threshold_db = units::Decibel{60.0};  // impossible
    const auto result = solve_sag(s);
    EXPECT_FALSE(result.feasible);
    EXPECT_FALSE(result.coverage.feasible);
}

TEST(SagPipelineTest, GreenPipelineOnIlpqcPlan) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 400.0;
    cfg.subscriber_count = 12;
    cfg.base_station_count = 2;
    const Scenario s = sim::generate_scenario(cfg, 23);
    const auto cov = solve_ilpqc_coverage(s, iac_candidates(s));
    ASSERT_TRUE(cov.feasible);
    const auto result = green_pipeline(s, cov);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(verify_coverage(s, result.coverage, result.lower_power.powers).feasible);
    EXPECT_TRUE(verify_connectivity(s, result.coverage, result.connectivity).feasible);
}

TEST(SagPipelineTest, CountsAreConsistent) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 800.0;
    cfg.subscriber_count = 30;
    cfg.base_station_count = 4;
    const Scenario s = sim::generate_scenario(cfg, 31);
    const auto result = solve_sag(s);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.coverage_rs_count(), result.coverage.rs_count());
    EXPECT_EQ(result.connectivity.count(NodeKind::BaseStation),
              s.base_stations.size());
    EXPECT_EQ(result.connectivity.count(NodeKind::CoverageRs),
              result.coverage.rs_count());
    EXPECT_EQ(result.connectivity.node_count(),
              s.base_stations.size() + result.coverage.rs_count() +
                  result.connectivity_rs_count());
}

// --- Degenerate scenarios: the solver must stay well-defined (trivially
// feasible or explicitly infeasible, never a crash) even on inputs that
// Scenario::validate would reject, because callers like the resilience
// repair engine build reduced scenarios programmatically.

TEST(SagDegenerateTest, ZeroSubscribersSolvesTrivially) {
    Scenario s;
    s.field = geom::Rect::centered_square(300.0);
    s.base_stations = {{{0.0, 0.0}}};
    s.validate();  // zero subscribers is a legal scenario
    const auto result = solve_sag(s);
    EXPECT_TRUE(result.feasible);
    EXPECT_EQ(result.coverage_rs_count(), 0u);
    EXPECT_EQ(result.connectivity_rs_count(), 0u);
    EXPECT_NEAR(result.total_power(), 0.0, 1e-12);
    EXPECT_TRUE(verify_coverage(s, result.coverage, result.lower_power.powers).feasible);
    EXPECT_TRUE(verify_connectivity(s, result.coverage, result.connectivity).feasible);
}

TEST(SagDegenerateTest, ZeroBaseStationsReportsInfeasible) {
    // validate() rejects a BS-less scenario, but the solver itself must
    // still terminate with an explicit infeasible plan: there is no root
    // to hang the backhaul tree from.
    Scenario s;
    s.field = geom::Rect::centered_square(300.0);
    s.subscribers = {{{-40.0, 0.0}, 35.0}, {{40.0, 0.0}, 35.0}};
    const auto result = solve_sag(s);
    EXPECT_FALSE(result.feasible);
    EXPECT_FALSE(result.connectivity.feasible);
}

TEST(SagDegenerateTest, ZeroCandidatesReportsInfeasible) {
    Scenario s;
    s.field = geom::Rect::centered_square(300.0);
    s.subscribers = {{{-40.0, 0.0}, 35.0}};
    s.base_stations = {{{0.0, 100.0}}};
    const auto cov = solve_ilpqc_coverage(s, {});
    EXPECT_FALSE(cov.feasible);
    EXPECT_EQ(cov.rs_count(), 0u);
    const auto result = green_pipeline(s, cov);
    EXPECT_FALSE(result.feasible);
}

TEST(SagDegenerateTest, ZeroSubscribersYieldNoCandidates) {
    Scenario s;
    s.field = geom::Rect::centered_square(300.0);
    s.base_stations = {{{0.0, 0.0}}};
    EXPECT_TRUE(iac_candidates(s).empty());
}

/// Integration sweep across fields, sizes and seeds: the full pipeline
/// must stay feasible and verifiable, and green must never cost more than
/// the max-power baseline.
class SagSweep
    : public ::testing::TestWithParam<std::tuple<double, std::size_t, int>> {};

TEST_P(SagSweep, FeasibleVerifiableAndGreen) {
    const auto [side, n, seed] = GetParam();
    sim::GeneratorConfig cfg;
    cfg.field_side = side;
    cfg.subscriber_count = n;
    cfg.base_station_count = 4;
    const Scenario s = sim::generate_scenario(cfg, seed);
    const auto result = solve_sag(s);
    ASSERT_TRUE(result.feasible);
    EXPECT_TRUE(verify_coverage(s, result.coverage, result.lower_power.powers).feasible);
    EXPECT_TRUE(verify_connectivity(s, result.coverage, result.connectivity).feasible);
    const double baseline =
        static_cast<double>(result.coverage_rs_count() +
                            result.connectivity_rs_count()) *
        s.radio.max_power.watts();
    EXPECT_LE(result.total_power(), baseline + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SagSweep,
    ::testing::Combine(::testing::Values(300.0, 500.0, 800.0),
                       ::testing::Values(std::size_t{8}, std::size_t{20}),
                       ::testing::Values(1, 2)));

}  // namespace
}  // namespace sag::core
