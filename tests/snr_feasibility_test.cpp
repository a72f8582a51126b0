#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "oracles/snr.h"
#include "sag/core/feasibility.h"
#include "sag/ids/ids.h"
#include "sag/core/snr.h"
#include "sag/core/snr_field.h"
#include "sag/sim/scenario_gen.h"
#include "sag/units/units.h"

namespace sag::core {
namespace {

using ids::RsId;
using ids::SsId;

/// snr_of for every tracked subscriber of a fresh field, served per
/// `assignment` (tracked-local).
std::vector<double> fresh_snrs(const SnrField& field,
                               const ids::IdVec<SsId, RsId>& assignment) {
    std::vector<double> snrs;
    for (const SsId k : field.tracked_ids()) snrs.push_back(field.snr_of(k, assignment[k]));
    return snrs;
}

Scenario two_sub_scenario() {
    Scenario s;
    s.field = geom::Rect::centered_square(500.0);
    s.subscribers = {{{-50.0, 0.0}, 35.0}, {{50.0, 0.0}, 35.0}};
    s.base_stations = {{{0.0, 200.0}}};
    s.snr_threshold_db = units::Decibel{-15.0};
    // These tests verify the pure interference-limited Definition 2 math;
    // ambient-noise behaviour is covered by the AmbientNoise tests below.
    s.radio.snr_ambient_noise = units::Watt{0.0};
    return s;
}

TEST(SnrTest, SingleRsInfiniteSnr) {
    const Scenario s = two_sub_scenario();
    const geom::Vec2 rs[] = {{-50.0, 0.0}};
    const double powers[] = {50.0};
    const SsId subs[] = {SsId{0}};
    const ids::IdVec<SsId, RsId> assignment{RsId{0}};
    const auto snrs = fresh_snrs(SnrField(s, rs, powers, subs), assignment);
    EXPECT_TRUE(std::isinf(snrs[0]));
}

TEST(SnrTest, TwoRsMatchHandComputedRatio) {
    const Scenario s = two_sub_scenario();
    const geom::Vec2 rs[] = {{-50.0, 0.0}, {50.0, 0.0}};
    const double powers[] = {50.0, 50.0};
    const ids::IdVec<SsId, RsId> assignment{RsId{0}, RsId{1}};
    const auto snrs = fresh_snrs(SnrField(s, rs, powers), assignment);
    // Subscriber 0: signal from RS0 at clamped distance 1, interference
    // from RS1 at distance 100.
    const units::Watt signal = s.received_power(units::Watt{50.0}, units::Meters{1.0});
    const units::Watt interference =
        s.received_power(units::Watt{50.0}, units::Meters{100.0});
    const double expected = (signal / interference).ratio();
    EXPECT_NEAR(snrs[0], expected, 1e-9 * expected);
    EXPECT_NEAR(snrs[0], snrs[1], 1e-9 * expected);  // symmetric layout
}

TEST(SnrTest, ZeroPowerServerReportsZeroSnrNotInfinity) {
    // Regression: with the serving RS powered down and no other
    // interferers (and zero ambient noise) the old code divided 0 by 0
    // and reported infinite SNR for a subscriber receiving nothing.
    const Scenario s = two_sub_scenario();
    const geom::Vec2 rs[] = {{-50.0, 0.0}};
    const double powers[] = {0.0};
    const SsId subs[] = {SsId{0}};
    const ids::IdVec<SsId, RsId> assignment{RsId{0}};
    const auto snrs = fresh_snrs(SnrField(s, rs, powers, subs), assignment);
    EXPECT_FALSE(std::isinf(snrs[0]));
    EXPECT_EQ(snrs[0], 0.0);
}

TEST(SnrTest, ZeroPowerServerAmongActiveInterferersScoresZero) {
    const Scenario s = two_sub_scenario();
    const geom::Vec2 rs[] = {{-50.0, 0.0}, {50.0, 0.0}};
    const double powers[] = {0.0, 50.0};
    const ids::IdVec<SsId, RsId> assignment{RsId{0}, RsId{1}};
    const auto snrs = fresh_snrs(SnrField(s, rs, powers), assignment);
    EXPECT_EQ(snrs[0], 0.0);       // silent server, live interferer
    EXPECT_TRUE(std::isinf(snrs[1]));  // live server, silent interferer
}

TEST(SnrTest, NearestAssignmentPicksClosestInRange) {
    const Scenario s = two_sub_scenario();
    const geom::Vec2 rs[] = {{-60.0, 0.0}, {40.0, 0.0}};
    const auto a = nearest_assignment(s, rs);
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ((*a)[SsId{0}], RsId{0});  // 10 away vs 90 away
    EXPECT_EQ((*a)[SsId{1}], RsId{1});
}

TEST(SnrTest, NearestAssignmentRespectsDistanceRequest) {
    const Scenario s = two_sub_scenario();
    // RS near sub 0 but 90 away from sub 1 (> 35): sub 1 uncoverable.
    const geom::Vec2 rs[] = {{-40.0, 0.0}};
    EXPECT_FALSE(nearest_assignment(s, rs).has_value());
}

TEST(SnrTest, FeasibleAtMaxPowerEndToEnd) {
    const Scenario s = two_sub_scenario();
    const SsId subs[] = {SsId{0}, SsId{1}};
    // RSs on top of the subscribers: strong signal, weak cross noise.
    const geom::Vec2 good[] = {{-50.0, 0.0}, {50.0, 0.0}};
    EXPECT_TRUE(oracles::snr_feasible_at_max_power(s, good, subs));
    // Both RSs crammed midway: each subscriber sees nearly equal signal
    // and interference -> SNR ~ 0 dB... still above -15 dB, so instead
    // uncovered (distance 50+ > 35) drives infeasibility.
    const geom::Vec2 bad[] = {{0.0, 0.0}, {0.0, 5.0}};
    EXPECT_FALSE(oracles::snr_feasible_at_max_power(s, bad, subs));
}

TEST(SnrTest, HighThresholdMakesCrossNoiseFatal) {
    Scenario s = two_sub_scenario();
    s.snr_threshold_db = units::Decibel{35.0};  // brutally strict
    const SsId subs[] = {SsId{0}, SsId{1}};
    const geom::Vec2 rs[] = {{-50.0, 0.0}, {50.0, 0.0}};
    // signal at d=1 vs interference at d=100 gives ~60 dB -> passes 35 dB;
    // move RSs to the circle edges to shrink the margin below threshold.
    EXPECT_TRUE(oracles::snr_feasible_at_max_power(s, rs, subs));
    const geom::Vec2 edge_rs[] = {{-16.0, 0.0}, {16.0, 0.0}};
    // signal at 34, interference at 66: ratio (66/34)^3 ~ 7.3 (8.6 dB) < 35 dB.
    EXPECT_FALSE(oracles::snr_feasible_at_max_power(s, edge_rs, subs));
}

TEST(VerifyCoverageTest, AcceptsGoodPlanRejectsTamperedOne) {
    const Scenario s = two_sub_scenario();
    CoveragePlan plan;
    plan.rs_positions = {{-50.0, 0.0}, {50.0, 0.0}};
    plan.assignment = {RsId{0}, RsId{1}};
    plan.feasible = true;

    auto report = verify_coverage_max_power(s, plan);
    EXPECT_TRUE(report.feasible);
    EXPECT_EQ(report.violations, 0u);
    EXPECT_TRUE(report.subscribers[SsId{0}].distance_ok);
    EXPECT_TRUE(report.subscribers[SsId{0}].rate_ok);
    EXPECT_TRUE(report.subscribers[SsId{0}].snr_ok);

    // Tamper: serve subscriber 1 from the far RS -> distance violation.
    plan.assignment = {RsId{0}, RsId{0}};
    report = verify_coverage_max_power(s, plan);
    EXPECT_FALSE(report.feasible);
    EXPECT_FALSE(report.subscribers[SsId{1}].distance_ok);
}

TEST(VerifyCoverageTest, LowPowerFailsRateCheck) {
    const Scenario s = two_sub_scenario();
    CoveragePlan plan;
    plan.rs_positions = {{-20.0, 0.0}, {50.0, 0.0}};  // RS0 at 30 from sub 0
    plan.assignment = {RsId{0}, RsId{1}};
    // Power so low the received power at 30 misses P^0_ss (defined at 35
    // with max power).
    const double powers[] = {0.1, 50.0};
    const auto report = verify_coverage(s, plan, powers);
    EXPECT_FALSE(report.subscribers[SsId{0}].rate_ok);
    EXPECT_FALSE(report.feasible);
}

TEST(VerifyCoverageTest, MismatchedAssignmentSizeRejected) {
    const Scenario s = two_sub_scenario();
    CoveragePlan plan;
    plan.rs_positions = {{-50.0, 0.0}};
    plan.assignment = {RsId{0}};  // only one entry for two subscribers
    const auto report = verify_coverage_max_power(s, plan);
    EXPECT_FALSE(report.feasible);
}

TEST(VerifyCoverageTest, SnrDbReportedInDb) {
    const Scenario s = two_sub_scenario();
    CoveragePlan plan;
    plan.rs_positions = {{-50.0, 0.0}, {50.0, 0.0}};
    plan.assignment = {RsId{0}, RsId{1}};
    const auto report = verify_coverage_max_power(s, plan);
    const units::Watt signal = s.received_power(units::Watt{50.0}, units::Meters{1.0});
    const units::Watt interference =
        s.received_power(units::Watt{50.0}, units::Meters{100.0});
    EXPECT_NEAR(report.subscribers[SsId{0}].snr_db,
                units::to_db(signal / interference).db(), 1e-6);
}

TEST(VerifyConnectivityTest, SingleHopTreeAccepted) {
    const Scenario s = two_sub_scenario();
    CoveragePlan cov;
    cov.rs_positions = {{-50.0, 0.0}};
    cov.assignment = {RsId{0}, RsId{0}};
    ConnectivityPlan plan;
    // BS node 0 (root), coverage RS node 1 hanging off it via a chain of
    // one connectivity RS at the midpoint (hop 103 split into ~2x52 would
    // violate 35, so use 3 relays => hops ~51.5/2 ... simpler: direct
    // geometry with short hops).
    plan.positions = {s.base_stations[0].pos, {-50.0, 0.0}, {-33.0, 66.0},
                      {-16.0, 132.0}};
    plan.kinds = {NodeKind::BaseStation, NodeKind::CoverageRs,
                  NodeKind::ConnectivityRs, NodeKind::ConnectivityRs};
    // chain: coverage -> c1 -> c2 -> BS; hops ~34.5 each? distances:
    // (−50,0)->(−33,66): ~68 -> violates 35. Use tighter chain below.
    plan.positions = {s.base_stations[0].pos, {-50.0, 0.0}};
    plan.kinds = {NodeKind::BaseStation, NodeKind::CoverageRs};
    plan.parent = {0, 0};
    plan.powers = {0.0, 0.0};
    // Direct hop length ~206 > 35: must be rejected.
    auto report = verify_connectivity(s, cov, plan);
    EXPECT_FALSE(report.feasible);
    EXPECT_FALSE(report.hops_ok);

    // Steinerize manually with 6 extra relays -> hops ~29.5: accepted.
    const geom::Vec2 a{-50.0, 0.0}, b = s.base_stations[0].pos;
    plan.positions = {b, a};
    plan.kinds = {NodeKind::BaseStation, NodeKind::CoverageRs};
    plan.parent = {0, 0};
    plan.powers = {0.0, 0.0};
    std::size_t prev = 0;  // parent end
    for (int k = 6; k >= 1; --k) {
        plan.positions.push_back(geom::lerp(a, b, k / 7.0));
        plan.kinds.push_back(NodeKind::ConnectivityRs);
        plan.powers.push_back(1.0);
        plan.parent.push_back(prev);
        prev = plan.positions.size() - 1;
    }
    plan.parent[1] = prev;
    report = verify_connectivity(s, cov, plan);
    EXPECT_TRUE(report.feasible) << report.detail;
}

TEST(AmbientNoiseTest, LowersEverySnr) {
    Scenario s = two_sub_scenario();
    const geom::Vec2 rs[] = {{-50.0, 0.0}, {50.0, 0.0}};
    const double powers[] = {50.0, 50.0};
    const ids::IdVec<SsId, RsId> assignment{RsId{0}, RsId{1}};
    const auto clean = fresh_snrs(SnrField(s, rs, powers), assignment);
    s.radio.snr_ambient_noise = units::Watt{0.065};
    const auto noisy = fresh_snrs(SnrField(s, rs, powers), assignment);
    for (std::size_t j = 0; j < 2; ++j) EXPECT_LT(noisy[j], clean[j]);
}

TEST(AmbientNoiseTest, MakesSingleRsSnrFinite) {
    Scenario s = two_sub_scenario();
    s.radio.snr_ambient_noise = units::Watt{0.065};
    const geom::Vec2 rs[] = {{-50.0, 0.0}};
    const double powers[] = {50.0};
    const SsId subs[] = {SsId{0}};
    const ids::IdVec<SsId, RsId> assignment{RsId{0}};
    const auto snrs = fresh_snrs(SnrField(s, rs, powers, subs), assignment);
    const units::Watt signal = s.received_power(units::Watt{50.0}, units::Meters{1.0});
    EXPECT_NEAR(snrs[0], signal.watts() / 0.065, 1e-9 * snrs[0]);
}

TEST(AmbientNoiseTest, BoundaryServiceFailsWhereInteriorSurvives) {
    // The Fig. 3d mechanism: with default ambient noise, serving a
    // subscriber from exactly its distance request (an IAC intersection
    // point) fails thresholds that an interior position still clears.
    Scenario s = two_sub_scenario();
    s.radio.snr_ambient_noise = units::Watt{0.065};
    s.snr_threshold_db = units::Decibel{-11.5};
    s.subscribers = {{{0.0, 0.0}, 40.0}};
    const SsId subs[] = {SsId{0}};
    const geom::Vec2 boundary_rs[] = {{40.0, 0.0}};
    EXPECT_FALSE(oracles::snr_feasible_at_max_power(s, boundary_rs, subs));
    const geom::Vec2 interior_rs[] = {{25.0, 0.0}};
    EXPECT_TRUE(oracles::snr_feasible_at_max_power(s, interior_rs, subs));
}

TEST(VerifyConnectivityTest, UnrootedNodeDetected) {
    const Scenario s = two_sub_scenario();
    CoveragePlan cov;
    cov.rs_positions = {{-50.0, 0.0}};
    cov.assignment = {RsId{0}, RsId{0}};
    ConnectivityPlan plan;
    plan.positions = {s.base_stations[0].pos, {-50.0, 0.0}};
    plan.kinds = {NodeKind::BaseStation, NodeKind::CoverageRs};
    plan.parent = {0, 1};  // coverage RS is its own root but not a BS
    plan.powers = {0.0, 0.0};
    const auto report = verify_connectivity(s, cov, plan);
    EXPECT_FALSE(report.feasible);
    EXPECT_FALSE(report.all_rooted);
}

TEST(VerifyConnectivityTest, MissingNodesRejected) {
    const Scenario s = two_sub_scenario();
    CoveragePlan cov;
    cov.rs_positions = {{-50.0, 0.0}};
    cov.assignment = {RsId{0}, RsId{0}};
    ConnectivityPlan plan;  // empty
    EXPECT_FALSE(verify_connectivity(s, cov, plan).feasible);
}

}  // namespace
}  // namespace sag::core
