// Cross-validation of the two independent exact ILPQC solvers: the
// specialized set-cover branch & bound (solve_ilpqc_coverage) and the
// literal (3.1)-(3.5) MILP transcription (solve_ilpqc_milp). Agreement on
// RS counts across random instances is the strongest correctness evidence
// we have for the Gurobi substitution.
#include <gtest/gtest.h>

#include "oracles/ilpqc_milp.h"
#include "sag/core/candidates.h"
#include "sag/core/feasibility.h"
#include "sag/core/ilpqc.h"
#include "sag/sim/scenario_gen.h"

namespace sag::core {
namespace {

Scenario small_scenario(int seed, std::size_t users = 6) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 300.0;
    cfg.subscriber_count = users;
    cfg.base_station_count = 1;
    cfg.snr_threshold_db = units::Decibel{-15.0};
    return sim::generate_scenario(cfg, seed);
}

TEST(IlpqcMilpTest, EmptyScenario) {
    Scenario s = small_scenario(1);
    s.subscribers.clear();
    const auto plan = oracles::solve_ilpqc_milp(s, {});
    EXPECT_TRUE(plan.feasible);
    EXPECT_EQ(plan.rs_count(), 0u);
}

TEST(IlpqcMilpTest, SingleSubscriber) {
    Scenario s = small_scenario(1);
    s.subscribers = {{{10.0, 10.0}, 35.0}};
    const auto cands = iac_candidates(s);
    const auto plan = oracles::solve_ilpqc_milp(s, cands);
    ASSERT_TRUE(plan.feasible);
    EXPECT_EQ(plan.rs_count(), 1u);
    EXPECT_TRUE(verify_coverage_max_power(s, plan).feasible);
}

TEST(IlpqcMilpTest, BuildProducesExpectedDimensions) {
    Scenario s = small_scenario(2, 4);
    const auto cands = iac_candidates(s);
    const auto problem = oracles::build_ilpqc_milp(s, cands);
    // T_i variables come first; objective weights only them.
    double obj_sum = 0.0;
    for (const double c : problem.lp.objective) obj_sum += c;
    EXPECT_DOUBLE_EQ(obj_sum, static_cast<double>(cands.size()));
    EXPECT_EQ(problem.binary.size(), problem.lp.objective.size());
    EXPECT_TRUE(std::all_of(problem.binary.begin(), problem.binary.end(),
                            [](bool b) { return b; }));
}

TEST(IlpqcMilpTest, ImpossibleSnrInfeasible) {
    Scenario s = small_scenario(3);
    s.subscribers = {{{-45.0, 0.0}, 35.0}, {{45.0, 0.0}, 35.0}};
    s.snr_threshold_db = units::Decibel{60.0};
    const auto plan = oracles::solve_ilpqc_milp(s, iac_candidates(s));
    EXPECT_FALSE(plan.feasible);
}

/// The headline: both exact solvers agree on the minimum RS count, and
/// both plans verify, across random small instances (IAC candidates).
class IlpqcCrossValidation : public ::testing::TestWithParam<int> {};

TEST_P(IlpqcCrossValidation, SpecializedAndMilpAgree) {
    const Scenario s = small_scenario(GetParam());
    const auto cands = iac_candidates(s);
    const auto fast = solve_ilpqc_coverage(s, cands);
    oracles::MilpOptions opts;
    opts.node_limit = 500'000;
    const auto slow = oracles::solve_ilpqc_milp(s, cands, opts);

    ASSERT_EQ(fast.feasible, slow.feasible) << "solvers disagree on feasibility";
    if (!fast.feasible) return;
    EXPECT_EQ(fast.rs_count(), slow.rs_count());
    EXPECT_TRUE(verify_coverage_max_power(s, fast).feasible);
    EXPECT_TRUE(verify_coverage_max_power(s, slow).feasible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlpqcCrossValidation,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(IlpqcCrossValidationGac, AgreeOnGridCandidatesToo) {
    const Scenario s = small_scenario(11, 5);
    const auto cands = prune_useless_candidates(s, gac_candidates(s, 40.0));
    const auto fast = solve_ilpqc_coverage(s, cands);
    oracles::MilpOptions opts;
    opts.node_limit = 500'000;
    const auto slow = oracles::solve_ilpqc_milp(s, cands, opts);
    ASSERT_EQ(fast.feasible, slow.feasible);
    if (fast.feasible) {
        EXPECT_EQ(fast.rs_count(), slow.rs_count());
    }
}

}  // namespace
}  // namespace sag::core
