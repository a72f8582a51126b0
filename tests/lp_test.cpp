#include <cmath>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "oracles/lp.h"

namespace sag::oracles {
namespace {

using Rel = LinearProgram::Relation;

TEST(LpTest, SimpleTwoVariableMaximizationAsMinimization) {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig)
    // as min -3x - 5y; optimum at (2, 6), objective -36.
    LinearProgram lp;
    lp.objective = {-3.0, -5.0};
    lp.add_constraint({1.0, 0.0}, Rel::LessEq, 4.0);
    lp.add_constraint({0.0, 2.0}, Rel::LessEq, 12.0);
    lp.add_constraint({3.0, 2.0}, Rel::LessEq, 18.0);
    const auto r = solve_lp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, -36.0, 1e-9);
    EXPECT_NEAR(r.x[0], 2.0, 1e-9);
    EXPECT_NEAR(r.x[1], 6.0, 1e-9);
}

TEST(LpTest, GreaterEqConstraintsNeedPhase1) {
    // min x + y s.t. x + y >= 4, x - y >= -2  -> optimum 4.
    LinearProgram lp;
    lp.objective = {1.0, 1.0};
    lp.add_constraint({1.0, 1.0}, Rel::GreaterEq, 4.0);
    lp.add_constraint({1.0, -1.0}, Rel::GreaterEq, -2.0);
    const auto r = solve_lp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, 4.0, 1e-9);
}

TEST(LpTest, EqualityConstraint) {
    // min 2x + 3y s.t. x + y = 10, x <= 6 -> x=6, y=4, obj=24.
    LinearProgram lp;
    lp.objective = {2.0, 3.0};
    lp.add_constraint({1.0, 1.0}, Rel::Equal, 10.0);
    lp.add_constraint({1.0, 0.0}, Rel::LessEq, 6.0);
    const auto r = solve_lp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, 24.0, 1e-9);
    EXPECT_NEAR(r.x[0], 6.0, 1e-9);
}

TEST(LpTest, InfeasibleDetected) {
    LinearProgram lp;
    lp.objective = {1.0};
    lp.add_constraint({1.0}, Rel::GreaterEq, 5.0);
    lp.add_constraint({1.0}, Rel::LessEq, 3.0);
    EXPECT_EQ(solve_lp(lp).status, LpResult::Status::Infeasible);
}

TEST(LpTest, UnboundedDetected) {
    LinearProgram lp;
    lp.objective = {-1.0};  // min -x with x >= 0 unbounded below
    const auto r = solve_lp(lp);
    EXPECT_EQ(r.status, LpResult::Status::Unbounded);
}

TEST(LpTest, UpperBoundsRespected) {
    LinearProgram lp;
    lp.objective = {-1.0, -1.0};
    lp.upper_bounds = {3.0, std::numeric_limits<double>::infinity()};
    lp.add_constraint({0.0, 1.0}, Rel::LessEq, 2.0);
    const auto r = solve_lp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.x[0], 3.0, 1e-9);
    EXPECT_NEAR(r.x[1], 2.0, 1e-9);
}

TEST(LpTest, NegativeRhsNormalization) {
    // min x s.t. -x <= -5  (i.e. x >= 5)
    LinearProgram lp;
    lp.objective = {1.0};
    lp.add_constraint({-1.0}, Rel::LessEq, -5.0);
    const auto r = solve_lp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.x[0], 5.0, 1e-9);
}

TEST(LpTest, DegenerateProblemTerminates) {
    // Known cycling-prone structure (Beale); Bland fallback must save us.
    LinearProgram lp;
    lp.objective = {-0.75, 150.0, -0.02, 6.0};
    lp.add_constraint({0.25, -60.0, -0.04, 9.0}, Rel::LessEq, 0.0);
    lp.add_constraint({0.5, -90.0, -0.02, 3.0}, Rel::LessEq, 0.0);
    lp.add_constraint({0.0, 0.0, 1.0, 0.0}, Rel::LessEq, 1.0);
    const auto r = solve_lp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, -0.05, 1e-9);
}

TEST(LpTest, ZeroVariablesTrivial) {
    LinearProgram lp;  // empty objective: optimum 0 with empty x
    const auto r = solve_lp(lp);
    ASSERT_TRUE(r.optimal());
    EXPECT_DOUBLE_EQ(r.objective, 0.0);
}

TEST(LpTest, RejectsMismatchedUpperBounds) {
    LinearProgram lp;
    lp.objective = {1.0, 1.0};
    lp.upper_bounds = {1.0};
    EXPECT_THROW((void)solve_lp(lp), std::invalid_argument);
}

/// Property: on random feasible-by-construction LPs the simplex solution
/// satisfies every constraint and beats (or ties) a feasible witness.
class LpRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(LpRandomProperty, OptimalIsFeasibleAndNoWorseThanWitness) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> coeff(-3.0, 3.0);
    std::uniform_real_distribution<double> witness_val(0.0, 5.0);
    std::uniform_real_distribution<double> slackness(0.0, 4.0);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 2 + static_cast<std::size_t>(trial % 4);
        const std::size_t m = 3 + static_cast<std::size_t>(trial % 5);
        std::vector<double> witness(n);
        for (double& w : witness) w = witness_val(rng);

        LinearProgram lp;
        lp.objective.resize(n);
        for (double& c : lp.objective) c = std::abs(coeff(rng)) + 0.1;  // bounded
        for (std::size_t r = 0; r < m; ++r) {
            std::vector<double> a(n);
            double dot = 0.0;
            for (std::size_t j = 0; j < n; ++j) {
                a[j] = coeff(rng);
                dot += a[j] * witness[j];
            }
            // Constraint satisfied by the witness with a margin.
            lp.add_constraint(std::move(a), Rel::LessEq, dot + slackness(rng));
        }
        const auto r = solve_lp(lp);
        ASSERT_TRUE(r.optimal()) << "trial " << trial;
        // Feasibility of returned point.
        for (const auto& c : lp.constraints) {
            double dot = 0.0;
            for (std::size_t j = 0; j < n; ++j) dot += c.coeffs[j] * r.x[j];
            EXPECT_LE(dot, c.rhs + 1e-7) << "trial " << trial;
        }
        for (const double x : r.x) EXPECT_GE(x, -1e-9);
        // Optimality vs witness.
        double witness_obj = 0.0;
        for (std::size_t j = 0; j < n; ++j) witness_obj += lp.objective[j] * witness[j];
        EXPECT_LE(r.objective, witness_obj + 1e-7) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpRandomProperty, ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace sag::oracles
