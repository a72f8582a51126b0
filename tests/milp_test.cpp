#include <random>

#include <gtest/gtest.h>

#include "oracles/milp.h"

namespace sag::oracles {
namespace {

using Rel = LinearProgram::Relation;

TEST(MilpTest, PureLpWhenNoBinaries) {
    MilpProblem p;
    p.lp.objective = {1.0, 1.0};
    p.lp.add_constraint({1.0, 1.0}, Rel::GreaterEq, 3.0);
    p.binary = {false, false};
    const auto r = solve_milp(p);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, 3.0, 1e-9);
}

TEST(MilpTest, BinaryKnapsackCover) {
    // min x0 + x1 + x2 s.t. each of three elements covered:
    // e1 by {0,1}, e2 by {1,2}, e3 by {0,2} -> any 2 sets suffice.
    MilpProblem p;
    p.lp.objective = {1.0, 1.0, 1.0};
    p.lp.add_constraint({1.0, 1.0, 0.0}, Rel::GreaterEq, 1.0);
    p.lp.add_constraint({0.0, 1.0, 1.0}, Rel::GreaterEq, 1.0);
    p.lp.add_constraint({1.0, 0.0, 1.0}, Rel::GreaterEq, 1.0);
    p.binary = {true, true, true};
    const auto r = solve_milp(p);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.objective, 2.0, 1e-6);
    for (const double x : r.x) {
        EXPECT_TRUE(std::abs(x) < 1e-9 || std::abs(x - 1.0) < 1e-9);
    }
}

TEST(MilpTest, FractionalLpRelaxationGetsRounded) {
    // Classic vertex-cover-on-a-triangle: LP relaxation is 1.5 (all 0.5),
    // the integer optimum is 2.
    MilpProblem p;
    p.lp.objective = {1.0, 1.0, 1.0};
    p.lp.add_constraint({1.0, 1.0, 0.0}, Rel::GreaterEq, 1.0);
    p.lp.add_constraint({0.0, 1.0, 1.0}, Rel::GreaterEq, 1.0);
    p.lp.add_constraint({1.0, 0.0, 1.0}, Rel::GreaterEq, 1.0);
    p.binary = {true, true, true};
    const auto relaxed = solve_lp(p.lp);
    // (not asserting 1.5: simplex may land on another optimal vertex)
    ASSERT_TRUE(relaxed.optimal());
    EXPECT_LE(relaxed.objective, 2.0 + 1e-9);
    const auto integer = solve_milp(p);
    ASSERT_TRUE(integer.optimal());
    EXPECT_NEAR(integer.objective, 2.0, 1e-6);
}

TEST(MilpTest, InfeasibleDetected) {
    MilpProblem p;
    p.lp.objective = {1.0};
    p.lp.add_constraint({1.0}, Rel::GreaterEq, 0.5);
    p.lp.add_constraint({1.0}, Rel::LessEq, 0.4);
    p.binary = {true};
    EXPECT_EQ(solve_milp(p).status, MilpResult::Status::Infeasible);
}

TEST(MilpTest, IntegralityForcesWorseObjective) {
    // min -x with x <= 0.7: LP says 0.7, binary x must be 0.
    MilpProblem p;
    p.lp.objective = {-1.0};
    p.lp.add_constraint({1.0}, Rel::LessEq, 0.7);
    p.binary = {true};
    const auto r = solve_milp(p);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.x[0], 0.0, 1e-9);
}

TEST(MilpTest, MixedIntegerAndContinuous) {
    // min y s.t. y >= 2.5 x, x binary, x >= something forcing x = 1.
    MilpProblem p;
    p.lp.objective = {0.0, 1.0};
    p.lp.add_constraint({2.5, -1.0}, Rel::LessEq, 0.0);   // y >= 2.5x
    p.lp.add_constraint({1.0, 0.0}, Rel::GreaterEq, 1.0);  // x >= 1
    p.binary = {true, false};
    const auto r = solve_milp(p);
    ASSERT_TRUE(r.optimal());
    EXPECT_NEAR(r.x[0], 1.0, 1e-9);
    EXPECT_NEAR(r.x[1], 2.5, 1e-9);
}

TEST(MilpTest, NodeLimitReported) {
    // A 12-variable parity-ish instance with node_limit 1 cannot finish.
    MilpProblem p;
    const std::size_t n = 12;
    p.lp.objective.assign(n, 1.0);
    std::vector<double> row(n, 1.0);
    p.lp.add_constraint(std::move(row), Rel::GreaterEq, 5.5);
    p.binary.assign(n, true);
    MilpOptions opts;
    opts.node_limit = 1;
    const auto r = solve_milp(p, opts);
    EXPECT_EQ(r.status, MilpResult::Status::NodeLimit);
}

TEST(MilpTest, NodeLimitSetsBudgetExhausted) {
    MilpProblem p;
    const std::size_t n = 12;
    p.lp.objective.assign(n, 1.0);
    std::vector<double> row(n, 1.0);
    p.lp.add_constraint(std::move(row), Rel::GreaterEq, 5.5);
    p.binary.assign(n, true);
    MilpOptions opts;
    opts.node_limit = 1;
    const auto r = solve_milp(p, opts);
    EXPECT_TRUE(r.budget_exhausted);

    const auto full = solve_milp(p);
    EXPECT_TRUE(full.optimal());
    EXPECT_FALSE(full.budget_exhausted);
}

TEST(MilpTest, TimeBudgetStopsSearch) {
    // An already-expired wall-clock budget must stop the search on the
    // first node and report the exhaustion, exactly like set_cover's
    // deadline handling.
    MilpProblem p;
    const std::size_t n = 14;
    p.lp.objective.assign(n, 1.0);
    std::vector<double> row(n, 1.0);
    p.lp.add_constraint(std::move(row), Rel::GreaterEq, 6.5);
    p.binary.assign(n, true);
    MilpOptions opts;
    opts.time_budget_seconds = 1e-9;
    const auto r = solve_milp(p, opts);
    EXPECT_EQ(r.status, MilpResult::Status::NodeLimit);
    EXPECT_TRUE(r.budget_exhausted);
    EXPECT_LE(r.nodes, 2u);
}

TEST(MilpTest, GenerousTimeBudgetStillOptimal) {
    MilpProblem p;
    p.lp.objective = {1.0, 1.0, 1.0};
    p.lp.add_constraint({1.0, 1.0, 0.0}, Rel::GreaterEq, 1.0);
    p.lp.add_constraint({0.0, 1.0, 1.0}, Rel::GreaterEq, 1.0);
    p.lp.add_constraint({1.0, 0.0, 1.0}, Rel::GreaterEq, 1.0);
    p.binary = {true, true, true};
    MilpOptions opts;
    opts.time_budget_seconds = 60.0;
    const auto r = solve_milp(p, opts);
    ASSERT_TRUE(r.optimal());
    EXPECT_FALSE(r.budget_exhausted);
    EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

TEST(MilpTest, RejectsBadMask) {
    MilpProblem p;
    p.lp.objective = {1.0, 1.0};
    p.binary = {true};  // wrong size
    EXPECT_THROW((void)solve_milp(p), std::invalid_argument);
}

/// Property: on random small set-cover MILPs, branch & bound matches
/// exhaustive enumeration.
class MilpRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(MilpRandomProperty, MatchesBruteForce) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::uniform_real_distribution<double> cost(0.5, 3.0);
    for (int trial = 0; trial < 15; ++trial) {
        const std::size_t nv = 4 + (trial % 5);   // 4..8 binaries
        const std::size_t nc = 3 + (trial % 4);   // cover rows
        MilpProblem p;
        p.lp.objective.resize(nv);
        for (double& c : p.lp.objective) c = cost(rng);
        std::vector<std::vector<double>> rows(nc, std::vector<double>(nv, 0.0));
        for (auto& row : rows) {
            for (double& a : row) a = u(rng) < 0.5 ? 1.0 : 0.0;
        }
        for (auto& row : rows) p.lp.add_constraint(row, Rel::GreaterEq, 1.0);
        p.binary.assign(nv, true);

        // Brute force over all assignments.
        double best = std::numeric_limits<double>::infinity();
        for (std::uint64_t mask = 0; mask < (1ull << nv); ++mask) {
            bool ok = true;
            for (const auto& row : rows) {
                double dot = 0.0;
                for (std::size_t i = 0; i < nv; ++i) {
                    if (mask & (1ull << i)) dot += row[i];
                }
                if (dot < 1.0) ok = false;
            }
            if (!ok) continue;
            double obj = 0.0;
            for (std::size_t i = 0; i < nv; ++i) {
                if (mask & (1ull << i)) obj += p.lp.objective[i];
            }
            best = std::min(best, obj);
        }

        const auto r = solve_milp(p);
        if (std::isinf(best)) {
            EXPECT_EQ(r.status, MilpResult::Status::Infeasible) << "trial " << trial;
        } else {
            ASSERT_TRUE(r.optimal()) << "trial " << trial;
            EXPECT_NEAR(r.objective, best, 1e-6) << "trial " << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpRandomProperty, ::testing::Values(7, 21, 63));

}  // namespace
}  // namespace sag::oracles
