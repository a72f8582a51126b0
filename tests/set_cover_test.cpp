#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "sag/opt/set_cover.h"

namespace sag::opt {
namespace {

bool covers_all(const SetCoverInstance& inst, const std::vector<std::size_t>& chosen) {
    std::vector<bool> hit(inst.element_count, false);
    for (const std::size_t s : chosen) {
        for (const std::size_t e : inst.sets[s]) hit[e] = true;
    }
    return std::all_of(hit.begin(), hit.end(), [](bool b) { return b; });
}

/// Brute-force minimum cover size (elements <= ~20, sets <= ~16).
std::size_t brute_force_min_cover(const SetCoverInstance& inst,
                                  const CoverOracle& oracle = nullptr) {
    const std::size_t m = inst.sets.size();
    std::size_t best = SIZE_MAX;
    for (std::uint64_t mask = 0; mask < (1ull << m); ++mask) {
        std::vector<std::size_t> chosen;
        for (std::size_t s = 0; s < m; ++s) {
            if (mask & (1ull << s)) chosen.push_back(s);
        }
        if (chosen.size() >= best) continue;
        if (!covers_all(inst, chosen)) continue;
        if (oracle && !oracle(chosen)) continue;
        best = chosen.size();
    }
    return best;
}

TEST(SetCoverInstanceTest, CoveringSetsInverseIndex) {
    SetCoverInstance inst{3, {{0, 1}, {1, 2}, {0}}};
    const auto cov = inst.covering_sets();
    EXPECT_EQ(cov[0], (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(cov[1], (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(cov[2], (std::vector<std::size_t>{1}));
}

TEST(SetCoverInstanceTest, CoverableDetection) {
    EXPECT_TRUE((SetCoverInstance{2, {{0}, {1}}}).coverable());
    EXPECT_FALSE((SetCoverInstance{3, {{0}, {1}}}).coverable());
    EXPECT_TRUE((SetCoverInstance{0, {}}).coverable());
}

TEST(GreedySetCoverTest, FindsACover) {
    SetCoverInstance inst{4, {{0, 1}, {2}, {2, 3}, {1, 3}}};
    const auto chosen = greedy_set_cover(inst);
    ASSERT_TRUE(chosen.has_value());
    EXPECT_TRUE(covers_all(inst, *chosen));
}

TEST(GreedySetCoverTest, UncoverableReturnsNullopt) {
    SetCoverInstance inst{3, {{0}, {1}}};
    EXPECT_FALSE(greedy_set_cover(inst).has_value());
}

TEST(GreedySetCoverTest, EmptyInstanceEmptyCover) {
    SetCoverInstance inst{0, {{}, {}}};
    const auto chosen = greedy_set_cover(inst);
    ASSERT_TRUE(chosen.has_value());
    EXPECT_TRUE(chosen->empty());
}

TEST(DisjointLowerBoundTest, TightOnDisjointElements) {
    // Three elements, each coverable by its own set only.
    SetCoverInstance inst{3, {{0}, {1}, {2}}};
    EXPECT_EQ(disjoint_elements_lower_bound(inst), 3u);
}

TEST(DisjointLowerBoundTest, SharedSetGivesOne) {
    SetCoverInstance inst{3, {{0, 1, 2}}};
    EXPECT_EQ(disjoint_elements_lower_bound(inst), 1u);
}

TEST(BnBTest, ExactOnSmallInstanceWithoutOracle) {
    SetCoverInstance inst{5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}, {0, 1, 2, 3, 4}}};
    const auto r = solve_set_cover_bnb(inst, nullptr);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(r.proven_optimal);
    EXPECT_EQ(r.chosen.size(), 1u);  // the universal set
}

TEST(BnBTest, InfeasibleWhenUncoverable) {
    SetCoverInstance inst{2, {{0}}};
    const auto r = solve_set_cover_bnb(inst, nullptr);
    EXPECT_FALSE(r.feasible);
}

TEST(BnBTest, EmptyUniverseTrivial) {
    SetCoverInstance inst{0, {{}}};
    const auto r = solve_set_cover_bnb(inst, nullptr);
    EXPECT_TRUE(r.feasible);
    EXPECT_TRUE(r.chosen.empty());
}

TEST(BnBTest, OracleRejectsMinimalCoverForcesLarger) {
    // Universe {0,1}: set 2 covers both but the oracle vetoes it; the
    // solver must fall back to the two singletons.
    SetCoverInstance inst{2, {{0}, {1}, {0, 1}}};
    const CoverOracle oracle = [](std::span<const std::size_t> chosen) {
        return !(chosen.size() == 1 && chosen[0] == 2);
    };
    const auto r = solve_set_cover_bnb(inst, oracle);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.chosen.size(), 2u);
}

TEST(BnBTest, PaddingFindsOversizedFeasibleSolution) {
    // Oracle demands set 1 be present, although set 0 alone covers all:
    // only a padded cover {0,1} (or {1}) can pass. Set 1 covers nothing,
    // so pure cover enumeration would never include it without padding.
    SetCoverInstance inst{1, {{0}, {}}};
    const CoverOracle oracle = [](std::span<const std::size_t> chosen) {
        return std::find(chosen.begin(), chosen.end(), 1u) != chosen.end();
    };
    SetCoverBnBOptions opts;
    const auto r = solve_set_cover_bnb(inst, oracle, opts);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(r.chosen.size(), 2u);
    EXPECT_TRUE(covers_all(inst, r.chosen));
}

TEST(BnBTest, AlwaysRejectingOracleReportsInfeasible) {
    SetCoverInstance inst{2, {{0, 1}, {0}, {1}}};
    const CoverOracle never = [](std::span<const std::size_t>) { return false; };
    SetCoverBnBOptions opts;
    opts.node_budget = 100000;
    const auto r = solve_set_cover_bnb(inst, never, opts);
    EXPECT_FALSE(r.feasible);
}

TEST(BnBTest, NodeBudgetFallsBackToGreedy) {
    // Tiny budget: the search cannot finish but the greedy cover passes
    // the (absent) oracle, so we get an anytime answer.
    SetCoverInstance inst{6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}};
    SetCoverBnBOptions opts;
    opts.node_budget = 1;
    const auto r = solve_set_cover_bnb(inst, nullptr, opts);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(covers_all(inst, r.chosen));
}

TEST(BnBTest, ChosenIndicesAreSortedAndUnique) {
    SetCoverInstance inst{4, {{0, 1}, {2}, {3}, {1, 2, 3}}};
    const auto r = solve_set_cover_bnb(inst, nullptr);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(std::is_sorted(r.chosen.begin(), r.chosen.end()));
    EXPECT_EQ(std::adjacent_find(r.chosen.begin(), r.chosen.end()), r.chosen.end());
}

/// Property sweep: B&B matches brute force on random instances, with and
/// without a parity-style oracle.
class BnBRandomProperty : public ::testing::TestWithParam<int> {};

TEST_P(BnBRandomProperty, MatchesBruteForce) {
    std::mt19937_64 rng(GetParam());
    std::uniform_int_distribution<std::size_t> n_elems(1, 10);
    std::uniform_int_distribution<std::size_t> n_sets(1, 12);
    std::uniform_real_distribution<double> p(0.0, 1.0);
    for (int trial = 0; trial < 30; ++trial) {
        SetCoverInstance inst;
        inst.element_count = n_elems(rng);
        inst.sets.resize(n_sets(rng));
        for (auto& s : inst.sets) {
            for (std::size_t e = 0; e < inst.element_count; ++e) {
                if (p(rng) < 0.35) s.push_back(e);
            }
        }
        const std::size_t brute = brute_force_min_cover(inst);
        const auto r = solve_set_cover_bnb(inst, nullptr);
        if (brute == SIZE_MAX) {
            EXPECT_FALSE(r.feasible) << "trial " << trial;
        } else {
            ASSERT_TRUE(r.feasible) << "trial " << trial;
            EXPECT_TRUE(r.proven_optimal);
            EXPECT_EQ(r.chosen.size(), brute) << "trial " << trial;
            EXPECT_TRUE(covers_all(inst, r.chosen));
        }
    }
}

TEST_P(BnBRandomProperty, MatchesBruteForceWithOracle) {
    std::mt19937_64 rng(GetParam() * 977);
    std::uniform_real_distribution<double> p(0.0, 1.0);
    // Oracle: total index sum must be even — arbitrary, deterministic,
    // non-monotone, exercising both padding and rejection paths.
    const CoverOracle parity = [](std::span<const std::size_t> chosen) {
        std::size_t sum = 0;
        for (const std::size_t s : chosen) sum += s;
        return sum % 2 == 0;
    };
    for (int trial = 0; trial < 25; ++trial) {
        SetCoverInstance inst;
        inst.element_count = 1 + (trial % 7);
        inst.sets.resize(2 + (trial % 9));
        for (auto& s : inst.sets) {
            for (std::size_t e = 0; e < inst.element_count; ++e) {
                if (p(rng) < 0.4) s.push_back(e);
            }
        }
        const std::size_t brute = brute_force_min_cover(inst, parity);
        const auto r = solve_set_cover_bnb(inst, parity);
        if (brute == SIZE_MAX) {
            EXPECT_FALSE(r.feasible) << "trial " << trial;
        } else {
            ASSERT_TRUE(r.feasible) << "trial " << trial;
            EXPECT_EQ(r.chosen.size(), brute) << "trial " << trial;
            EXPECT_TRUE(covers_all(inst, r.chosen));
            EXPECT_TRUE(parity(r.chosen));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BnBRandomProperty,
                         ::testing::Values(5, 17, 29, 43, 59));

}  // namespace
}  // namespace sag::opt
