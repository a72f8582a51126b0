// Failure injection: corrupt solver outputs in every structural way we
// could think of and confirm the independent verifiers flag them instead
// of crashing or silently passing. The verifiers are the last line of
// defense for every benchmark number in EXPERIMENTS.md, so they must be
// unconditionally robust.
#include <algorithm>
#include <limits>
#include <numeric>
#include <random>
#include <sstream>

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

/// verify_connectivity as it ran before its linear rewrite, for the
/// structurally sound plans the test draws: each node walks to its root,
/// and each coverage RS lowers the allowed hop along its root path.
ConnectivityReport walk_reference(const Scenario& scenario,
                                  const CoveragePlan& coverage,
                                  const ConnectivityPlan& plan) {
    ConnectivityReport report;
    std::ostringstream detail;
    const std::size_t n = plan.node_count();
    const std::size_t bs_count = scenario.base_stations.size();
    const std::size_t cov_count = coverage.rs_count();
    report.all_rooted = true;
    report.hops_ok = true;
    for (std::size_t v = 0; v < n; ++v) {
        std::size_t cur = v;
        std::size_t steps = 0;
        while (plan.parent[cur] != cur && steps <= n) {
            cur = plan.parent[cur];
            ++steps;
        }
        if (steps > n || plan.kinds[cur] != NodeKind::BaseStation) {
            report.all_rooted = false;
            ++report.violations;
            detail << "node " << v << " is not rooted at a base station; ";
        }
    }
    std::vector<double> allowed(n, std::numeric_limits<double>::infinity());
    const auto served = coverage.served_lists();
    for (std::size_t c = 0; c < cov_count; ++c) {
        double req = std::numeric_limits<double>::infinity();
        for (const ids::SsId j : served[ids::RsId{c}]) {
            req = std::min(req, scenario.subscriber(j).distance_request);
        }
        std::size_t cur = bs_count + c;
        std::size_t steps = 0;
        while (steps <= n) {
            allowed[cur] = std::min(allowed[cur], req);
            if (plan.parent[cur] == cur) break;
            cur = plan.parent[cur];
            ++steps;
        }
    }
    for (std::size_t v = 0; v < n; ++v) {
        if (plan.parent[v] == v) continue;
        const double hop = geom::distance(plan.positions[v], plan.positions[plan.parent[v]]);
        if (hop > allowed[v] + 1e-6) {
            report.hops_ok = false;
            ++report.violations;
            detail << "hop " << v << "->" << plan.parent[v] << " length " << hop
                   << " exceeds " << allowed[v] << "; ";
        }
    }
    report.feasible = report.all_rooted && report.hops_ok;
    report.detail = detail.str();
    return report;
}

// The linear verifier gives the walk's report, field for field and in
// the same detail text, on seeded random parent arrays: trees, arbitrary
// parent maps (cycles, non-BS self-roots, BSs hanging off other nodes),
// and one chain through all n nodes.
TEST(FailureInjectionConnectivity, LinearVerifierMatchesWalkReference) {
    std::mt19937_64 rng(2013);
    const auto below = [&](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
    std::size_t shapes[3] = {};
    std::size_t cyclic = 0, rooted = 0, hops_ok = 0;
    for (int trial = 0; trial < 600; ++trial) {
        const std::size_t bs = 1 + below(4);
        const std::size_t cov = 1 + below(12);
        const std::size_t relays = trial == 0 ? 3000 : below(40);
        const std::size_t n = bs + cov + relays;
        // Small fields make in-bound hops common, large ones violations.
        const double side = trial % 2 == 0 ? 40.0 : 300.0;
        std::uniform_real_distribution<double> coord(0.0, side);
        std::uniform_real_distribution<double> request(20.0, 60.0);

        Scenario s;
        s.field = geom::Rect::centered_square(side);
        for (std::size_t b = 0; b < bs; ++b) s.base_stations.push_back({{coord(rng), coord(rng)}});
        CoveragePlan coverage;
        for (std::size_t c = 0; c < cov; ++c) coverage.rs_positions.push_back({coord(rng), coord(rng)});
        const std::size_t subscribers = below(3 * cov + 1);
        for (std::size_t j = 0; j < subscribers; ++j) {
            s.subscribers.push_back({{coord(rng), coord(rng)}, request(rng)});
            coverage.assignment.push_back(ids::RsId{below(cov)});
        }

        ConnectivityPlan plan;
        plan.kinds.assign(n, NodeKind::ConnectivityRs);
        std::fill_n(plan.kinds.begin(), bs, NodeKind::BaseStation);
        std::fill_n(plan.kinds.begin() + static_cast<std::ptrdiff_t>(bs), cov,
                    NodeKind::CoverageRs);
        for (std::size_t v = 0; v < n; ++v) plan.positions.push_back({coord(rng), coord(rng)});
        plan.powers.assign(n, 1.0);
        plan.parent.resize(n);
        const std::size_t shape = trial == 0 ? 2 : below(2);
        ++shapes[shape];
        if (shape == 0) {
            // A forest: every BS a root, the rest in random order, each
            // hanging off a node placed before it.
            std::vector<std::size_t> order(n);
            std::iota(order.begin(), order.end(), std::size_t{0});
            std::shuffle(order.begin() + static_cast<std::ptrdiff_t>(bs), order.end(), rng);
            for (std::size_t k = 0; k < n; ++k) {
                plan.parent[order[k]] = k < bs ? order[k] : order[below(k)];
            }
        } else if (shape == 1) {
            // Any parent map: cycles, non-BS self-roots, BSs with parents.
            for (std::size_t v = 0; v < n; ++v) {
                plan.parent[v] = (v < bs && rng() % 4 != 0) ? v : below(n);
            }
        } else {
            // One chain through all n nodes, rooted at BS 0; the other BSs
            // hang off it.
            std::vector<std::size_t> order(n - 1);
            std::iota(order.begin(), order.end(), std::size_t{1});
            std::shuffle(order.begin(), order.end(), rng);
            plan.parent[0] = 0;
            std::size_t prev = 0;
            for (const std::size_t v : order) {
                plan.parent[v] = prev;
                prev = v;
            }
        }

        const ConnectivityReport got = verify_connectivity(s, coverage, plan);
        const ConnectivityReport ref = walk_reference(s, coverage, plan);
        EXPECT_EQ(got.feasible, ref.feasible) << "trial " << trial;
        EXPECT_EQ(got.all_rooted, ref.all_rooted) << "trial " << trial;
        EXPECT_EQ(got.hops_ok, ref.hops_ok) << "trial " << trial;
        EXPECT_EQ(got.violations, ref.violations) << "trial " << trial;
        EXPECT_EQ(got.detail, ref.detail) << "trial " << trial;
        for (std::size_t v = 0; v < n; ++v) {
            std::size_t cur = v;
            for (std::size_t k = 0; k < n; ++k) cur = plan.parent[cur];
            if (plan.parent[cur] != cur) {
                ++cyclic;
                break;
            }
        }
        rooted += ref.all_rooted ? 1 : 0;
        hops_ok += ref.hops_ok ? 1 : 0;
    }
    // Every shape was drawn, and the draws reach cycles, fully rooted
    // plans and plans whose hops all fit.
    EXPECT_GE(shapes[0], 200u);
    EXPECT_GE(shapes[1], 200u);
    EXPECT_EQ(shapes[2], 1u);
    EXPECT_GE(cyclic, 100u);
    EXPECT_GE(rooted, 200u);
    EXPECT_GE(hops_ok, 20u);
}

}  // namespace
}  // namespace sag::core
