#include "oracles/milp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "sag/exec/deadline.h"

namespace sag::oracles {

namespace {

/// A binary whose LP value lies within this of 0 or 1 counts as integral.
constexpr double kIntegralityTol = 1e-6;

/// Branching state: per-variable lower/upper bounds imposed so far
/// (only for binaries: 0/1 fixings).
struct Node {
    std::vector<std::pair<std::size_t, int>> fixings;  // (var, 0 or 1)
};

/// Applies fixings to a copy of the base LP: x_i = v as an Equal row.
LinearProgram with_fixings(const LinearProgram& base,
                           const std::vector<std::pair<std::size_t, int>>& fixings) {
    LinearProgram lp = base;
    for (const auto& [var, value] : fixings) {
        std::vector<double> row(base.variable_count(), 0.0);
        row[var] = 1.0;
        lp.add_constraint(std::move(row), LinearProgram::Relation::Equal,
                          static_cast<double>(value));
    }
    return lp;
}

}  // namespace

MilpResult solve_milp(const MilpProblem& problem, const MilpOptions& options) {
    const std::size_t n = problem.lp.variable_count();
    if (problem.binary.size() != n) {
        throw std::invalid_argument("binary mask size mismatch");
    }
    // Binaries need an upper bound of 1 in the relaxation.
    MilpProblem p = problem;
    if (p.lp.upper_bounds.empty()) {
        p.lp.upper_bounds.assign(n, std::numeric_limits<double>::infinity());
    }
    for (std::size_t i = 0; i < n; ++i) {
        if (p.binary[i]) p.lp.upper_bounds[i] = std::min(p.lp.upper_bounds[i], 1.0);
    }

    MilpResult result;
    double incumbent = std::numeric_limits<double>::infinity();
    std::vector<double> incumbent_x;

    // Wall-clock deadline (exec::Deadline), mirroring set_cover's
    // handling. Each node pays a full LP solve, so the clock is polled
    // every node rather than every 1024th.
    const exec::Deadline deadline =
        exec::Deadline::after_seconds(options.time_budget_seconds);

    std::vector<Node> stack{Node{}};
    while (!stack.empty()) {
        if (++result.nodes > options.node_limit || deadline.expired()) {
            result.status = MilpResult::Status::NodeLimit;
            result.budget_exhausted = true;
            result.objective = incumbent;
            result.x = incumbent_x;
            return result;
        }
        const Node node = std::move(stack.back());
        stack.pop_back();

        const LpResult relaxed = solve_lp(with_fixings(p.lp, node.fixings));
        if (relaxed.status != LpResult::Status::Optimal) continue;  // prune
        if (relaxed.objective >= incumbent - options.bound_gap - 1e-9) continue;

        // Most-fractional binary.
        std::size_t branch_var = n;
        double worst_frac = kIntegralityTol;
        for (std::size_t i = 0; i < n; ++i) {
            if (!p.binary[i]) continue;
            const double frac = std::abs(relaxed.x[i] - std::round(relaxed.x[i]));
            if (frac > worst_frac) {
                worst_frac = frac;
                branch_var = i;
            }
        }
        if (branch_var == n) {
            // Integral: new incumbent.
            incumbent = relaxed.objective;
            incumbent_x = relaxed.x;
            for (std::size_t i = 0; i < n; ++i) {
                if (p.binary[i]) incumbent_x[i] = std::round(incumbent_x[i]);
            }
            continue;
        }
        // Depth-first: explore the branch suggested by the relaxation
        // first (round to nearest), the other side after.
        const int near = relaxed.x[branch_var] >= 0.5 ? 1 : 0;
        Node far_node = node;
        far_node.fixings.emplace_back(branch_var, 1 - near);
        Node near_node = std::move(node);
        near_node.fixings.emplace_back(branch_var, near);
        stack.push_back(std::move(far_node));
        stack.push_back(std::move(near_node));  // popped first
    }

    if (incumbent_x.empty()) {
        result.status = MilpResult::Status::Infeasible;
    } else {
        result.status = MilpResult::Status::Optimal;
        result.objective = incumbent;
        result.x = std::move(incumbent_x);
    }
    return result;
}

}  // namespace sag::oracles
