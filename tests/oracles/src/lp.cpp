#include "oracles/lp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace sag::oracles {

namespace {

constexpr double kTol = 1e-9;

/// Full-tableau simplex state. Column layout: structural vars, then one
/// slack/surplus per inequality row, then artificials. The last column of
/// each row is the RHS; `obj` is the reduced-cost row (same width + value).
struct Tableau {
    std::size_t rows = 0;
    std::size_t cols = 0;                 // number of variable columns
    std::vector<std::vector<double>> a;   // rows x (cols + 1)
    std::vector<double> obj;              // cols + 1 (last = -objective value)
    std::vector<std::size_t> basis;       // basic variable of each row

    void pivot(std::size_t pr, std::size_t pc) {
        const double pivot_val = a[pr][pc];
        for (double& v : a[pr]) v /= pivot_val;
        for (std::size_t r = 0; r < rows; ++r) {
            if (r == pr) continue;
            const double f = a[r][pc];
            if (std::abs(f) < kTol) continue;
            for (std::size_t c = 0; c <= cols; ++c) a[r][c] -= f * a[pr][c];
        }
        const double f = obj[pc];
        if (std::abs(f) > kTol) {
            for (std::size_t c = 0; c <= cols; ++c) obj[c] -= f * a[pr][c];
        }
        basis[pr] = pc;
    }
};

enum class PhaseOutcome { Optimal, Unbounded, IterationLimit };

/// Runs simplex until no negative reduced cost remains. `allowed(c)` masks
/// columns that may enter (used to freeze artificials in phase 2).
template <typename ColumnFilter>
PhaseOutcome run_simplex(Tableau& t, int& iterations_left, ColumnFilter allowed) {
    int degenerate_streak = 0;
    while (iterations_left-- > 0) {
        // Entering column: Dantzig (most negative reduced cost); Bland
        // (lowest index with negative cost) after a degenerate streak.
        std::size_t pc = t.cols;
        if (degenerate_streak < 40) {
            double best = -kTol;
            for (std::size_t c = 0; c < t.cols; ++c) {
                if (allowed(c) && t.obj[c] < best) {
                    best = t.obj[c];
                    pc = c;
                }
            }
        } else {
            for (std::size_t c = 0; c < t.cols; ++c) {
                if (allowed(c) && t.obj[c] < -kTol) {
                    pc = c;
                    break;
                }
            }
        }
        if (pc == t.cols) return PhaseOutcome::Optimal;

        // Leaving row: min ratio test, ties broken by smallest basis index
        // (part of the Bland safeguard).
        std::size_t pr = t.rows;
        double best_ratio = std::numeric_limits<double>::infinity();
        for (std::size_t r = 0; r < t.rows; ++r) {
            if (t.a[r][pc] > kTol) {
                const double ratio = t.a[r][t.cols] / t.a[r][pc];
                if (ratio < best_ratio - kTol ||
                    (ratio < best_ratio + kTol && (pr == t.rows || t.basis[r] < t.basis[pr]))) {
                    best_ratio = ratio;
                    pr = r;
                }
            }
        }
        if (pr == t.rows) return PhaseOutcome::Unbounded;
        degenerate_streak = best_ratio < kTol ? degenerate_streak + 1 : 0;
        t.pivot(pr, pc);
    }
    return PhaseOutcome::IterationLimit;
}

}  // namespace

void LinearProgram::add_constraint(std::vector<double> coeffs, Relation rel, double rhs) {
    constraints.push_back({std::move(coeffs), rel, rhs});
}

LpResult solve_lp(const LinearProgram& lp, int max_iterations) {
    const std::size_t n = lp.variable_count();
    if (!lp.upper_bounds.empty() && lp.upper_bounds.size() != n)
        throw std::invalid_argument("upper_bounds size mismatch");

    // Materialize upper bounds as x_i <= ub rows so the core stays simple.
    std::vector<LinearProgram::Constraint> rows = lp.constraints;
    for (std::size_t i = 0; i < lp.upper_bounds.size(); ++i) {
        if (std::isfinite(lp.upper_bounds[i])) {
            std::vector<double> coeffs(n, 0.0);
            coeffs[i] = 1.0;
            rows.push_back({std::move(coeffs), LinearProgram::Relation::LessEq,
                            lp.upper_bounds[i]});
        }
    }
    const std::size_t m = rows.size();

    // Column counts: structural + one slack/surplus per inequality + one
    // artificial per >=/= row (and per <= row with negative rhs after
    // normalization, handled below by sign flip first).
    std::size_t slack_count = 0, art_count = 0;
    for (auto& c : rows) {
        c.coeffs.resize(n, 0.0);
        if (c.rhs < 0.0) {  // normalize rhs >= 0
            for (double& v : c.coeffs) v = -v;
            c.rhs = -c.rhs;
            if (c.rel == LinearProgram::Relation::LessEq)
                c.rel = LinearProgram::Relation::GreaterEq;
            else if (c.rel == LinearProgram::Relation::GreaterEq)
                c.rel = LinearProgram::Relation::LessEq;
        }
        if (c.rel != LinearProgram::Relation::Equal) ++slack_count;
        if (c.rel != LinearProgram::Relation::LessEq) ++art_count;
    }

    Tableau t;
    t.rows = m;
    t.cols = n + slack_count + art_count;
    t.a.assign(m, std::vector<double>(t.cols + 1, 0.0));
    t.basis.assign(m, 0);

    const std::size_t slack_base = n;
    const std::size_t art_base = n + slack_count;
    std::size_t next_slack = 0, next_art = 0;
    std::vector<std::size_t> artificial_cols;

    for (std::size_t r = 0; r < m; ++r) {
        const auto& c = rows[r];
        for (std::size_t j = 0; j < n; ++j) t.a[r][j] = c.coeffs[j];
        t.a[r][t.cols] = c.rhs;
        switch (c.rel) {
            case LinearProgram::Relation::LessEq:
                t.a[r][slack_base + next_slack] = 1.0;
                t.basis[r] = slack_base + next_slack++;
                break;
            case LinearProgram::Relation::GreaterEq:
                t.a[r][slack_base + next_slack] = -1.0;
                ++next_slack;
                t.a[r][art_base + next_art] = 1.0;
                t.basis[r] = art_base + next_art;
                artificial_cols.push_back(art_base + next_art++);
                break;
            case LinearProgram::Relation::Equal:
                t.a[r][art_base + next_art] = 1.0;
                t.basis[r] = art_base + next_art;
                artificial_cols.push_back(art_base + next_art++);
                break;
        }
    }

    LpResult result;
    int iterations_left = max_iterations;

    // Phase 1: minimize the sum of artificials.
    if (art_count > 0) {
        t.obj.assign(t.cols + 1, 0.0);
        for (const std::size_t c : artificial_cols) t.obj[c] = 1.0;
        // Price out the artificial basis.
        for (std::size_t r = 0; r < m; ++r) {
            if (t.basis[r] >= art_base) {
                for (std::size_t c = 0; c <= t.cols; ++c) t.obj[c] -= t.a[r][c];
            }
        }
        const PhaseOutcome out =
            run_simplex(t, iterations_left, [](std::size_t) { return true; });
        if (out == PhaseOutcome::IterationLimit) {
            result.status = LpResult::Status::IterationLimit;
            return result;
        }
        if (-t.obj[t.cols] > 1e-7) {
            result.status = LpResult::Status::Infeasible;
            return result;
        }
        // Drive any artificial still in the basis (at value 0) out of it.
        for (std::size_t r = 0; r < m; ++r) {
            if (t.basis[r] >= art_base) {
                for (std::size_t c = 0; c < art_base; ++c) {
                    if (std::abs(t.a[r][c]) > kTol) {
                        t.pivot(r, c);
                        break;
                    }
                }
            }
        }
    }

    // Phase 2: the real objective, artificials barred from re-entering.
    t.obj.assign(t.cols + 1, 0.0);
    for (std::size_t j = 0; j < n; ++j) t.obj[j] = lp.objective[j];
    for (std::size_t r = 0; r < m; ++r) {
        const double f = t.basis[r] < t.cols ? t.obj[t.basis[r]] : 0.0;
        if (std::abs(f) > kTol) {
            for (std::size_t c = 0; c <= t.cols; ++c) t.obj[c] -= f * t.a[r][c];
        }
    }
    const PhaseOutcome out = run_simplex(
        t, iterations_left, [&](std::size_t c) { return c < art_base; });
    if (out == PhaseOutcome::IterationLimit) {
        result.status = LpResult::Status::IterationLimit;
        return result;
    }
    if (out == PhaseOutcome::Unbounded) {
        result.status = LpResult::Status::Unbounded;
        return result;
    }

    result.status = LpResult::Status::Optimal;
    result.x.assign(n, 0.0);
    for (std::size_t r = 0; r < m; ++r) {
        if (t.basis[r] < n) result.x[t.basis[r]] = t.a[r][t.cols];
    }
    result.objective = 0.0;
    for (std::size_t j = 0; j < n; ++j) result.objective += lp.objective[j] * result.x[j];
    return result;
}

}  // namespace sag::oracles
