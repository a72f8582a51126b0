#pragma once

#include <vector>

namespace sag::oracles {

/// A small dense linear program:
///   minimize    c . x
///   subject to  each Constraint (coeffs . x REL rhs)
///               0 <= x_i <= upper_bounds[i] (infinity when absent)
///
/// The independent check on the Gurobi stand-in for the paper's LPQC
/// power-allocation step: with a fixed coverage topology the quadratic SNR
/// constraints become linear in the transmit powers, so an exact LP solve
/// recovers the paper's "optimal" curve, which the Yates fixed point
/// (core::allocate_power_optimal) must match. Solved with a two-phase
/// full-tableau primal simplex (Dantzig rule with a Bland fallback against
/// cycling). Problem sizes here are tens of variables, so dense is
/// appropriate.
struct LinearProgram {
    enum class Relation { LessEq, GreaterEq, Equal };

    struct Constraint {
        std::vector<double> coeffs;  ///< one per variable; missing tail = 0
        Relation rel = Relation::LessEq;
        double rhs = 0.0;
    };

    std::vector<double> objective;        ///< c, one per variable
    std::vector<Constraint> constraints;
    std::vector<double> upper_bounds;     ///< optional; empty = all unbounded

    std::size_t variable_count() const { return objective.size(); }

    /// Convenience builders.
    void add_constraint(std::vector<double> coeffs, Relation rel, double rhs);
};

struct LpResult {
    enum class Status { Optimal, Infeasible, Unbounded, IterationLimit };
    Status status = Status::Infeasible;
    double objective = 0.0;
    std::vector<double> x;

    bool optimal() const { return status == Status::Optimal; }
};

/// Solves the LP; `max_iterations` bounds total simplex pivots.
LpResult solve_lp(const LinearProgram& lp, int max_iterations = 20000);

}  // namespace sag::oracles
