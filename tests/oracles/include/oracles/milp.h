#pragma once

#include <cstddef>
#include <vector>

#include "oracles/lp.h"

namespace sag::oracles {

/// A mixed 0-1 integer linear program: the LinearProgram plus a mask of
/// variables constrained to {0, 1}. Solved by LP-relaxation branch &
/// bound (depth-first, most-fractional branching, incumbent pruning).
///
/// This is the second leg of the Gurobi substitution: the paper's ILPQC
/// (3.1)-(3.5) linearizes exactly into this form (big-M on the SNR rows),
/// giving an independent exact solver to cross-validate the specialized
/// set-cover search against (see ilpqc_milp.h). Intended for small
/// instances; the LP relaxation of big-M formulations is weak.
struct MilpProblem {
    LinearProgram lp;
    /// binary[i] == true -> variable i must be 0 or 1.
    std::vector<bool> binary;
};

struct MilpOptions {
    std::size_t node_limit = 200'000;
    /// Prune nodes whose LP bound is within this of the incumbent
    /// (objective granularity; 1 - eps is right for pure cardinality
    /// objectives, 0 for general ones).
    double bound_gap = 0.0;
    /// Wall-clock budget in seconds; 0 disables. Checked once per node
    /// (every node pays an LP solve, so per-node polling is cheap
    /// relative to the work it bounds). Mirrors
    /// opt::SetCoverBnBOptions::time_budget_seconds: on expiry the search
    /// stops and reports the incumbent found so far.
    double time_budget_seconds = 0.0;
};

struct MilpResult {
    /// NodeLimit covers both budget kinds (node count and wall clock);
    /// `budget_exhausted` distinguishes a timed-out search from a
    /// completed one, matching SetCoverResult's reporting.
    enum class Status { Optimal, Infeasible, NodeLimit };
    Status status = Status::Infeasible;
    double objective = 0.0;
    std::vector<double> x;
    std::size_t nodes = 0;
    /// True when the node limit or the wall-clock budget stopped the
    /// search before it proved optimality/infeasibility.
    bool budget_exhausted = false;

    bool optimal() const { return status == Status::Optimal; }
};

MilpResult solve_milp(const MilpProblem& problem, const MilpOptions& options = {});

}  // namespace sag::oracles
