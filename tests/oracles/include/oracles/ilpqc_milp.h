#pragma once

#include <span>

#include "sag/core/deployment.h"
#include "sag/core/scenario.h"
#include "oracles/milp.h"

namespace sag::oracles {

/// The paper's ILPQC (3.1)-(3.5) transcribed *literally* as a 0-1 MILP:
/// placement variables T_i, assignment variables T_ij (only for in-range
/// pairs, which encodes (3.4)), coverage coupling T_ij <= T_i and
/// T_i <= sum_j T_ij (3.2), unique assignment sum_i T_ij = 1 (3.3), and
/// the quadratic SNR constraint (3.5) linearized exactly with big-M (the
/// denominator is linear in T once the serving indicator is fixed):
///   g_ij + M(1 - T_ij) >= beta * (sum_{k != i} g_kj T_k + N_amb).
///
/// This is deliberately the *slow, general* route — the independent
/// cross-check for the specialized set-cover branch & bound in
/// core::solve_ilpqc_coverage. Use on small instances only (the big-M LP
/// relaxation is weak); tests assert both solvers agree on RS counts.
MilpProblem build_ilpqc_milp(const core::Scenario& scenario,
                             std::span<const geom::Vec2> candidates);

/// Solves the MILP and converts the T variables back into a CoveragePlan
/// (assignment from the T_ij values). Infeasible or node-limited runs
/// return plan.feasible == false.
core::CoveragePlan solve_ilpqc_milp(const core::Scenario& scenario,
                                    std::span<const geom::Vec2> candidates,
                                    const MilpOptions& options = {});

}  // namespace sag::oracles
