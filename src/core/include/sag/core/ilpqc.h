#pragma once

#include <span>

#include "sag/core/deployment.h"
#include "sag/core/scenario.h"

namespace sag::core {

/// Controls for the ILPQC branch-and-bound (the Gurobi stand-in).
struct IlpqcOptions {
    /// Search-node budget; exceeded -> best anytime solution, not proven
    /// optimal (mirrors the paper's Gurobi time/memory ceiling).
    std::size_t node_budget = 2'000'000;
    /// Wall-clock limit in seconds (0 disables). Mainly caps the cost of
    /// infeasibility proofs on SNR-tight instances.
    double time_budget_seconds = 0.0;
    /// Worker threads for the branch-and-bound: 1 = the serial solver,
    /// 0 = exec default (SAG_THREADS env / hardware concurrency), else
    /// that many. Any value != 1 routes through the deterministic
    /// parallel solver (opt::solve_set_cover_bnb_parallel) with one
    /// incremental SNR oracle per root branch; with an ample node budget
    /// the chosen cover matches the serial solver's exactly. Note the
    /// node budget then applies per root branch, not globally.
    std::size_t threads = 1;
};

/// Solves the paper's ILPQC (3.1)-(3.5): minimum number of candidate
/// positions such that every subscriber has an in-range access link and
/// clears the SNR threshold with all chosen RSs at max power. `candidates`
/// come from iac_candidates() or gac_candidates(). A plan may place more
/// RSs than a minimal cover when the extra RS is what makes the SNR
/// constraint satisfiable. Returns an infeasible
/// plan (feasible == false) when no choice of candidates works — the
/// paper's "IAC/GAC returns infeasible model" outcome in Fig. 3d.
CoveragePlan solve_ilpqc_coverage(const Scenario& scenario,
                                  std::span<const geom::Vec2> candidates,
                                  const IlpqcOptions& options = {});

}  // namespace sag::core
