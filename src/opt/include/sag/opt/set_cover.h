#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace sag::opt {

/// A set-cover instance: `sets[i]` lists the element indices candidate i
/// covers; elements are 0..element_count-1.
struct SetCoverInstance {
    std::size_t element_count = 0;
    std::vector<std::vector<std::size_t>> sets;

    /// Inverse index: for each element, the candidates covering it.
    std::vector<std::vector<std::size_t>> covering_sets() const;
    /// True when every element is covered by at least one candidate.
    bool coverable() const;
};

/// Classic greedy (ln n)-approximation; returns chosen set indices or an
/// empty optional when some element is uncoverable.
std::optional<std::vector<std::size_t>> greedy_set_cover(const SetCoverInstance& inst);

/// Extra acceptance test applied to complete covers. The SAG ILPQC uses
/// this to impose the quadratic SNR constraint (3.5): a cover is a valid
/// relay placement only if every subscriber's SNR clears the threshold
/// under the chosen candidate set. Must be side-effect free.
using CoverOracle = std::function<bool(std::span<const std::size_t>)>;

/// Builds a fresh, independently stateful CoverOracle. The parallel
/// branch-and-bound gives every root branch its own oracle instance, so a
/// stateful oracle (e.g. the incremental SnrFeasibilityOracle) never sees
/// interleaved queries from two subtrees. Must be safe to invoke
/// concurrently; each returned oracle is used by one thread at a time.
using CoverOracleFactory = std::function<CoverOracle()>;

struct SetCoverBnBOptions {
    /// Search-node budget; when exhausted the solver returns the best
    /// oracle-feasible cover found so far (anytime behaviour mirroring a
    /// MIP time limit). Serial: one budget across all depths. Parallel:
    /// each root branch of each deepening level gets this budget for its
    /// subtree (documented semantics — results stay
    /// scheduling-independent because every subtree's cutoff is its own).
    std::size_t node_budget = 4'000'000;
    /// Wall-clock limit in seconds (checked every 1024 nodes); 0 or
    /// negative disables it. Infeasibility proofs with expensive oracles
    /// are the main consumer — this is the direct analogue of a MIP time
    /// limit.
    double time_budget_seconds = 0.0;
    /// Hard cap on solution size; defaults to the number of candidates.
    std::size_t max_size = SIZE_MAX;
    /// Worker threads for solve_set_cover_bnb_parallel: 1 = explore root
    /// branches on the calling thread, 0 = the exec default
    /// (SAG_THREADS env / hardware concurrency). Ignored by the serial
    /// solve_set_cover_bnb.
    std::size_t threads = 1;
};

struct SetCoverBnBResult {
    std::vector<std::size_t> chosen;  ///< empty when infeasible
    bool feasible = false;
    bool proven_optimal = false;      ///< false when the node budget ran out
    std::size_t nodes_explored = 0;
};

/// Exact (budget-permitting) minimum set cover subject to a cover oracle,
/// via iterative-deepening DFS: try target sizes k = LB, LB+1, ... and
/// enumerate covers of size exactly k, branching on the uncovered element
/// with the fewest remaining candidates. A cover that is complete below
/// size k is padded with extra sets up to k: with an interference oracle a
/// larger placement is occasionally feasible when no minimal one is,
/// because it shortens access links. This reproduces what the paper
/// obtains from Gurobi on the ILPQC (§III-A1), including its practical
/// memory/time ceiling.
SetCoverBnBResult solve_set_cover_bnb(const SetCoverInstance& inst,
                                      const CoverOracle& oracle,
                                      const SetCoverBnBOptions& options = {});

/// Parallel variant of solve_set_cover_bnb with deterministic merging:
/// each iterative-deepening level splits at the root pivot's branches
/// (the exact branch order the serial DFS would try) and explores every
/// branch's subtree concurrently, each with its own oracle from
/// `oracle_factory` and its own node budget. The merged winner is the
/// lowest-ordered successful branch, so the chosen cover is independent
/// of thread scheduling — and identical to the serial solver's whenever
/// the budget is ample (tested). `proven_optimal` additionally requires
/// that no earlier deepening level exhausted a branch budget (a smaller
/// cover can only hide behind an exhausted smaller level).
SetCoverBnBResult solve_set_cover_bnb_parallel(
    const SetCoverInstance& inst, const CoverOracleFactory& oracle_factory,
    const SetCoverBnBOptions& options = {});

/// Lower bound on the optimal cover size: greedily extracts elements whose
/// candidate sets are pairwise disjoint (each needs a distinct set).
std::size_t disjoint_elements_lower_bound(const SetCoverInstance& inst);

}  // namespace sag::opt
