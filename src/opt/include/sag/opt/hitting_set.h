#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sag/geometry/circle.h"

namespace sag::opt {

/// Options for the geometric hitting-set solver.
struct HittingSetOptions {
    /// Largest local-search swap: replace `t` chosen points by `t-1`
    /// candidates. Mustafa & Ray's PTAS [SCG'09] uses unbounded swaps;
    /// swaps of size <= 3 already recover their quality at the paper's
    /// instance sizes (see bench_ablation_hitting_set). A pass skips its
    /// 3->2 swaps when chosen-count * candidate-count exceeds 4'000'000: a
    /// fixed cost guard on the largest neighbourhood that does not bind at
    /// the ablation's sizes (up to 160 disks).
    int max_swap = 2;
    /// Upper bound on local-search improvement passes.
    int max_passes = 64;
};

/// Candidate hitting points for a disk family: every disk center plus all
/// pairwise boundary intersection points (deduplicated). Any disk family
/// with a non-empty hitting set admits one drawn from these candidates.
/// Only near pairs can intersect; geom::near_pairs (sag/geometry/sweep.h)
/// sweeps the x-sorted centers for them, so the cost follows the overlap,
/// not all n^2 pairs.
std::vector<geom::Vec2> disk_hitting_candidates(std::span<const geom::Circle> disks);

/// Minimum hitting set for closed disks (paper §III-A1 step "Minimum
/// Hitting Set"): returns points such that every disk contains at least
/// one. Greedy set cover over disk_hitting_candidates() followed by
/// bounded local search. Empty input -> empty result; a disk family is
/// always hittable (each disk contains its center).
///
/// Cost: a sparse index holds each candidate's disks and each disk's
/// candidates (its size is the `opt.hitting_set.membership_entries`
/// counter), and the local search keeps a per-disk hit count current
/// through every move. So a (1,0) probe reads one hit list; a (2,1) probe
/// reads the pair's hit lists plus the hit lists of the candidates that
/// cover one unhit disk; a (3,2) probe repeats that for each first
/// candidate covering an unhit disk. No probe rescans the chosen set or
/// every candidate.
std::vector<geom::Vec2> geometric_hitting_set(std::span<const geom::Circle> disks,
                                              const HittingSetOptions& options = {});

/// Batch form: out[z] = geometric_hitting_set(instances[z], options) for
/// every zone z. With `threads != 1` the zones fan out across a
/// sag::exec thread pool (0 = exec default, i.e. SAG_THREADS env /
/// hardware concurrency); each zone is solved independently into its
/// own indexed output slot, so results are deterministic and identical
/// to the serial loop regardless of scheduling. This is the SAMC
/// per-zone parallelism seam (Algorithm 1 treats zones independently).
std::vector<std::vector<geom::Vec2>> geometric_hitting_sets(
    std::span<const std::vector<geom::Circle>> instances,
    const HittingSetOptions& options = {}, std::size_t threads = 1);

}  // namespace sag::opt
