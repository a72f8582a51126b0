#include "sag/core/ilpqc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "sag/core/snr.h"
#include "sag/core/snr_field.h"
#include "sag/ids/ids.h"
#include "sag/obs/obs.h"
#include "sag/opt/set_cover.h"

namespace sag::core {

namespace {

/// Longest access link that can still clear the SNR threshold when the
/// only disturbance is the ambient noise (interference from other RSs can
/// only shorten it). Serving beyond this radius is provably infeasible,
/// so links longer than min(d_j, this) are dropped from the ILP up front —
/// a sound tightening that also detects infeasible thresholds instantly
/// (the Fig. 3d regime).
double noise_only_service_radius(const Scenario& scenario) {
    const units::Watt floor =
        scenario.snr_threshold() * scenario.radio.snr_ambient_noise;
    if (floor <= units::Watt{0.0}) return std::numeric_limits<double>::infinity();
    return scenario.range_for(scenario.rs_max_power(), floor).meters();
}

}  // namespace

CoveragePlan solve_ilpqc_coverage(const Scenario& scenario,
                                  std::span<const geom::Vec2> candidates,
                                  const IlpqcOptions& options) {
    SAG_OBS_SPAN("ilpqc.solve");
    CoveragePlan plan;
    const std::size_t n = scenario.subscriber_count();
    if (n == 0) {
        plan.feasible = true;
        plan.proven_optimal = true;
        return plan;
    }

    // Constraint (3.4): candidate i may serve subscriber j only when
    // d_ij <= d_j, further tightened by the noise-only SNR radius (3.5).
    // The set-cover instance is the generic opt-layer boundary: entity IDs
    // cross into it as raw element/set indices.
    const double snr_radius = noise_only_service_radius(scenario);
    opt::SetCoverInstance inst;
    inst.element_count = n;
    inst.sets.resize(candidates.size());
    for (const ids::CandId i : ids::first_ids<ids::CandId>(candidates.size())) {
        for (const ids::SsId j : scenario.ss_ids()) {
            const Subscriber& s = scenario.subscriber(j);
            const double limit = std::min(s.distance_request, snr_radius);
            if (geom::distance(candidates[i.index()], s.pos) <=
                limit + geom::kEps) {
                inst.sets[i.index()].push_back(j.index());
            }
        }
    }

    // Constraint (3.5) as the leaf oracle: with the chosen set at max
    // power, every subscriber's best in-range server must clear beta.
    // The incremental oracle diffs each query against the previous one,
    // so the branch-and-bound's stack-disciplined descent pays one
    // add/remove delta per changed candidate instead of rebuilding the
    // interference sums from scratch at every node. Retyping the opt
    // layer's raw chosen set is O(depth) per query — noise next to the
    // field deltas.
    opt::SetCoverBnBOptions bnb;
    bnb.node_budget = options.node_budget;
    bnb.time_budget_seconds = options.time_budget_seconds;
    // A placement larger than one RS per subscriber (plus a little padding
    // slack) is never useful; capping the search keeps infeasibility
    // proofs from enumerating absurd cover sizes.
    bnb.max_size = n + 4;

    SnrFeasibilityOracle snr_oracle(scenario, candidates);
    std::vector<ids::CandId> chosen_ids;
    const opt::CoverOracle oracle = [&](std::span<const std::size_t> chosen) {
        chosen_ids.clear();
        chosen_ids.reserve(chosen.size());
        for (const std::size_t c : chosen) chosen_ids.push_back(ids::CandId{c});
        return snr_oracle.feasible(chosen_ids);
    };
    const opt::SetCoverBnBResult result = opt::solve_set_cover_bnb(inst, oracle, bnb);

    plan.search_nodes = result.nodes_explored;
    SAG_OBS_COUNT_ADD("ilpqc.bnb.nodes", result.nodes_explored);
    plan.proven_optimal = result.proven_optimal;
    if (!result.feasible) return plan;

    for (const std::size_t i : result.chosen) plan.rs_positions.push_back(candidates[i]);
    auto assignment = nearest_assignment(scenario, plan.rs_positions);
    if (!assignment) return plan;  // should not happen for a valid cover
    plan.assignment = std::move(*assignment);
    plan.feasible = true;
    return plan;
}

}  // namespace sag::core
