#pragma once

#include <span>
#include <vector>

#include "sag/core/deployment.h"
#include "sag/core/scenario.h"
#include "sag/ids/ids.h"
#include "sag/opt/hitting_set.h"

namespace sag::core {

/// Tuning knobs for SAMC (paper Algorithm 1 and subroutines 2-5).
struct SamcOptions {
    /// Hitting-set quality (local-search swap size etc.).
    opt::HittingSetOptions hitting_set{};
    /// Extra repair move beyond the paper's Algorithms 4-5: re-serve a
    /// violated subscriber from its nearest in-range RS. Switching the
    /// serving RS changes only that subscriber's SNR (interference is the
    /// total received power minus the serving signal), so the move is
    /// always safe and measurably extends SAMC's feasibility range at
    /// tight thresholds. Off reproduces the paper's algorithm verbatim.
    bool allow_reassignment = true;
};

/// SAMC output: the coverage plan plus the zones it was solved over
/// (ZoneId-indexed groups of scenario-global SsIds).
struct SamcResult {
    CoveragePlan plan;
    ids::IdVec<ids::ZoneId, std::vector<ids::SsId>> zones;
};

/// SNR-Aware Minimum Coverage (paper Algorithm 1): Zone Partition ->
/// per-zone geometric minimum hitting set -> Coverage Link Escape ->
/// RS Sliding Movement / Update RS Topology. Never adds or removes RSs
/// while repairing SNR, so the RS count equals the hitting set's; if any
/// zone cannot be repaired the plan comes back infeasible (empty zone
/// result, paper Algorithm 1 Step 5).
SamcResult solve_samc(const Scenario& scenario, const SamcOptions& options = {});

/// Internals exposed for unit testing and for the ablation benches.
/// ID spaces here are zone-local: SsId is a slot into `subs`, RsId a slot
/// into the zone's point set — the types guard the entity kind across the
/// SS<->RS pairing, which is exactly where the old size_t code could swap
/// the two without a diagnostic.
namespace samc_detail {

/// The bipartite SS<->RS-point pairing produced by Coverage Link Escape.
struct ZoneAssignment {
    std::vector<geom::Vec2> points;  ///< RS positions for this zone
    /// Per zone-subscriber: the serving point, RsId::invalid() while
    /// unclaimed (never in a returned assignment — the hitting set covers
    /// every subscriber).
    ids::IdVec<ids::SsId, ids::RsId> serving;
};

/// Coverage Link Escape (Algorithm 3): pair every subscriber with exactly
/// one hitting-set point, greedily letting the highest-degree point claim
/// its subscribers first; this maximizes later one-on-one coverage.
/// `subs` are scenario-global SsIds, `points` the hitting set.
ZoneAssignment coverage_link_escape(const Scenario& scenario,
                                    std::span<const ids::SsId> subs,
                                    std::span<const geom::Vec2> points);

struct SlideResult {
    std::vector<geom::Vec2> points;
    ids::IdVec<ids::SsId, ids::RsId> serving;
    bool feasible = false;
    int rounds = 0;  ///< committed Update-RS-Topology rounds
};

/// RS Sliding Movement + Update RS Topology (Algorithms 4 & 5): moves
/// one-on-one RSs onto their subscriber, then relocates multi-cover RSs
/// within the common region of their subscribers' feasible/virtual circles
/// until every zone subscriber clears the SNR threshold, or reports
/// infeasible when no relocation combination keeps shrinking the violated
/// set. Runs at most 64 improvement rounds, each trying at most 4096
/// relocation combinations.
SlideResult sliding_movement(const Scenario& scenario,
                             std::span<const ids::SsId> subs,
                             const ZoneAssignment& assignment,
                             const SamcOptions& options);

}  // namespace samc_detail

}  // namespace sag::core
