#pragma once

// Damage assessment: what a FailureSet actually costs the network.
//
// Given the deployed SagResult and a failure set, computes (1) the
// orphaned subscribers — SSs whose access link is no longer feasible
// (dead server, or a link failing core::check_link under the
// post-failure power vector) — and (2) the cut-off coverage RSs —
// survivors whose multi-hop path to every BS crosses a dead
// connectivity RS. The SNR side rides the incremental core::SnrField:
// the intact field is built once and the failures are applied as
// O(tracked) set_power deltas, not a scratch recomputation per what-if.

#include <vector>

#include "sag/core/sag.h"
#include "sag/core/scenario.h"
#include "sag/ids/ids.h"
#include "sag/resilience/failure.h"

namespace sag::resilience {

/// What the failures broke. Both lists are sorted ascending.
struct DamageReport {
    /// Subscribers that lost feasible coverage: dead serving RS, or a
    /// surviving server whose link fails core::check_link (distance /
    /// data rate / SNR) under the post-failure powers.
    std::vector<ids::SsId> orphaned;
    /// Surviving coverage RSs whose every path to a BS is severed (a
    /// dead connectivity RS, or a dead coverage RS they relayed through,
    /// sits on the root path). Their SSs still hear them — the backhaul
    /// is what needs repair.
    std::vector<ids::RsId> cut_off;
    std::size_t dead_coverage_rs = 0;
    std::size_t dead_connectivity_rs = 0;

    bool coverage_intact() const { return orphaned.empty(); }
    bool connectivity_intact() const { return cut_off.empty(); }
    bool intact() const { return coverage_intact() && connectivity_intact(); }
};

/// Assess the failures against the intact deployment: the SNR checks run
/// on the deployment's field with the post-failure powers applied.
DamageReport assess_damage(const core::Scenario& scenario,
                           const core::SagResult& deployment,
                           const FailureSet& failures);

}  // namespace sag::resilience
