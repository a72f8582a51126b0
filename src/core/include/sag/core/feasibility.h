#pragma once

#include <span>
#include <string>
#include <vector>

#include "sag/core/deployment.h"
#include "sag/core/scenario.h"
#include "sag/core/snr_field.h"
#include "sag/ids/ids.h"

namespace sag::core {

/// Per-subscriber verdicts from the coverage verifier. rate_ok and
/// snr_ok are evaluated only when distance_ok holds.
struct SubscriberCheck {
    ids::RsId serving_rs = ids::RsId::invalid();
    double access_distance = 0.0;
    bool distance_ok = false;   ///< d(s_j, rs) <= d_j
    bool rate_ok = false;       ///< received power >= P^j_ss
    bool snr_ok = false;        ///< SNR >= beta
    double snr_db = 0.0;

    /// The link is feasible (paper Definition 1).
    bool ok() const { return distance_ok && rate_ok && snr_ok; }
};

/// The one access-link verdict (paper Definition 1, constraints
/// (3.3)-(3.5)): tracked slot k of `field` served by RS `serving` at its
/// field power must lie within d_j + 1e-6, receive at least
/// P^j_ss * (1 - 1e-9), and see an SNR of at least beta * (1 - 1e-9).
/// Distance is tested first: a link beyond reach returns at once. The
/// gain is evaluated once; snr_db is left to the caller. O(1).
SubscriberCheck check_link(const SnrField& field, ids::SsId k, ids::RsId serving);

struct CoverageReport {
    bool feasible = false;
    ids::IdVec<ids::SsId, SubscriberCheck> subscribers;
    std::size_t violations = 0;
};

/// Independent end-to-end check of a lower-tier solution: check_link for
/// every subscriber on a field built from scratch at explicit RS powers.
/// Used by the power allocators' final audits, by tests and by the
/// benchmark harness to reject silently-broken plans.
CoverageReport verify_coverage(const Scenario& scenario, const CoveragePlan& plan,
                               std::span<const double> powers);

/// The same audit on a field the caller already built from scratch:
/// `field` tracks every subscriber of its scenario and holds `plan`'s RSs
/// in plan order at the powers under audit, and `plan` is well-formed
/// (one in-range RS per subscriber). It then reports exactly what
/// verify_coverage(field.scenario(), plan, field.rs_powers()) would.
/// allocate_power_capped audits its certified fixed point this way.
CoverageReport verify_coverage(const SnrField& field, const CoveragePlan& plan);

/// Same, with every RS at max power (the LCRA placement assumption).
CoverageReport verify_coverage_max_power(const Scenario& scenario,
                                         const CoveragePlan& plan);

struct ConnectivityReport {
    bool feasible = false;
    /// Every non-root reaches a BaseStation root.
    bool all_rooted = false;
    /// Each hop (node -> parent) is no longer than the node's allowed hop
    /// length (min distance request over the coverage RSs beneath it).
    bool hops_ok = false;
    std::size_t violations = 0;
    std::string detail;
};

/// Structural check of an upper-tier solution against its coverage plan.
ConnectivityReport verify_connectivity(const Scenario& scenario,
                                       const CoveragePlan& coverage,
                                       const ConnectivityPlan& plan);

}  // namespace sag::core
