#pragma once

#include <span>
#include <string>
#include <vector>

#include "sag/core/deployment.h"
#include "sag/core/scenario.h"
#include "sag/ids/ids.h"

namespace sag::core {

/// Per-subscriber verdicts from the coverage verifier.
struct SubscriberCheck {
    ids::RsId serving_rs = ids::RsId::invalid();
    double access_distance = 0.0;
    bool distance_ok = false;   ///< d(s_j, rs) <= d_j
    bool rate_ok = false;       ///< received power >= P^j_ss
    bool snr_ok = false;        ///< SNR >= beta
    double snr_db = 0.0;
};

struct CoverageReport {
    bool feasible = false;
    ids::IdVec<ids::SsId, SubscriberCheck> subscribers;
    std::size_t violations = 0;
};

/// Independent end-to-end check of a lower-tier solution: distance, data
/// rate and SNR for every subscriber, given explicit RS powers. Used by
/// tests and by the benchmark harness to reject silently-broken plans.
CoverageReport verify_coverage(const Scenario& scenario, const CoveragePlan& plan,
                               std::span<const double> powers);

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
