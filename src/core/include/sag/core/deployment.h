#pragma once

#include <cstddef>
#include <vector>

#include "sag/geometry/vec2.h"
#include "sag/ids/ids.h"

namespace sag::core {

/// Lower-tier (LCRA) output: where the coverage RSs stand and which RS
/// serves each subscriber. Produced by the ILPQC solvers (IAC/GAC) and by
/// SAMC; consumed by PRO/LPQC power allocation and by the upper tier.
struct CoveragePlan {
    std::vector<geom::Vec2> rs_positions;
    /// Per subscriber (SsId-indexed): the serving RS (constraint (3.3):
    /// exactly one access link per SS). The typed container makes
    /// `assignment[rs_id]` — the classic swapped-index corruption — a
    /// compile error.
    ids::IdVec<ids::SsId, ids::RsId> assignment;
    bool feasible = false;
    /// True when the producing solver proved minimality (ILPQC within its
    /// node budget); heuristics leave it false.
    bool proven_optimal = false;
    /// Search effort (ILPQC nodes, or 0 for heuristics).
    std::size_t search_nodes = 0;

    std::size_t rs_count() const { return rs_positions.size(); }
    const geom::Vec2& rs_position(ids::RsId i) const {
        return rs_positions[i.index()];
    }
    ids::IdRange<ids::RsId> rs_ids() const {
        return ids::first_ids<ids::RsId>(rs_positions.size());
    }
    /// Each RS's served subscribers in SsId order: the inverse of
    /// `assignment`, in one pass. Entries naming no RS of the plan are
    /// left out.
    ids::IdVec<ids::RsId, std::vector<ids::SsId>> served_lists() const;
};

/// Throws std::invalid_argument unless `plan` assigns each of
/// `subscriber_count` subscribers to one of its RSs. The infeasible plans
/// some coverage solvers return hold RsId::invalid() entries. Every
/// consumer that indexes by the assignment calls it where it enters: the
/// lower-tier power allocators and the upper tier (MBMC, MUST, UCPO).
void require_assignment(const CoveragePlan& plan, std::size_t subscriber_count);

/// Node classes of the upper-tier relay tree.
enum class NodeKind { BaseStation, CoverageRs, ConnectivityRs };

/// Upper-tier (UCRA) output: a forest over base stations (roots), coverage
/// RSs, and steinerized connectivity RSs, plus per-node transmit powers for
/// the connectivity RSs. Index layout: 0..B-1 base stations, B..B+C-1
/// coverage RSs (same order as CoveragePlan::rs_positions), then
/// connectivity RSs.
struct ConnectivityPlan {
    std::vector<geom::Vec2> positions;
    std::vector<NodeKind> kinds;
    /// parent[i] == i marks a root (every base station is a root).
    std::vector<std::size_t> parent;
    /// Transmit power per node; meaningful for ConnectivityRs nodes (the
    /// paper's P_H sums only those), zero elsewhere.
    std::vector<double> powers;
    bool feasible = false;

    std::size_t node_count() const { return positions.size(); }
    std::size_t count(NodeKind kind) const;
    std::size_t connectivity_rs_count() const { return count(NodeKind::ConnectivityRs); }
    /// P_H: total transmit power of the placed connectivity RSs.
    double upper_tier_power() const;
};

}  // namespace sag::core
