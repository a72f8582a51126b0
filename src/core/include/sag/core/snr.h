#pragma once

#include <optional>
#include <span>

#include "sag/core/scenario.h"
#include "sag/ids/ids.h"

namespace sag::core {

/// SNR-optimal feasible assignment: each subscriber in `subs` picks the
/// nearest RS within its distance request (nearest maximizes the received
/// signal and hence, with the interference fixed by the RS set, the SNR).
/// The result is indexed tracked-locally (slot k serves subs[k]). Returns
/// nullopt when some subscriber has no RS in range.
std::optional<ids::IdVec<ids::SsId, ids::RsId>> nearest_assignment(
    const Scenario& scenario, std::span<const geom::Vec2> rs_positions,
    std::span<const ids::SsId> subs);

/// All-subscriber overload (subs = 0..n-1).
std::optional<ids::IdVec<ids::SsId, ids::RsId>> nearest_assignment(
    const Scenario& scenario, std::span<const geom::Vec2> rs_positions);

}  // namespace sag::core
