#include "oracles/snr.h"

#include "sag/core/snr.h"
#include "sag/core/snr_field.h"

namespace sag::oracles {

bool snr_feasible_at_max_power(const core::Scenario& scenario,
                               std::span<const geom::Vec2> rs_positions,
                               std::span<const ids::SsId> subs) {
    const auto assignment = core::nearest_assignment(scenario, rs_positions, subs);
    if (!assignment) return false;
    const core::SnrField field =
        core::SnrField::at_max_power(scenario, rs_positions, subs);
    return field.all_meet_threshold(*assignment);
}

}  // namespace sag::oracles
