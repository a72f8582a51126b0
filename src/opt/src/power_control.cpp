#include "sag/opt/power_control.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sag::opt {

PowerControlResult fixed_point_power_control(std::span<const double> floors,
                                             std::span<const double> caps,
                                             const RequiredPowerFn& required) {
    constexpr int kMaxIterations = 10'000;
    constexpr double kTolerance = 1e-10;  // max per-entry change at a fixed point
    const std::size_t n = floors.size();
    if (caps.size() != n) throw std::invalid_argument("floors/caps size mismatch");

    PowerControlResult result;
    result.powers.assign(floors.begin(), floors.end());
    for (std::size_t i = 0; i < n; ++i) {
        result.powers[i] = std::min(result.powers[i], caps[i]);
    }

    bool capped = false;
    for (; result.iterations < kMaxIterations; ++result.iterations) {
        double max_change = 0.0;
        capped = false;
        for (std::size_t i = 0; i < n; ++i) {
            double want = std::max(floors[i], required(i, result.powers));
            if (want > caps[i]) {
                // Requirements a hair above the cap (floating-point noise
                // from geometry sitting exactly on a coverage boundary) are
                // clamped silently; a material excess marks infeasibility.
                if (want > caps[i] + 1e-9 * std::max(1.0, std::abs(caps[i]))) {
                    capped = true;
                }
                want = caps[i];
            }
            max_change = std::max(max_change, std::abs(want - result.powers[i]));
            result.powers[i] = want;  // Gauss–Seidel update: converges faster
        }
        if (max_change < kTolerance) {
            result.converged = true;
            ++result.iterations;
            break;
        }
    }
    // At a fixed point, a clamped entry means its true requirement exceeds
    // the cap: infeasible.
    result.feasible = result.converged && !capped;
    return result;
}

}  // namespace sag::opt
