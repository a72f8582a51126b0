#pragma once

#include <functional>
#include <span>
#include <vector>

namespace sag::opt {

/// Per-transmitter minimum power needed to satisfy transmitter `i`'s own
/// constraints given everybody's current powers. For SAG this evaluates
/// "coverage power Pc and SNR power Psnr" of §III-A2: the interference
/// terms make it depend on the other entries of `powers`.
/// Must be a *standard interference function* in Yates' sense (positive,
/// monotone, scalable) for the convergence guarantee to apply — all SNR
/// constraints of the form (3.9) are.
using RequiredPowerFn =
    std::function<double(std::size_t i, std::span<const double> powers)>;

struct PowerControlResult {
    std::vector<double> powers;
    bool converged = false;   ///< reached a fixed point within 10'000 iterations
    bool feasible = false;    ///< fixed point respects every cap
    int iterations = 0;
};

/// Yates (1995) fixed-point power control:
///   P_i <- max(floor_i, required(i, P)), clamped to caps.
/// Starting from the floors and iterating a standard interference function
/// converges monotonically to the *minimal* feasible power vector — i.e.
/// the exact optimum of the paper's LPQC (3.6)-(3.9) — or detects
/// infeasibility when the fixed point exceeds a cap. A sweep that changes
/// no entry by 1e-10 or more is the fixed point.
PowerControlResult fixed_point_power_control(std::span<const double> floors,
                                             std::span<const double> caps,
                                             const RequiredPowerFn& required);

/// The loop's cap rule: a requirement more than 1e-9 relative (at least
/// 1e-9 absolute) above its cap marks infeasibility. Anything closer is
/// floating-point noise from geometry sitting exactly on a coverage
/// boundary, and the loop clamps it silently.
bool exceeds_cap(double want, double cap);

}  // namespace sag::opt
