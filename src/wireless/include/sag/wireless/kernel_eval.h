#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "sag/geometry/vec2.h"
#include "sag/units/units.h"
#include "sag/wireless/propagation.h"

namespace sag::wireless {

/// Batch GainKernel evaluation over structure-of-arrays buffers: the
/// Release-mode hot path behind SnrField builds and deltas. Two kernels,
/// the two the field runs: accumulate_rx moves every tracked total by
/// one RS's contribution, rx_total rebuilds one subscriber's total from
/// the RS columns.
///
/// Two implementations sit behind one runtime dispatch:
///
///   * scalar — byte-identical to the historical per-link loops
///     (std::hypot distance, std::pow power law, branchy Neumaier).
///     Always available.
///   * avx2 — 4-lane double vectors. Distances come from sqrt(dx²+dy²),
///     the power law from a sqrt/multiply chain (see
///     `kernel_simd_eligible`), the compensation from a blend-select
///     Neumaier that mirrors the scalar branches per lane. Agrees with
///     scalar to a few ulps per term (documented contract: 1e-12
///     relative, tested in simd_equivalence_test). The last n mod 4
///     elements run as one padded vector block, not a scalar tail, so
///     the kernels are position-independent: a link's gain is the same
///     double wherever it is computed, and element k of accumulate_rx
///     equals the same element computed alone in a one-element span.
///     That is what lets SnrField answer a what-if read for one
///     subscriber with exactly the arithmetic a full-column delta would
///     apply.
///
/// Dispatch is resolved once per process from the `SAG_SIMD` environment
/// variable ("auto" default, "scalar", "avx2") intersected with compile
/// support (CMake option SAG_SIMD) and cpuid. Kernels with shadowing or a
/// non-half-integer alpha always take the scalar path regardless of mode.
enum class SimdMode {
    Scalar,  ///< reference loops only
    Avx2,    ///< 4-lane AVX2 vectors; the n mod 4 tail is a padded block
};

/// The process-wide resolved mode (SAG_SIMD env ∩ build ∩ cpuid),
/// computed once on first use.
SimdMode active_simd_mode();

/// "scalar" / "avx2" — diagnostic name for a mode.
std::string_view simd_mode_name(SimdMode mode);

/// Doubles processed per vector operation under the active mode: 4 for
/// AVX2, 1 for scalar. Exported as the `snr_field.simd_lanes` gauge.
std::size_t simd_lanes();

/// True when `kernel` qualifies for the vector path: no shadowing
/// (sigma_db == 0 — faded links are per-link hashes, inherently scalar),
/// a non-negative clamp, and alpha a half-integer in [0.5, 8] so d^-alpha
/// reduces to an exact sqrt/multiply chain on d². Everything the paper
/// and the bundled models use (alpha ∈ [1, 6]) qualifies.
bool kernel_simd_eligible(const GainKernel& kernel);

/// Neumaier-accumulates `signed_power * gain(pos -> (xs[k], ys[k]))`
/// into (totals[k], comps[k]) for every k. The SnrField delta kernel:
/// sign is baked into the power (+p to add an RS contribution, -p to
/// retract it; negation is exact, so retraction subtracts the same
/// double). All four spans must have equal length. Into zeroed totals
/// at unit power, totals[k] is the link's dispatched gain bit for bit
/// (0 + 1·g, comp 0).
void accumulate_rx(const GainKernel& kernel, const geom::Vec2& pos,
                   units::Watt signed_power, units::MetersSpan xs,
                   units::MetersSpan ys, std::span<double> totals,
                   std::span<double> comps);

/// Neumaier-compensated total received power at `rx` from the RS SoA
/// columns (the from-scratch rebuild of one subscriber's total). Scalar
/// path is byte-identical to the historical recompute loop. The AVX2
/// path sums RS i into lane accumulator i mod 4 and masks the terms of
/// the padded tail's dead lanes to exact zeros, so trailing zero-power
/// RSs never change the result.
void rx_total(const GainKernel& kernel, const geom::Vec2& rx,
              units::MetersSpan rs_x, units::MetersSpan rs_y,
              units::WattSpan rs_power, double& total, double& comp);

/// rx_total for two power columns over the same RS positions: each
/// link's gain is evaluated once and feeds both Neumaier accumulations,
/// column c into (totals[c], comps[c]). Both columns run the one-column
/// body's arithmetic in its lane order, so each pair is bit for bit what
/// rx_total returns for that column alone, in every dispatch mode. Half
/// the gain evaluations of two calls: SnrField::paired builds two fields
/// from it.
void rx_total(const GainKernel& kernel, const geom::Vec2& rx,
              units::MetersSpan rs_x, units::MetersSpan rs_y,
              units::WattSpan power0, units::WattSpan power1,
              std::span<double, 2> totals, std::span<double, 2> comps);

namespace detail {

/// Decomposition of an eligible alpha for the vector power chain:
/// d^alpha = (d²)^(q/4) with q = 2*alpha an integer, i.e.
/// (d²)^a * (d²)^(b/4), a = q/4, b = q%4 — at most two square roots and
/// a short multiply ladder. `valid` is false for ineligible kernels.
struct PowPlan {
    int a = 0;
    int b = 0;
    bool valid = false;
};
PowPlan plan_pow(const GainKernel& kernel);

}  // namespace detail

}  // namespace sag::wireless
