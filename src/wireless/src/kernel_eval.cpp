#include "sag/wireless/kernel_eval.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <string_view>

namespace sag::wireless {

namespace detail {

#ifndef SAG_SIMD_DISABLED
// Implemented in kernel_eval_avx2.cpp (compiled with -mavx2); only ever
// called after the runtime cpuid check passes. Each covers all n
// elements, running the n mod 4 remainder as one padded vector block,
// so an element's value does not depend on its array position.
void accumulate_rx_avx2(const GainKernel& kernel, const geom::Vec2& pos,
                        units::Watt signed_power, const double* xs,
                        const double* ys, double* totals, double* comps,
                        std::size_t n);
void rx_total_avx2(const GainKernel& kernel, const geom::Vec2& rx,
                   const double* rs_x, const double* rs_y,
                   std::span<const double* const> rs_power, std::size_t n,
                   double* totals, double* comps);
bool cpu_has_avx2();
#endif

PowPlan plan_pow(const GainKernel& kernel) {
    PowPlan plan;
    if (kernel.sigma_db != 0.0) return plan;
    if (!(kernel.clamp_m >= 0.0)) return plan;
    if (!std::isfinite(kernel.alpha) || !std::isfinite(kernel.scale)) return plan;
    const double q = kernel.alpha * 2.0;
    const double rounded = std::nearbyint(q);
    if (q != rounded || rounded < 1.0 || rounded > 16.0) return plan;
    const int qi = static_cast<int>(rounded);
    plan.a = qi / 4;
    plan.b = qi % 4;
    plan.valid = true;
    return plan;
}

namespace {

SimdMode resolve_mode() {
#ifdef SAG_SIMD_DISABLED
    return SimdMode::Scalar;
#else
    const char* env = std::getenv("SAG_SIMD");
    const std::string_view requested = env == nullptr ? "auto" : env;
    if (requested == "scalar") return SimdMode::Scalar;
    const bool supported = cpu_has_avx2();
    if (requested == "avx2") {
        // An explicit request on an unsupported CPU degrades to scalar
        // rather than crashing on an illegal instruction.
        return supported ? SimdMode::Avx2 : SimdMode::Scalar;
    }
    return supported ? SimdMode::Avx2 : SimdMode::Scalar;  // "auto"
#endif
}

/// The one historical per-link evaluation: hypot distance, pow power law.
/// Every scalar loop below goes through this so "byte-identical to the
/// pre-SoA SnrField" stays a single-point fact.
inline double scalar_gain(const GainKernel& kernel, const geom::Vec2& tx,
                          const geom::Vec2& rx) {
    return kernel.gain(tx, rx, geom::distance(tx, rx));
}

/// Branchy Neumaier step, exactly SnrField::accumulate's arithmetic.
inline void neumaier(double& total, double& comp, double term) {
    const double sum = total + term;
    if (std::abs(total) >= std::abs(term)) {
        comp += (total - sum) + term;
    } else {
        comp += (term - sum) + total;
    }
    total = sum;
}

void accumulate_rx_scalar(const GainKernel& kernel, const geom::Vec2& pos,
                          units::Watt signed_power, const double* xs,
                          const double* ys, double* totals, double* comps,
                          std::size_t n) {
    const double p = signed_power.watts();
    for (std::size_t k = 0; k < n; ++k) {
        const double term = p * scalar_gain(kernel, pos, {xs[k], ys[k]});
        neumaier(totals[k], comps[k], term);
    }
}

/// Both rx_total forms: C power columns, one gain per link feeding
/// column c's Neumaier pair (totals[c], comps[c]).
template <std::size_t C>
void rx_total_scalar(const GainKernel& kernel, const geom::Vec2& rx,
                     const double* rs_x, const double* rs_y,
                     const double* const* rs_power, std::size_t n,
                     double* totals, double* comps) {
    for (std::size_t i = 0; i < n; ++i) {
        const double g = scalar_gain(kernel, {rs_x[i], rs_y[i]}, rx);
        for (std::size_t c = 0; c < C; ++c) {
            neumaier(totals[c], comps[c], rs_power[c][i] * g);
        }
    }
}

#ifndef SAG_SIMD_DISABLED
/// True when this call should take the vector path.
inline bool use_avx2(const GainKernel& kernel) {
    return active_simd_mode() == SimdMode::Avx2 && plan_pow(kernel).valid;
}
#endif

/// Both rx_total forms behind the dispatch: the totals of one or two
/// power columns over the same RS columns, each started from zero.
void rx_total_columns(const GainKernel& kernel, const geom::Vec2& rx,
                      units::MetersSpan rs_x, units::MetersSpan rs_y,
                      std::span<const double* const> rs_power,
                      double* totals, double* comps) {
    const std::size_t n = rs_x.size();
    assert(rs_y.size() == n);
    assert(rs_power.size() == 1 || rs_power.size() == 2);
    std::fill_n(totals, rs_power.size(), 0.0);
    std::fill_n(comps, rs_power.size(), 0.0);
#ifndef SAG_SIMD_DISABLED
    if (use_avx2(kernel)) {
        rx_total_avx2(kernel, rx, rs_x.data(), rs_y.data(), rs_power, n,
                      totals, comps);
        return;
    }
#endif
    if (rs_power.size() == 1) {
        rx_total_scalar<1>(kernel, rx, rs_x.data(), rs_y.data(),
                           rs_power.data(), n, totals, comps);
    } else {
        rx_total_scalar<2>(kernel, rx, rs_x.data(), rs_y.data(),
                           rs_power.data(), n, totals, comps);
    }
}

}  // namespace

}  // namespace detail

SimdMode active_simd_mode() {
    static const SimdMode mode = detail::resolve_mode();
    return mode;
}

std::string_view simd_mode_name(SimdMode mode) {
    return mode == SimdMode::Avx2 ? "avx2" : "scalar";
}

std::size_t simd_lanes() {
    return active_simd_mode() == SimdMode::Avx2 ? 4 : 1;
}

void accumulate_rx(const GainKernel& kernel, const geom::Vec2& pos,
                   units::Watt signed_power, units::MetersSpan xs,
                   units::MetersSpan ys, std::span<double> totals,
                   std::span<double> comps) {
    const std::size_t n = xs.size();
    assert(ys.size() == n && totals.size() == n && comps.size() == n);
#ifndef SAG_SIMD_DISABLED
    if (detail::use_avx2(kernel)) {
        detail::accumulate_rx_avx2(kernel, pos, signed_power, xs.data(),
                                   ys.data(), totals.data(), comps.data(), n);
        return;
    }
#endif
    detail::accumulate_rx_scalar(kernel, pos, signed_power, xs.data(),
                                 ys.data(), totals.data(), comps.data(), n);
}

void rx_total(const GainKernel& kernel, const geom::Vec2& rx,
              units::MetersSpan rs_x, units::MetersSpan rs_y,
              units::WattSpan rs_power, double& total, double& comp) {
    assert(rs_power.size() == rs_x.size());
    const double* const columns[] = {rs_power.data()};
    detail::rx_total_columns(kernel, rx, rs_x, rs_y, columns, &total, &comp);
}

void rx_total(const GainKernel& kernel, const geom::Vec2& rx,
              units::MetersSpan rs_x, units::MetersSpan rs_y,
              units::WattSpan power0, units::WattSpan power1,
              std::span<double, 2> totals, std::span<double, 2> comps) {
    assert(power0.size() == rs_x.size() && power1.size() == rs_x.size());
    const double* const columns[] = {power0.data(), power1.data()};
    detail::rx_total_columns(kernel, rx, rs_x, rs_y, columns, totals.data(),
                             comps.data());
}

}  // namespace sag::wireless
