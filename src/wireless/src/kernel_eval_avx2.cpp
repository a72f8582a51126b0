// AVX2 lanes of the batch kernel evaluators. This TU is compiled with
// -mavx2 (CMake option SAG_SIMD) and must only be *entered* after the
// runtime cpuid check in kernel_eval.cpp passes — except cpu_has_avx2(),
// which is the check itself.
//
// Numerical contract (docs/PERFORMANCE.md): distances are sqrt(dx²+dy²)
// instead of std::hypot, and d^-alpha is an exact-half-integer
// sqrt/multiply chain on d² instead of std::pow, so each term agrees
// with the scalar path to a few ulps (tested bound: 1e-12 relative).
// The Neumaier compensation itself is branch-for-branch the scalar
// algorithm, evaluated per lane with compare+blend. Each kernel covers
// all n elements: the n mod 4 remainder runs as one padded block
// (Tail4), so a link's gain is its gain4 lane value wherever it is
// computed, and an element of accumulate_rx comes out the same alone as
// inside any column.

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>

#include "sag/wireless/kernel_eval.h"

namespace sag::wireless::detail {

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

namespace {

/// (d²)^(q/4) for q = plan.a*4 + plan.b: integer-power ladder on d² plus
/// at most two square roots for the fractional part.
inline __m256d pow_chain(__m256d d2, const PowPlan& plan) {
    __m256d acc = _mm256_set1_pd(1.0);
    __m256d base = d2;
    for (int e = plan.a; e > 0; e >>= 1) {
        if (e & 1) acc = _mm256_mul_pd(acc, base);
        if (e > 1) base = _mm256_mul_pd(base, base);
    }
    if (plan.b != 0) {
        const __m256d s1 = _mm256_sqrt_pd(d2);  // d
        if (plan.b == 2) {
            acc = _mm256_mul_pd(acc, s1);
        } else {
            const __m256d s2 = _mm256_sqrt_pd(s1);  // d^(1/2)
            acc = _mm256_mul_pd(
                acc, plan.b == 1 ? s2 : _mm256_mul_pd(s1, s2));
        }
    }
    return acc;
}

/// gain = scale / (max(d², clamp²))^(q/4) for 4 links at once.
inline __m256d gain4(__m256d dx, __m256d dy, __m256d clamp2, __m256d scale,
                     const PowPlan& plan) {
    __m256d d2 = _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy));
    d2 = _mm256_max_pd(d2, clamp2);
    return _mm256_div_pd(scale, pow_chain(d2, plan));
}

/// One Neumaier step on 4 independent (total, comp) pairs in memory —
/// per lane exactly the scalar branches (abs-compare selects which
/// operand donates the residual). The abs mask lives inside the function
/// (not as a TU-level static) so no AVX instruction can run at load time
/// on a CPU the runtime dispatch would have rejected.
inline void neumaier4(__m256d term, double* totals, double* comps) {
    const __m256d kAbsMask =
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    const __m256d total = _mm256_loadu_pd(totals);
    const __m256d comp = _mm256_loadu_pd(comps);
    const __m256d sum = _mm256_add_pd(total, term);
    const __m256d big_total =
        _mm256_add_pd(_mm256_sub_pd(total, sum), term);  // |total| >= |term|
    const __m256d big_term =
        _mm256_add_pd(_mm256_sub_pd(term, sum), total);  // |total| <  |term|
    const __m256d take_total =
        _mm256_cmp_pd(_mm256_and_pd(total, kAbsMask),
                      _mm256_and_pd(term, kAbsMask), _CMP_GE_OQ);
    const __m256d resid = _mm256_blendv_pd(big_term, big_total, take_total);
    _mm256_storeu_pd(totals, sum);
    _mm256_storeu_pd(comps, _mm256_add_pd(comp, resid));
}

/// The last r = n mod 4 (1..3) elements of a column as one padded
/// 4-lane block, so they run through the same vector instructions as
/// every full block: a link's value is then its gain4 lane value
/// wherever in a column it sits. Dead lanes repeat element 0, so they
/// evaluate a real link (no 0/0) and nothing past the column's end is
/// read; callers write back only the r live lanes.
struct Tail4 {
    alignas(32) double lane[4];
    Tail4(const double* src, std::size_t r) {
        for (std::size_t l = 0; l < 4; ++l) lane[l] = src[l < r ? l : 0];
    }
};

/// All-ones in lanes 0..r-1, zero in the rest.
inline __m256d live_lanes(std::size_t r) {
    return _mm256_castsi256_pd(
        _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(r)),
                           _mm256_setr_epi64x(0, 1, 2, 3)));
}

}  // namespace

void accumulate_rx_avx2(const GainKernel& kernel, const geom::Vec2& pos,
                        units::Watt signed_power, const double* xs,
                        const double* ys, double* totals, double* comps,
                        std::size_t n) {
    const PowPlan plan = plan_pow(kernel);
    const __m256d px = _mm256_set1_pd(pos.x);
    const __m256d py = _mm256_set1_pd(pos.y);
    const __m256d clamp2 = _mm256_set1_pd(kernel.clamp_m * kernel.clamp_m);
    const __m256d scale = _mm256_set1_pd(kernel.scale);
    const __m256d power = _mm256_set1_pd(signed_power.watts());
    const auto block = [&](const double* x, const double* y, double* t,
                           double* c) {
        const __m256d dx = _mm256_sub_pd(px, _mm256_loadu_pd(x));
        const __m256d dy = _mm256_sub_pd(py, _mm256_loadu_pd(y));
        const __m256d g = gain4(dx, dy, clamp2, scale, plan);
        neumaier4(_mm256_mul_pd(power, g), t, c);
    };
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) block(xs + k, ys + k, totals + k, comps + k);
    if (const std::size_t r = n - k; r != 0) {
        Tail4 x(xs + k, r), y(ys + k, r);
        Tail4 t(totals + k, r), c(comps + k, r);
        block(x.lane, y.lane, t.lane, c.lane);
        std::copy_n(t.lane, r, totals + k);
        std::copy_n(c.lane, r, comps + k);
    }
}

namespace {

/// rx_total's body over C power columns (1 or 2): each block's gain4 is
/// evaluated once and feeds every column's four lane accumulators, which
/// fold deterministically (lane 0 -> 3, totals then residuals) at the
/// end. Column c's arithmetic is the one-column body's, so its result
/// does not depend on the columns beside it.
template <std::size_t C>
void rx_total_lanes(const GainKernel& kernel, const geom::Vec2& rx,
                      const double* rs_x, const double* rs_y,
                      const double* const* rs_power, std::size_t n,
                      double* totals, double* comps) {
    const PowPlan plan = plan_pow(kernel);
    const __m256d px = _mm256_set1_pd(rx.x);
    const __m256d py = _mm256_set1_pd(rx.y);
    const __m256d clamp2 = _mm256_set1_pd(kernel.clamp_m * kernel.clamp_m);
    const __m256d scale = _mm256_set1_pd(kernel.scale);
    alignas(32) double lane_total[C][4] = {};
    alignas(32) double lane_comp[C][4] = {};
    // `live` masks the terms of a padded tail's dead lanes to exact
    // zeros, which leave a lane accumulator unchanged.
    const auto block = [&](const double* x, const double* y,
                           const double* const* p, __m256d live) {
        const __m256d dx = _mm256_sub_pd(px, _mm256_loadu_pd(x));
        const __m256d dy = _mm256_sub_pd(py, _mm256_loadu_pd(y));
        const __m256d g = gain4(dx, dy, clamp2, scale, plan);
        for (std::size_t c = 0; c < C; ++c) {
            const __m256d term = _mm256_mul_pd(_mm256_loadu_pd(p[c]), g);
            neumaier4(_mm256_and_pd(term, live), lane_total[c], lane_comp[c]);
        }
    };
    const __m256d all_live = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const double* p[C];
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        for (std::size_t c = 0; c < C; ++c) p[c] = rs_power[c] + i;
        block(rs_x + i, rs_y + i, p, all_live);
    }
    if (const std::size_t r = n - i; r != 0) {
        const Tail4 x(rs_x + i, r), y(rs_y + i, r);
        // One column pads column 0 twice and reads the first copy only.
        const Tail4 p0(rs_power[0] + i, r), p1(rs_power[C - 1] + i, r);
        const double* const tail[] = {p0.lane, p1.lane};
        block(x.lane, y.lane, tail, live_lanes(r));
    }
    for (std::size_t c = 0; c < C; ++c) {
        double& total = totals[c];
        double& comp = comps[c];
        for (int lane = 0; lane < 4; ++lane) {
            const double sum = total + lane_total[c][lane];
            if (std::abs(total) >= std::abs(lane_total[c][lane])) {
                comp += (total - sum) + lane_total[c][lane];
            } else {
                comp += (lane_total[c][lane] - sum) + total;
            }
            total = sum;
            comp += lane_comp[c][lane];
        }
    }
}

}  // namespace

void rx_total_avx2(const GainKernel& kernel, const geom::Vec2& rx,
                   const double* rs_x, const double* rs_y,
                   std::span<const double* const> rs_power, std::size_t n,
                   double* totals, double* comps) {
    if (rs_power.size() == 1) {
        rx_total_lanes<1>(kernel, rx, rs_x, rs_y, rs_power.data(), n,
                            totals, comps);
    } else {
        rx_total_lanes<2>(kernel, rx, rs_x, rs_y, rs_power.data(), n,
                            totals, comps);
    }
}

}  // namespace sag::wireless::detail
