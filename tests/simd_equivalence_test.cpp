// Golden equivalence of the two batch kernels, accumulate_rx and
// rx_total, against the historical scalar loops (docs/PERFORMANCE.md
// contract):
//
//   * ineligible kernels (shadowing, general alpha) must be
//     *byte-identical* to the reference loop through the public API —
//     they are the same code path;
//   * eligible kernels under the AVX2 mode must agree to 1e-12 relative
//     per term (sqrt/multiply pow chain vs std::pow, sqrt(dx²+dy²) vs
//     std::hypot).
//
// The randomized sweeps draw kernels across every half-integer alpha the
// vector chain supports plus hostile geometry (points inside the clamp
// radius, coincident points, huge coordinates).

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "sag/geometry/vec2.h"
#include "sag/units/units.h"
#include "sag/wireless/kernel_eval.h"
#include "sag/wireless/propagation.h"

namespace sag {
namespace {

using geom::Vec2;
using units::MetersSpan;
using units::WattSpan;

/// The pre-SoA SnrField arithmetic, verbatim: the golden reference.
double reference_gain(const wireless::GainKernel& k, const Vec2& tx,
                      const Vec2& rx) {
    return k.gain(tx, rx, geom::distance(tx, rx));
}

void reference_neumaier(double& total, double& comp, double term) {
    const double sum = total + term;
    if (std::abs(total) >= std::abs(term)) {
        comp += (total - sum) + term;
    } else {
        comp += (term - sum) + total;
    }
    total = sum;
}

struct Soa {
    std::vector<double> x, y;
    MetersSpan xs() const { return MetersSpan{x}; }
    MetersSpan ys() const { return MetersSpan{y}; }
};

Soa random_points(std::mt19937_64& rng, std::size_t n, double extent) {
    std::uniform_real_distribution<double> coord(-extent, extent);
    Soa soa;
    for (std::size_t i = 0; i < n; ++i) {
        soa.x.push_back(coord(rng));
        soa.y.push_back(coord(rng));
    }
    return soa;
}

wireless::GainKernel random_eligible_kernel(std::mt19937_64& rng) {
    std::uniform_int_distribution<int> half_alpha(1, 16);  // alpha = q/2
    std::uniform_real_distribution<double> scale(1e-3, 1e3);
    std::uniform_real_distribution<double> clamp(0.0, 4.0);
    wireless::GainKernel k;
    k.scale = scale(rng);
    k.alpha = half_alpha(rng) / 2.0;
    k.clamp_m = clamp(rng);
    return k;
}

double rel_err(double a, double b) {
    if (a == b) return 0.0;  // covers ±inf and exact zeros
    return std::abs(a - b) / std::max({std::abs(a), std::abs(b), 1e-300});
}

/// The dispatched gain column of a transmitter at `pos`: accumulate_rx at
/// unit power into zeroed totals leaves each link's gain bit for bit
/// (0 + 1·g, comp 0).
std::vector<double> dispatched_gains(const wireless::GainKernel& k,
                                     const Vec2& pos, MetersSpan xs,
                                     MetersSpan ys) {
    std::vector<double> gains(xs.size(), 0.0), comps(xs.size(), 0.0);
    wireless::accumulate_rx(k, pos, units::Watt{1.0}, xs, ys, gains, comps);
    return gains;
}

TEST(SimdEquivalence, EligibilityTable) {
    wireless::GainKernel k;
    for (int q = 1; q <= 16; ++q) {
        k.alpha = q / 2.0;
        EXPECT_TRUE(wireless::kernel_simd_eligible(k)) << "alpha=" << k.alpha;
    }
    k.alpha = 2.3;
    EXPECT_FALSE(wireless::kernel_simd_eligible(k));
    k.alpha = 8.5;  // q = 17: past the chain's ladder
    EXPECT_FALSE(wireless::kernel_simd_eligible(k));
    k.alpha = 2.0;
    k.sigma_db = 4.0;  // shadowed links hash per endpoint: scalar only
    EXPECT_FALSE(wireless::kernel_simd_eligible(k));
    k.sigma_db = 0.0;
    k.clamp_m = -1.0;
    EXPECT_FALSE(wireless::kernel_simd_eligible(k));
}

TEST(SimdEquivalence, ModeIsResolvedAndNamed) {
    const wireless::SimdMode mode = wireless::active_simd_mode();
    EXPECT_TRUE(mode == wireless::SimdMode::Scalar ||
                mode == wireless::SimdMode::Avx2);
    EXPECT_EQ(wireless::simd_lanes(),
              mode == wireless::SimdMode::Avx2 ? 4u : 1u);
    EXPECT_FALSE(wireless::simd_mode_name(mode).empty());
}

TEST(SimdEquivalence, BatchGainMatchesReferenceWithin1e12) {
    std::mt19937_64 rng(20260808);
    for (int round = 0; round < 40; ++round) {
        const wireless::GainKernel k = random_eligible_kernel(rng);
        // Sizes straddle the 4-lane boundary to exercise the padded tail.
        const std::size_t n = 1 + static_cast<std::size_t>(rng() % 37);
        const Soa subs = random_points(rng, n, 200.0);
        const Vec2 pos{static_cast<double>(rng() % 100),
                       static_cast<double>(rng() % 100)};
        const std::vector<double> gains =
            dispatched_gains(k, pos, subs.xs(), subs.ys());
        for (std::size_t i = 0; i < n; ++i) {
            const double ref = reference_gain(k, pos, {subs.x[i], subs.y[i]});
            EXPECT_LE(rel_err(gains[i], ref), 1e-12)
                << "alpha=" << k.alpha << " i=" << i;
        }
    }
}

TEST(SimdEquivalence, BatchGainHostileGeometry) {
    wireless::GainKernel k;
    k.scale = 2.5;
    k.alpha = 3.5;
    k.clamp_m = 1.0;
    // Coincident with the transmitter, inside the clamp radius, exactly
    // on it, and far away — the clamp max() must agree with the scalar
    // branch everywhere.
    const Soa subs{{10.0, 10.3, 11.0, 9000.0}, {10.0, 10.0, 10.0, -400.0}};
    const std::vector<double> gains =
        dispatched_gains(k, {10.0, 10.0}, subs.xs(), subs.ys());
    for (std::size_t i = 0; i < 4; ++i) {
        const double ref = reference_gain(k, {10.0, 10.0},
                                          {subs.x[i], subs.y[i]});
        EXPECT_LE(rel_err(gains[i], ref), 1e-12) << "i=" << i;
    }
}

TEST(SimdEquivalence, IneligibleKernelIsByteIdentical) {
    // sigma_db != 0 pins the public API to the scalar path, which must be
    // the reference loop double-for-double (not merely close).
    std::mt19937_64 rng(7);
    wireless::GainKernel k;
    k.scale = 3.0;
    k.alpha = 2.7;  // general alpha: also ineligible on its own
    k.sigma_db = 6.0;
    k.seed = 99;
    const std::size_t n = 23;
    const Soa subs = random_points(rng, n, 50.0);
    const Vec2 pos{1.0, -2.0};
    const std::vector<double> gains = dispatched_gains(k, pos, subs.xs(), subs.ys());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(gains[i], reference_gain(k, pos, {subs.x[i], subs.y[i]}));
    }

    std::vector<double> total(n, 0.0), comp(n, 0.0);
    std::vector<double> ref_total(n, 0.0), ref_comp(n, 0.0);
    wireless::accumulate_rx(k, pos, units::Watt{7.25}, subs.xs(), subs.ys(),
                            total, comp);
    wireless::accumulate_rx(k, pos, units::Watt{-7.25}, subs.xs(), subs.ys(),
                            total, comp);
    for (std::size_t i = 0; i < n; ++i) {
        const double term = 7.25 * reference_gain(k, pos, {subs.x[i], subs.y[i]});
        reference_neumaier(ref_total[i], ref_comp[i], term);
        reference_neumaier(ref_total[i], ref_comp[i], -term);
        EXPECT_EQ(total[i], ref_total[i]);
        EXPECT_EQ(comp[i], ref_comp[i]);
    }
}

TEST(SimdEquivalence, AccumulateRxMatchesReferenceWithin1e12) {
    std::mt19937_64 rng(42);
    for (int round = 0; round < 25; ++round) {
        const wireless::GainKernel k = random_eligible_kernel(rng);
        const std::size_t n = 1 + static_cast<std::size_t>(rng() % 29);
        const Soa subs = random_points(rng, n, 300.0);
        std::vector<double> total(n, 0.0), comp(n, 0.0);
        std::vector<double> ref_total(n, 0.0), ref_comp(n, 0.0);
        std::uniform_real_distribution<double> watt(0.1, 60.0);
        // A mutation history: several RSs added, one retracted.
        std::vector<std::pair<Vec2, double>> history;
        for (int mut = 0; mut < 6; ++mut) {
            history.emplace_back(Vec2{watt(rng), watt(rng)}, watt(rng));
        }
        history.emplace_back(history[2].first, -history[2].second);
        for (const auto& [pos, p] : history) {
            wireless::accumulate_rx(k, pos, units::Watt{p}, subs.xs(),
                                    subs.ys(), total, comp);
            for (std::size_t i = 0; i < n; ++i) {
                const double term =
                    p * reference_gain(k, pos, {subs.x[i], subs.y[i]});
                reference_neumaier(ref_total[i], ref_comp[i], term);
            }
        }
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_LE(rel_err(total[i] + comp[i], ref_total[i] + ref_comp[i]),
                      1e-12);
        }
    }
}

TEST(SimdEquivalence, RxTotalMatchesReferenceWithin1e12) {
    std::mt19937_64 rng(1234);
    for (int round = 0; round < 25; ++round) {
        const wireless::GainKernel k = random_eligible_kernel(rng);
        const std::size_t rs_count = 1 + static_cast<std::size_t>(rng() % 21);
        const Soa rs = random_points(rng, rs_count, 150.0);
        std::uniform_real_distribution<double> watt(0.0, 50.0);
        std::vector<double> power(rs_count);
        for (double& p : power) p = watt(rng);
        const Vec2 rx{3.0, 4.0};
        double total = 0.0, comp = 0.0;
        wireless::rx_total(k, rx, rs.xs(), rs.ys(), WattSpan{power}, total,
                           comp);
        double ref_total = 0.0, ref_comp = 0.0;
        for (std::size_t i = 0; i < rs_count; ++i) {
            reference_neumaier(
                ref_total, ref_comp,
                power[i] * reference_gain(k, {rs.x[i], rs.y[i]}, rx));
        }
        EXPECT_LE(rel_err(total + comp, ref_total + ref_comp), 1e-12);
    }
}

/// Bit equality, exact for infinities and signed zeros alike.
bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Element k of a column, as a one-element span.
MetersSpan one(const std::vector<double>& column, std::size_t k) {
    return MetersSpan{std::span<const double>(column).subspan(k, 1)};
}

// Position independence: under every mode, element k of a column comes
// out of accumulate_rx (and so its gain) bit for bit as when it is
// computed alone. Under AVX2 this needs the n mod 4 tail to run
// through the same vector gain as the full blocks (n = 1..13 covers
// every tail length at several block offsets).
TEST(SimdEquivalence, ElementsMatchTheirOneElementSpans) {
    std::mt19937_64 rng(4242);
    std::uniform_real_distribution<double> watt(0.1, 60.0);
    for (std::size_t n = 1; n <= 13; ++n) {
        for (int round = 0; round < 6; ++round) {
            const wireless::GainKernel k = random_eligible_kernel(rng);
            const Soa subs = random_points(rng, n, 200.0);
            const Vec2 pos{watt(rng), -watt(rng)};
            const double p = watt(rng);

            const std::vector<double> gains =
                dispatched_gains(k, pos, subs.xs(), subs.ys());

            std::vector<double> total0(n), comp0(n);
            for (std::size_t i = 0; i < n; ++i) {
                total0[i] = watt(rng);
                comp0[i] = watt(rng) * 1e-17;
            }
            std::vector<double> total = total0, comp = comp0;
            wireless::accumulate_rx(k, pos, units::Watt{-p}, subs.xs(),
                                    subs.ys(), total, comp);

            for (std::size_t i = 0; i < n; ++i) {
                const double g =
                    dispatched_gains(k, pos, one(subs.x, i), one(subs.y, i))[0];
                EXPECT_TRUE(same_bits(g, gains[i])) << "n=" << n << " i=" << i;

                double t = total0[i], c = comp0[i];
                wireless::accumulate_rx(k, pos, units::Watt{-p}, one(subs.x, i),
                                        one(subs.y, i), {&t, 1}, {&c, 1});
                EXPECT_TRUE(same_bits(t, total[i])) << "n=" << n << " i=" << i;
                EXPECT_TRUE(same_bits(c, comp[i])) << "n=" << n << " i=" << i;
            }
        }
    }
}

// Dead lanes of the padded rx_total tail add exact zeros: the sum over n
// RSs is bit for bit the sum over the same RSs followed by zero-power ones.
TEST(SimdEquivalence, RxTotalIgnoresTrailingZeroPowerRss) {
    std::mt19937_64 rng(777);
    std::uniform_real_distribution<double> watt(0.1, 50.0);
    for (std::size_t n = 1; n <= 13; ++n) {
        for (int round = 0; round < 4; ++round) {
            const wireless::GainKernel k = random_eligible_kernel(rng);
            const Soa rs = random_points(rng, n + 7, 150.0);
            std::vector<double> power(n + 7, 0.0);
            for (std::size_t i = 0; i < n; ++i) power[i] = watt(rng);
            const Vec2 rx{watt(rng), watt(rng)};
            const auto prefix = [&](std::size_t m, double& total, double& comp) {
                const std::span<const double> x(rs.x), y(rs.y), p(power);
                wireless::rx_total(k, rx, MetersSpan{x.first(m)},
                                   MetersSpan{y.first(m)}, WattSpan{p.first(m)},
                                   total, comp);
            };
            double total = 0.0, comp = 0.0;
            prefix(n, total, comp);
            for (std::size_t m = n + 1; m <= n + 7; ++m) {
                double padded_total = 0.0, padded_comp = 0.0;
                prefix(m, padded_total, padded_comp);
                EXPECT_EQ(padded_total, total) << "n=" << n << " m=" << m;
                EXPECT_EQ(padded_comp, comp) << "n=" << n << " m=" << m;
            }
        }
    }
}

// The two-column rx_total evaluates each gain once for both columns and
// must leave each column's (total, comp) bit for bit where a one-column
// call leaves it: every tail length (n = 0..9), zero-power columns, and
// hostile geometry (links inside the clamp radius, a receiver on an RS,
// huge and negative coordinates, shadowed links on the scalar path).
TEST(SimdEquivalence, TwoColumnRxTotalMatchesTwoOneColumnCalls) {
    std::mt19937_64 rng(2424);
    std::uniform_real_distribution<double> watt(0.0, 50.0);
    wireless::GainKernel shadowed;
    shadowed.scale = 3.0;
    shadowed.alpha = 2.5;
    shadowed.sigma_db = 6.0;
    shadowed.seed = 17;
    for (std::size_t n = 0; n <= 9; ++n) {
        for (int round = 0; round < 12; ++round) {
            const wireless::GainKernel k =
                round == 11 ? shadowed : random_eligible_kernel(rng);
            Soa rs = random_points(rng, n, round % 3 == 0 ? 1e6 : 150.0);
            Vec2 rx{watt(rng) - 25.0, watt(rng) - 25.0};
            if (n > 0 && round % 4 == 1) rx = {rs.x[0], rs.y[0]};  // on an RS
            if (n > 1 && round % 4 == 2) {  // inside the clamp radius
                rs.x[1] = rx.x + 1e-3;
                rs.y[1] = rx.y;
            }
            std::vector<double> p0(n), p1(n);
            for (std::size_t i = 0; i < n; ++i) {
                p0[i] = watt(rng);
                p1[i] = round % 5 == 3 ? 0.0 : watt(rng);  // a zero-power column
                if (round % 5 == 4 && i % 2 == 0) p0[i] = 0.0;  // zeros in a column
            }
            double t0 = 0.0, c0 = 0.0, t1 = 0.0, c1 = 0.0;
            wireless::rx_total(k, rx, rs.xs(), rs.ys(), WattSpan{p0}, t0, c0);
            wireless::rx_total(k, rx, rs.xs(), rs.ys(), WattSpan{p1}, t1, c1);
            // Stale outputs must be overwritten, not accumulated into.
            std::array<double, 2> totals{watt(rng), watt(rng)};
            std::array<double, 2> comps{watt(rng), watt(rng)};
            wireless::rx_total(k, rx, rs.xs(), rs.ys(), WattSpan{p0},
                               WattSpan{p1}, totals, comps);
            SCOPED_TRACE(::testing::Message() << "n=" << n << " round=" << round);
            EXPECT_TRUE(same_bits(totals[0], t0));
            EXPECT_TRUE(same_bits(comps[0], c0));
            EXPECT_TRUE(same_bits(totals[1], t1));
            EXPECT_TRUE(same_bits(comps[1], c1));
            // The column order does not matter either.
            wireless::rx_total(k, rx, rs.xs(), rs.ys(), WattSpan{p1},
                               WattSpan{p0}, totals, comps);
            EXPECT_TRUE(same_bits(totals[0], t1));
            EXPECT_TRUE(same_bits(comps[0], c1));
            EXPECT_TRUE(same_bits(totals[1], t0));
            EXPECT_TRUE(same_bits(comps[1], c0));
        }
    }
}

}  // namespace
}  // namespace sag
