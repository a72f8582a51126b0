#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "sag/core/feasibility.h"
#include "sag/core/power.h"
#include "sag/core/snr_field.h"
#include "sag/ids/ids.h"
#include "sag/core/samc.h"
#include "sag/obs/obs.h"
#include "sag/sim/scenario_gen.h"
#include "sag/wireless/kernel_eval.h"
#include "sag/wireless/propagation.h"

namespace sag::core {
namespace {

using ids::RsId;
using ids::SsId;

Scenario base_scenario() {
    Scenario s;
    s.field = geom::Rect::centered_square(500.0);
    s.base_stations = {{{0.0, 0.0}}};
    s.snr_threshold_db = units::Decibel{-15.0};
    // Hand-computed floor tests use the pure interference-limited model;
    // generator-based tests keep the default ambient noise.
    s.radio.snr_ambient_noise = units::Watt{0.0};
    return s;
}

CoveragePlan plan_of(std::vector<geom::Vec2> rs,
                     std::initializer_list<RsId> assign) {
    CoveragePlan p;
    p.rs_positions = std::move(rs);
    p.assignment = ids::IdVec<SsId, RsId>(assign);
    p.feasible = true;
    return p;
}

TEST(CoveragePowerFloorTest, MatchesHandComputation) {
    Scenario s = base_scenario();
    s.subscribers = {{{30.0, 0.0}, 35.0}};
    const auto plan = plan_of({{0.0, 0.0}}, {RsId{0}});
    // Required received power defined at 35 m; access link is 30 m, so the
    // floor is Pmax * (30/35)^alpha.
    const units::Watt expect =
        s.radio.max_power * std::pow(30.0 / 35.0, s.radio.alpha);
    EXPECT_NEAR(coverage_power_floors(s, plan)[RsId{0}].watts(), expect.watts(), 1e-9);
}

TEST(CoveragePowerFloorTest, TakesMaxOverServedSubscribers) {
    Scenario s = base_scenario();
    s.subscribers = {{{30.0, 0.0}, 35.0}, {{-10.0, 0.0}, 35.0}};
    const auto plan = plan_of({{0.0, 0.0}}, {RsId{0}, RsId{0}});
    // The 30 m subscriber dominates the 10 m one.
    const units::Watt expect =
        s.radio.max_power * std::pow(30.0 / 35.0, s.radio.alpha);
    EXPECT_NEAR(coverage_power_floors(s, plan)[RsId{0}].watts(), expect.watts(), 1e-9);
}

TEST(CoveragePowerFloorTest, UnusedRsHasZeroFloor) {
    Scenario s = base_scenario();
    s.subscribers = {{{30.0, 0.0}, 35.0}};
    const auto plan = plan_of({{0.0, 0.0}, {200.0, 0.0}}, {RsId{0}});
    const auto floors = coverage_power_floors(s, plan);
    ASSERT_EQ(floors.size(), 2u);  // one floor per RS, served or not
    EXPECT_GT(floors[RsId{0}].watts(), 0.0);
    EXPECT_DOUBLE_EQ(floors[RsId{1}].watts(), 0.0);
}

TEST(SnrPowerFloorTest, ZeroWithoutInterferers) {
    Scenario s = base_scenario();
    s.subscribers = {{{30.0, 0.0}, 35.0}};
    const auto plan = plan_of({{0.0, 0.0}}, {RsId{0}});
    const double powers[] = {50.0};
    EXPECT_DOUBLE_EQ(snr_power_floor(s, plan, RsId{0}, powers).watts(), 0.0);
}

TEST(SnrPowerFloorTest, ScalesWithInterferencePower) {
    Scenario s = base_scenario();
    s.subscribers = {{{-50.0, 0.0}, 35.0}, {{50.0, 0.0}, 35.0}};
    const auto plan = plan_of({{-50.0, 0.0}, {50.0, 0.0}}, {RsId{0}, RsId{1}});
    const double strong[] = {50.0, 50.0};
    const double weak[] = {50.0, 5.0};
    // RS0's requirement is driven by RS1's interference at sub 0;
    // reducing RS1's power by 10x reduces the floor by 10x.
    EXPECT_NEAR(snr_power_floor(s, plan, RsId{0}, strong).watts(),
                10.0 * snr_power_floor(s, plan, RsId{0}, weak).watts(), 1e-9);
}

TEST(ProTest, SettlesAtCoverageFloorsWhenNoConflict) {
    Scenario s = base_scenario();
    s.subscribers = {{{-150.0, 0.0}, 35.0}, {{150.0, 0.0}, 35.0}};
    const auto plan = plan_of({{-150.0, 0.0}, {150.0, 0.0}}, {RsId{0}, RsId{1}});
    const auto pro = allocate_power_pro(s, plan);
    ASSERT_TRUE(pro.feasible);
    // RSs sit on their subscribers: tiny coverage floor, SNR trivial.
    EXPECT_NEAR(pro.powers[0], coverage_power_floors(s, plan)[RsId{0}].watts(), 1e-9);
    EXPECT_NEAR(pro.powers[1], coverage_power_floors(s, plan)[RsId{1}].watts(), 1e-9);
}

TEST(ProTest, NeverBelowOptimalNorAboveBaseline) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 20;
    const Scenario s = sim::generate_scenario(cfg, 13);
    const auto plan = solve_samc(s).plan;
    ASSERT_TRUE(plan.feasible);
    const auto pro = allocate_power_pro(s, plan);
    const auto opt = allocate_power_optimal(s, plan);
    const auto base = allocate_power_baseline(s, plan);
    ASSERT_TRUE(pro.feasible);
    ASSERT_TRUE(opt.feasible);
    EXPECT_GE(pro.total, opt.total - 1e-6);   // PRO >= optimum
    EXPECT_LE(pro.total, base.total + 1e-6);  // PRO <= all-Pmax baseline
}

TEST(ProTest, ResultSatisfiesVerifier) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 800.0;
    cfg.subscriber_count = 30;
    const Scenario s = sim::generate_scenario(cfg, 29);
    const auto plan = solve_samc(s).plan;
    ASSERT_TRUE(plan.feasible);
    const auto pro = allocate_power_pro(s, plan);
    ASSERT_TRUE(pro.feasible);
    EXPECT_TRUE(verify_coverage(s, plan, pro.powers).feasible);
}

TEST(OptimalPowerTest, FixedPointMatchesLpSolver) {
    for (const int seed : {3, 11, 19, 27}) {
        sim::GeneratorConfig cfg;
        cfg.field_side = 500.0;
        cfg.subscriber_count = 15;
        const Scenario s = sim::generate_scenario(cfg, seed);
        const auto plan = solve_samc(s).plan;
        ASSERT_TRUE(plan.feasible);
        const auto fp = allocate_power_optimal(s, plan);
        const auto lp = allocate_power_optimal_lp(s, plan);
        ASSERT_TRUE(fp.feasible) << "seed " << seed;
        ASSERT_TRUE(lp.feasible) << "seed " << seed;
        EXPECT_NEAR(fp.total, lp.total, 1e-4 * std::max(1.0, lp.total))
            << "seed " << seed;
    }
}

TEST(OptimalPowerTest, OptimalIsComponentWiseMinimal) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 18;
    const Scenario s = sim::generate_scenario(cfg, 41);
    const auto plan = solve_samc(s).plan;
    ASSERT_TRUE(plan.feasible);
    const auto opt = allocate_power_optimal(s, plan);
    ASSERT_TRUE(opt.feasible);
    // Shaving 1% off any single RS breaks some constraint of its own.
    for (std::size_t i = 0; i < plan.rs_count(); ++i) {
        if (opt.powers[i] < 1e-12) continue;
        auto shaved = opt.powers;
        shaved[i] *= 0.99;
        const double floor_i =
            coverage_power_floors(s, plan)[RsId{i}].watts();
        const double snr_i = snr_power_floor(s, plan, RsId{i}, shaved).watts();
        EXPECT_LT(shaved[i], std::max(floor_i, snr_i) + 1e-9) << "rs " << i;
    }
}

TEST(BaselinePowerTest, AllAtMaxPower) {
    Scenario s = base_scenario();
    s.subscribers = {{{-50.0, 0.0}, 35.0}, {{50.0, 0.0}, 35.0}};
    const auto plan = plan_of({{-50.0, 0.0}, {50.0, 0.0}}, {RsId{0}, RsId{1}});
    const auto base = allocate_power_baseline(s, plan);
    EXPECT_TRUE(base.feasible);
    EXPECT_DOUBLE_EQ(base.total, 100.0);
    for (const double p : base.powers) EXPECT_DOUBLE_EQ(p, 50.0);
}

// Each allocator's `feasible` is verify_coverage's verdict on its own
// powers. The SS asks for 30 m and is served from 35 m: PRO lifts the RS
// to its coverage power (1.59 * P_max), where rate and SNR both clear,
// yet the link is out of reach, so every allocator must report it.
TEST(PowerFeasibilityTest, AllocatorsReportTheVerifierVerdict) {
    Scenario s;
    s.field = geom::Rect::centered_square(500.0);
    s.base_stations = {{{0.0, 100.0}}};
    s.snr_threshold_db = units::Decibel{-15.0};
    s.subscribers = {{{0.0, 0.0}, 30.0}};
    const auto plan = plan_of({{35.0, 0.0}}, {RsId{0}});
    for (const PowerAllocation& alloc :
         {allocate_power_pro(s, plan), allocate_power_optimal(s, plan),
          allocate_power_baseline(s, plan)}) {
        const CoverageReport report = verify_coverage(s, plan, alloc.powers);
        EXPECT_FALSE(report.subscribers[SsId{0}].distance_ok);
        EXPECT_FALSE(report.feasible);
        EXPECT_EQ(alloc.feasible, report.feasible);
    }
}

// A plan whose assignment leaves a subscriber without one of its RSs —
// RsId::invalid() (an infeasible solver plan), an id past rs_count(), or
// an assignment of the wrong length — is rejected with
// std::invalid_argument by every allocator that indexes by it, before
// any index is used. The baseline reports it infeasible instead.
TEST(PowerTest, AllocatorsRejectUnassignedSubscriber) {
    Scenario s = base_scenario();
    s.subscribers = {{{-60.0, 0.0}, 35.0}, {{-40.0, 0.0}, 35.0},
                     {{40.0, 0.0}, 35.0}, {{60.0, 0.0}, 35.0}};
    const std::vector<geom::Vec2> rs = {{-50.0, 0.0}, {50.0, 0.0}};
    const auto good = plan_of(rs, {RsId{0}, RsId{0}, RsId{1}, RsId{1}});
    ASSERT_TRUE(allocate_power_pro(s, good).feasible);
    const struct {
        const char* what;
        CoveragePlan plan;
    } cases[] = {
        {"invalid id", plan_of(rs, {RsId{0}, RsId::invalid(), RsId{1}, RsId{1}})},
        {"id past rs_count", plan_of(rs, {RsId{0}, RsId{0}, RsId{2}, RsId{1}})},
        {"short assignment", plan_of(rs, {RsId{0}, RsId{0}, RsId{1}})},
        {"long assignment", plan_of(rs, {RsId{0}, RsId{0}, RsId{1}, RsId{1}, RsId{1}})},
    };
    const std::vector<double> caps(rs.size(), s.rs_max_power().watts());
    for (const auto& c : cases) {
        SCOPED_TRACE(c.what);
        EXPECT_THROW((void)coverage_power_floors(s, c.plan), std::invalid_argument);
        EXPECT_THROW((void)allocate_power_pro(s, c.plan), std::invalid_argument);
        EXPECT_THROW((void)allocate_power_capped(s, c.plan, caps), std::invalid_argument);
        EXPECT_THROW((void)allocate_power_optimal(s, c.plan), std::invalid_argument);
        EXPECT_FALSE(allocate_power_baseline(s, c.plan).feasible);
    }
}

/// Property: the (1+phi) bound of Theorem 1 — PRO never exceeds the
/// optimum by more than the sum of (Psnr - Pc) gaps, and in practice sits
/// within a modest factor. We assert PRO <= 1.5 * OPT across seeds (far
/// looser than observed, tight enough to catch regressions).
class ProApproximationProperty : public ::testing::TestWithParam<int> {};

TEST_P(ProApproximationProperty, WithinApproximationBand) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 22;
    const Scenario s = sim::generate_scenario(cfg, GetParam());
    const auto plan = solve_samc(s).plan;
    if (!plan.feasible) GTEST_SKIP();
    const auto pro = allocate_power_pro(s, plan);
    const auto opt = allocate_power_optimal(s, plan);
    ASSERT_TRUE(pro.feasible);
    ASSERT_TRUE(opt.feasible);
    EXPECT_LE(pro.total, 1.5 * opt.total + 1e-9);
    EXPECT_GE(pro.total, opt.total - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProApproximationProperty,
                         ::testing::Values(2, 4, 6, 8, 10, 12));

/// allocate_power_pro's private feasibility audit, verbatim.
bool reference_feasible(const Scenario& s, const CoveragePlan& plan,
                        std::span<const double> powers) {
    const SnrField field(s, plan.rs_positions, powers);
    const double beta = s.snr_threshold_linear();
    for (const SsId j : s.ss_ids()) {
        const RsId i = plan.assignment[j];
        const units::Watt rx = s.received_power(
            units::Watt{powers[i.index()]}, plan.rs_position(i), s.subscriber(j).pos);
        if (rx < s.min_rx_power(j) * (1.0 - 1e-9)) return false;
        if (field.snr_of(j, i) < beta * (1.0 - 1e-9)) return false;
    }
    return true;
}

struct ReferencePro {
    PowerAllocation allocation;
    int premiums = 0;
};

/// Algorithm 6 as it ran before the what-if read: each drop probe is a
/// set_power read back with snr_of and then set back to the round-start
/// power, and Step 9 re-syncs the field every round.
ReferencePro transactional_pro(const Scenario& s, const CoveragePlan& plan) {
    ReferencePro ref;
    PowerAllocation& out = ref.allocation;
    const std::size_t n = plan.rs_count();
    const units::Watt pmax = s.rs_max_power();
    const wireless::GainKernel kernel = s.gain_kernel();
    const double beta = s.snr_threshold_linear();
    const ids::IdVec<RsId, units::Watt> p_min = coverage_power_floors(s, plan);
    ids::IdVec<RsId, std::vector<SsId>> served(n);
    for (const SsId j : s.ss_ids()) served[plan.assignment[j]].push_back(j);

    const std::vector<double> start(n, pmax.watts());
    SnrField field(s, plan.rs_positions, start);
    ids::IdVec<RsId, units::Watt> p_tmp(n, pmax);
    std::vector<bool> committed(n, false);
    std::size_t remaining = n;
    const auto served_snr_ok = [&](RsId i) {
        for (const SsId j : served[i]) {
            if (field.snr_of(j, i) < beta * (1.0 - 1e-12)) return false;
        }
        return true;
    };
    const auto snr_floor = [&](RsId i) {
        units::Watt need{0.0};
        for (const SsId j : served[i]) {
            const geom::Vec2& rs = plan.rs_position(i);
            const geom::Vec2& ss = s.subscriber(j).pos;
            const double g = kernel.gain(rs, ss, geom::distance(rs, ss));
            const units::Watt own{field.rs_power(i).watts() * g};
            const units::Watt interference =
                units::Watt{field.total_rx(j)} - own + s.radio.snr_ambient_noise;
            need = std::max(need, s.snr_threshold() * interference / g);
        }
        return need;
    };
    while (remaining > 0) {
        ++out.iterations;
        const std::size_t before = remaining;
        for (const RsId i : field.rs_ids()) {
            if (committed[i.index()]) continue;
            const units::Watt round_start = field.rs_power(i);
            field.set_power(i, p_min[i]);
            if (served_snr_ok(i)) {
                committed[i.index()] = true;
                --remaining;
                p_tmp[i] = p_min[i];
            }
            field.set_power(i, round_start);
        }
        for (const RsId i : field.rs_ids()) field.set_power(i, p_tmp[i]);
        if (remaining == before && remaining > 0) {
            RsId arg = RsId::invalid();
            units::Watt best_delta{std::numeric_limits<double>::infinity()};
            units::Watt best_power = pmax;
            for (const RsId i : field.rs_ids()) {
                if (committed[i.index()]) continue;
                const units::Watt p_snr = std::max(p_min[i], snr_floor(i));
                if (p_snr - p_min[i] < best_delta) {
                    best_delta = p_snr - p_min[i];
                    best_power = p_snr;
                    arg = i;
                }
            }
            p_tmp[arg] = std::min(best_power, pmax);
            field.set_power(arg, p_tmp[arg]);
            committed[arg.index()] = true;
            --remaining;
            ++ref.premiums;
        }
    }
    for (const units::Watt p : p_tmp) out.powers.push_back(p.watts());
    out.total = std::accumulate(out.powers.begin(), out.powers.end(), 0.0);
    out.feasible = reference_feasible(s, plan, out.powers);
    return ref;
}

/// Bit patterns, so the comparison below is exact even for signed zeros.
std::vector<std::uint64_t> bits_of(const std::vector<double>& values) {
    std::vector<std::uint64_t> bits;
    for (const double v : values) bits.push_back(std::bit_cast<std::uint64_t>(v));
    return bits;
}

// PRO's drop probes are what-if reads of a field that stays at the
// round-start powers; the reference probes with set_power deltas that it
// sets back. Byte-identical outputs on a seeded grid: 300/500/800 m
// fields with 10-120 SSs, -10 to -25 dB, alpha 2-4 (half-integer and
// not), a shadowed log-distance family (scalar-only kernel) and the 4 km
// city.
TEST(ProTest, MatchesTransactionalReference) {
    std::vector<std::pair<sim::GeneratorConfig, std::uint64_t>> grid;
    const auto add = [&](double side, std::size_t users, double alpha,
                         double db, std::uint64_t seed) {
        sim::GeneratorConfig cfg;
        cfg.field_side = side;
        cfg.subscriber_count = users;
        cfg.snr_threshold_db = units::Decibel{db};
        cfg.radio.alpha = alpha;
        grid.emplace_back(cfg, seed);
    };
    const double sides[] = {300.0, 500.0, 800.0};
    const std::size_t user_counts[] = {10, 30, 60, 120};
    std::uint64_t seed = 1;
    for (const double side : sides) {
        for (const std::size_t users : user_counts) {
            // Above 30 SSs, SAMC takes seconds to give up on -10 dB and
            // on alpha 4 at -20 dB or below; those cells are left out.
            const bool large = users > 30;
            for (const double alpha : {2.0, 2.5, 3.0, 4.0}) {
                for (const double db : {-10.0, -12.0, -15.0, -20.0, -25.0}) {
                    if (large && (db == -10.0 || (alpha == 4.0 && db <= -20.0))) {
                        continue;
                    }
                    add(side, users, alpha, db, seed++);
                }
            }
            // Near the feasibility onset, where rounds get stuck and the
            // premium of Steps 10-13 is paid.
            for (int extra = 0; extra < 3; ++extra) {
                if (!large) add(side, users, 3.0, -10.0, seed++);
                add(side, users, 3.0, -12.0, seed++);
            }
        }
    }
    for (const double db : {-10.0, -12.0, -15.0, -20.0, -25.0}) {
        add(800.0, 10, 4.0, db, seed++);
        add(800.0, 10, 4.0, db, seed++);
    }
    for (int k = 0; k < 8; ++k) {
        auto model = std::make_shared<wireless::LogDistanceModel>();
        model->shadowing_sigma = units::Decibel{6.0};
        model->shadowing_seed = 100 + static_cast<std::uint64_t>(k);
        sim::GeneratorConfig cfg;
        cfg.field_side = 500.0;
        cfg.subscriber_count = 40;
        cfg.snr_threshold_db = units::Decibel{k % 2 == 0 ? -10.0 : -15.0};
        cfg.radio.snr_ambient_noise = units::Watt{0.0};
        cfg.propagation = model;
        grid.emplace_back(cfg, seed++);
    }
    for (int k = 0; k < 2; ++k) {
        sim::GeneratorConfig cfg;  // the 4 km city of examples/city_scale
        cfg.field_side = 4000.0;
        cfg.subscriber_count = 300;
        cfg.base_station_count = 9;
        grid.emplace_back(cfg, seed++);
    }

    int solved = 0, premium_instances = 0, floor_instances = 0, shadowed = 0;
    for (const auto& [cfg, instance_seed] : grid) {
        const Scenario s = sim::generate_scenario(cfg, instance_seed);
        const auto plan = solve_samc(s).plan;
        if (!plan.feasible) continue;
        ++solved;
        const ReferencePro ref = transactional_pro(s, plan);
        const PowerAllocation pro = allocate_power_pro(s, plan);
        EXPECT_EQ(bits_of(pro.powers), bits_of(ref.allocation.powers))
            << "seed " << instance_seed;
        EXPECT_EQ(pro.iterations, ref.allocation.iterations) << "seed " << instance_seed;
        EXPECT_EQ(pro.feasible, ref.allocation.feasible) << "seed " << instance_seed;
        // PRO audits a P_c answer on the field it built beside its probe
        // field; the verdict is the from-scratch audit's.
        EXPECT_EQ(pro.feasible, verify_coverage(s, plan, pro.powers).feasible)
            << "seed " << instance_seed;
        EXPECT_EQ(pro.total, ref.allocation.total) << "seed " << instance_seed;
        if (ref.premiums > 0) ++premium_instances;
        if (ref.premiums == 0) ++floor_instances;
        if (cfg.propagation) ++shadowed;
    }
    // The grid must keep exercising the premium path (Steps 10-13 read the
    // field the probes left behind, and the answer is audited from
    // scratch), the all-drops path (the answer is P_c, audited on PRO's
    // own P_c field) and the scalar-only kernel.
    EXPECT_GE(premium_instances, 50) << solved << " instances solved";
    EXPECT_GE(floor_instances, 50) << solved << " instances solved";
    EXPECT_GE(shadowed, 4) << solved << " instances solved";
}

/// Test-local path gains g[k][j] of every plan RS k to every subscriber
/// j and the P_snr read off them. Each row is the dispatched gain column
/// (SIMD where the kernel allows): accumulate_rx at unit power into
/// zeroed totals leaves each gain bit for bit (0 + 1·g, comp 0).
struct GainMatrix {
    std::vector<std::vector<double>> g;

    GainMatrix(const Scenario& s, const CoveragePlan& plan) {
        const wireless::GainKernel kernel = s.gain_kernel();
        std::vector<double> ss_x, ss_y;
        for (const SsId j : s.ss_ids()) {
            ss_x.push_back(s.subscriber(j).pos.x);
            ss_y.push_back(s.subscriber(j).pos.y);
        }
        g.assign(plan.rs_count(), std::vector<double>(s.subscriber_count(), 0.0));
        std::vector<double> comps;
        for (const RsId i : plan.rs_ids()) {
            comps.assign(s.subscriber_count(), 0.0);
            wireless::accumulate_rx(kernel, plan.rs_position(i), units::Watt{1.0},
                                    units::MetersSpan{ss_x}, units::MetersSpan{ss_y},
                                    g[i.index()], comps);
        }
    }

    /// RS i's P_snr over its `served` subscribers, the others at `powers`.
    double snr_floor(const Scenario& s, std::span<const SsId> served, RsId i,
                     std::span<const double> powers) const {
        units::Watt need{0.0};
        for (const SsId j : served) {
            units::Watt interference = s.radio.snr_ambient_noise;
            for (std::size_t k = 0; k < g.size(); ++k) {
                if (k != i.index()) {
                    interference += units::Watt{powers[k] * g[k][j.index()]};
                }
            }
            need = std::max(need, s.snr_threshold() * interference / g[i.index()][j.index()]);
        }
        return need.watts();
    }
};

/// allocate_power_capped's reference: the R x S gain matrix, a
/// Gauss-Seidel Yates loop of its own over it (from min(P_c, cap), the
/// same 1e-10 stop, 10,000-sweep limit and 1e-9 cap rule), then
/// verify_coverage.
CappedPower sweep_capped(const Scenario& s, const CoveragePlan& plan,
                         std::span<const double> caps) {
    const GainMatrix gains(s, plan);
    const auto served = plan.served_lists();
    std::vector<double> floors;
    for (const units::Watt f : coverage_power_floors(s, plan)) floors.push_back(f.watts());
    std::vector<double> p(floors.size());
    for (std::size_t i = 0; i < p.size(); ++i) p[i] = std::min(floors[i], caps[i]);
    int iterations = 0;
    bool converged = false;
    bool capped = false;
    while (!converged && iterations < 10'000) {
        ++iterations;
        double max_change = 0.0;
        capped = false;
        for (const RsId i : plan.rs_ids()) {
            const double cap = caps[i.index()];
            double want = std::max(floors[i.index()],
                                   gains.snr_floor(s, served[i], i, p));
            if (want > cap) {
                if (want > cap + 1e-9 * std::max(1.0, std::abs(cap))) capped = true;
                want = cap;
            }
            max_change = std::max(max_change, std::abs(want - p[i.index()]));
            p[i.index()] = want;
        }
        converged = max_change < 1e-10;
    }
    CappedPower ref;
    ref.allocation.powers = p;
    ref.allocation.total = std::accumulate(p.begin(), p.end(), 0.0);
    ref.allocation.iterations = iterations;
    ref.allocation.feasible = converged && !capped;
    ref.coverage = verify_coverage(s, plan, p);
    return ref;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// |a - b| relative to the larger magnitude; 0 when a == b (infinities
/// included).
double relative_gap(double a, double b) {
    if (a == b) return 0.0;
    return std::abs(a - b) / std::max(std::abs(a), std::abs(b));
}

// The field loop against the gain-matrix loop, in two tiers. A call whose
// first sweep moves nothing returns p0 audited on its from-scratch field:
// the reference's outputs bit for bit. A call that moves reads its
// interference off compensated field totals instead of sequential
// gain-matrix sums: the same iterations, verdicts and SubscriberCheck
// flags, with powers, totals and snr_db within 1e-12 relative. Plans
// solved at -15 dB, plans solved near the feasibility onset (-10 and -12
// dB), a shadowed log-distance family (scalar-only kernel, floors above
// P_max) and the 4 km city are allocated at -25 ... -5 dB under P_max
// caps, seeded degraded caps, and caps with one floor above its cap. Each
// tier must end both feasible and infeasible often.
TEST(OptimalPowerTest, CertifiedFixedPointMatchesSweep) {
    struct Instance {
        Scenario scenario;
        CoveragePlan plan;
    };
    std::vector<Instance> instances;
    const auto add = [&](const sim::GeneratorConfig& cfg, std::uint64_t seed) {
        const Scenario s = sim::generate_scenario(cfg, seed);
        CoveragePlan plan = solve_samc(s).plan;
        if (plan.feasible) instances.push_back({s, std::move(plan)});
    };
    std::uint64_t seed = 500;
    for (const std::size_t users : {15u, 30u, 60u}) {
        for (int k = 0; k < 4; ++k) {
            sim::GeneratorConfig cfg;
            cfg.field_side = 500.0;
            cfg.subscriber_count = users;
            cfg.snr_threshold_db = units::Decibel{-15.0};
            add(cfg, seed++);
        }
    }
    // Plans placed near the feasibility onset, where the sweep climbs
    // above the floors and still converges within P_max.
    for (const double db : {-10.0, -12.0}) {
        for (int k = 0; k < 6; ++k) {
            sim::GeneratorConfig cfg;
            cfg.field_side = 300.0;
            cfg.subscriber_count = 20;
            cfg.snr_threshold_db = units::Decibel{db};
            cfg.radio.alpha = 3.0;
            add(cfg, seed++);
        }
    }
    for (int k = 0; k < 4; ++k) {
        auto model = std::make_shared<wireless::LogDistanceModel>();
        model->shadowing_sigma = units::Decibel{6.0};
        model->shadowing_seed = 200 + static_cast<std::uint64_t>(k);
        sim::GeneratorConfig cfg;
        cfg.field_side = 500.0;
        cfg.subscriber_count = 40;
        cfg.snr_threshold_db = units::Decibel{k % 2 == 0 ? -10.0 : -15.0};
        cfg.radio.snr_ambient_noise = units::Watt{0.0};
        cfg.propagation = model;
        add(cfg, seed++);
    }
    {
        sim::GeneratorConfig cfg;  // the 4 km city of examples/city_scale
        cfg.field_side = 4000.0;
        cfg.subscriber_count = 300;
        cfg.base_station_count = 9;
        add(cfg, seed++);
    }
    ASSERT_GE(instances.size(), 20u);

    obs::ScopedRecorder rec;
    const auto certified_calls = [&] {
        const obs::RunReport report = rec.snapshot();
        const auto it = report.counters.find("power.capped.certified");
        return it == report.counters.end() ? std::uint64_t{0} : it->second;
    };
    // taken[moved][feasible]: calls per tier and verdict.
    std::size_t taken[2][2] = {};
    std::size_t calls = 0;
    double worst_gap = 0.0;
    std::mt19937_64 rng(7);
    for (const Instance& inst : instances) {
        const CoveragePlan& plan = inst.plan;
        for (const double db : {-25.0, -20.0, -15.0, -12.0, -10.0, -5.0}) {
            Scenario s = inst.scenario;
            s.snr_threshold_db = units::Decibel{db};
            const double p_max = s.rs_max_power().watts();
            const auto floors = coverage_power_floors(s, plan);
            std::vector<std::vector<double>> cap_sets;
            cap_sets.emplace_back(plan.rs_count(), p_max);
            std::vector<double> degraded(plan.rs_count(), p_max);
            std::uniform_real_distribution<double> factor(0.4, 1.0);
            for (std::size_t i = 0; i < degraded.size(); i += 3) {
                degraded[i] = factor(rng) * p_max;
            }
            cap_sets.push_back(degraded);
            std::vector<double> broken(plan.rs_count(), p_max);
            for (const RsId i : plan.rs_ids()) {
                if (floors[i].watts() > 0.0) {
                    broken[i.index()] = 0.5 * floors[i].watts();
                    break;
                }
            }
            cap_sets.push_back(broken);

            for (const std::vector<double>& caps : cap_sets) {
                ++calls;
                const std::uint64_t before = certified_calls();
                const CappedPower got = allocate_power_capped(s, plan, caps);
                const bool moved = certified_calls() == before;
                const CappedPower ref = sweep_capped(s, plan, caps);
                const PowerAllocation& a = got.allocation;
                const PowerAllocation& b = ref.allocation;
                EXPECT_EQ(a.iterations, b.iterations) << "call " << calls;
                EXPECT_EQ(a.feasible, b.feasible) << "call " << calls;
                EXPECT_EQ(got.coverage.feasible, ref.coverage.feasible) << "call " << calls;
                EXPECT_EQ(got.coverage.violations, ref.coverage.violations);
                ASSERT_EQ(a.powers.size(), b.powers.size());
                ASSERT_EQ(got.coverage.subscribers.size(), ref.coverage.subscribers.size());
                if (!moved) {
                    EXPECT_EQ(a.iterations, 1) << "call " << calls;
                    EXPECT_EQ(bits_of(a.powers), bits_of(b.powers)) << "call " << calls;
                    EXPECT_EQ(bits(a.total), bits(b.total)) << "call " << calls;
                }
                for (std::size_t i = 0; i < a.powers.size(); ++i) {
                    worst_gap = std::max(worst_gap, relative_gap(a.powers[i], b.powers[i]));
                }
                worst_gap = std::max(worst_gap, relative_gap(a.total, b.total));
                for (const SsId j : s.ss_ids()) {
                    const SubscriberCheck& x = got.coverage.subscribers[j];
                    const SubscriberCheck& y = ref.coverage.subscribers[j];
                    EXPECT_EQ(x.serving_rs, y.serving_rs);
                    EXPECT_EQ(bits(x.access_distance), bits(y.access_distance));
                    EXPECT_EQ(x.distance_ok, y.distance_ok);
                    EXPECT_EQ(x.rate_ok, y.rate_ok);
                    EXPECT_EQ(x.snr_ok, y.snr_ok);
                    if (!moved) {
                        EXPECT_EQ(bits(x.snr_db), bits(y.snr_db)) << "call " << calls;
                    }
                    worst_gap = std::max(worst_gap, relative_gap(x.snr_db, y.snr_db));
                }
                ++taken[moved][b.feasible];
            }
        }
    }
    EXPECT_LE(worst_gap, 1e-12);
    char gap[32];
    std::snprintf(gap, sizeof gap, "%.2e", worst_gap);
    RecordProperty("worst_relative_gap", gap);
    for (const bool moved : {false, true}) {
        for (const bool feasible : {false, true}) {
            EXPECT_GE(taken[moved][feasible], 10u)
                << (moved ? "moved" : "unmoved") << ", "
                << (feasible ? "feasible" : "infeasible") << ", of " << calls;
        }
    }
}

// Yates power control on hand-built instances: two RSs on the x-axis,
// each serving the SS beside it, so every requirement has a closed form
// in the kernel's own gains.
Scenario coupled_pair(double threshold_db, const geom::Vec2& ss0,
                      const geom::Vec2& ss1) {
    Scenario s = base_scenario();
    s.snr_threshold_db = units::Decibel{threshold_db};
    s.subscribers = {{ss0, 35.0}, {ss1, 35.0}};
    return s;
}

double path_gain(const Scenario& s, const geom::Vec2& from, const geom::Vec2& to) {
    return s.received_power(units::Watt{1.0}, from, to).watts();
}

TEST(PowerControlTest, NoCouplingSettlesAtFloors) {
    // One RS: no interferer, so P_snr is 0 and the floor is the answer.
    Scenario s = base_scenario();
    s.subscribers = {{{110.0, 0.0}, 35.0}, {{100.0, 20.0}, 35.0}, {{70.0, 0.0}, 35.0}};
    const auto plan = plan_of({{100.0, 0.0}}, {RsId{0}, RsId{0}, RsId{0}});
    const double caps[] = {s.rs_max_power().watts()};
    const CappedPower got = allocate_power_capped(s, plan, caps);
    EXPECT_TRUE(got.allocation.feasible);
    EXPECT_TRUE(got.coverage.feasible);
    EXPECT_EQ(got.allocation.iterations, 1);
    EXPECT_EQ(got.allocation.powers,
              std::vector<double>{coverage_power_floors(s, plan)[RsId{0}].watts()});
}

TEST(PowerControlTest, LinearCouplingConvergesToMinimalFixedPoint) {
    // At 0 dB with ambient noise N, RS i needs p_i >= a_i p_k + b_i with
    // a_i = g_ki / g_ii and b_i = N / g_ii: the minimal vector solves the
    // two equalities, p0 = (a0 b1 + b0) / (1 - a0 a1), p1 = a1 p0 + b1.
    const geom::Vec2 rs0{-40.0, 0.0}, rs1{40.0, 0.0};
    const geom::Vec2 ss0{-20.0, 0.0}, ss1{15.0, 0.0};
    Scenario s = coupled_pair(0.0, ss0, ss1);
    s.radio.snr_ambient_noise = s.min_rx_power(SsId{0}) * 1.5;
    const auto plan = plan_of({rs0, rs1}, {RsId{0}, RsId{1}});
    const double noise = s.radio.snr_ambient_noise.watts();
    const double a0 = path_gain(s, rs1, ss0) / path_gain(s, rs0, ss0);
    const double a1 = path_gain(s, rs0, ss1) / path_gain(s, rs1, ss1);
    const double b0 = noise / path_gain(s, rs0, ss0);
    const double b1 = noise / path_gain(s, rs1, ss1);
    const double p0 = (a0 * b1 + b0) / (1.0 - a0 * a1);
    const double p1 = a1 * p0 + b1;
    const auto floors = coverage_power_floors(s, plan);
    const double p_max = s.rs_max_power().watts();
    ASSERT_GT(p0, floors[RsId{0}].watts());
    ASSERT_GT(p1, floors[RsId{1}].watts());
    ASSERT_LT(std::max(p0, p1), p_max);

    const double caps[] = {p_max, p_max};
    const CappedPower got = allocate_power_capped(s, plan, caps);
    EXPECT_TRUE(got.allocation.feasible);
    EXPECT_TRUE(got.coverage.feasible);
    EXPECT_GT(got.allocation.iterations, 1);
    EXPECT_NEAR(got.allocation.powers[0], p0, 1e-9 * p0);
    EXPECT_NEAR(got.allocation.powers[1], p1, 1e-9 * p1);
}

TEST(PowerControlTest, InfeasibleWhenFixedPointExceedsCap) {
    // The instance above with RS 0 capped below its own noise term b0:
    // its requirement a0 p1 + b0 can never fit.
    const geom::Vec2 rs0{-40.0, 0.0}, rs1{40.0, 0.0};
    Scenario s = coupled_pair(0.0, {-20.0, 0.0}, {15.0, 0.0});
    s.radio.snr_ambient_noise = s.min_rx_power(SsId{0}) * 1.5;
    const auto plan = plan_of({rs0, rs1}, {RsId{0}, RsId{1}});
    const double b0 =
        s.radio.snr_ambient_noise.watts() / path_gain(s, rs0, s.subscribers[0].pos);
    const double floor0 = coverage_power_floors(s, plan)[RsId{0}].watts();
    ASSERT_LT(floor0, b0);
    const double caps[] = {0.5 * (floor0 + b0), s.rs_max_power().watts()};
    const CappedPower got = allocate_power_capped(s, plan, caps);
    EXPECT_FALSE(got.allocation.feasible);
    EXPECT_FALSE(got.coverage.feasible);
    EXPECT_EQ(got.allocation.powers[0], caps[0]);
    EXPECT_LE(got.allocation.powers[1], caps[1]);
}

TEST(PowerControlTest, DivergentCouplingHitsCapsAndReportsInfeasible) {
    // At +3 dB each SS sits almost midway between the RSs: a0 * a1 > 1,
    // so the requirement has no finite fixed point and both RSs climb to
    // their caps.
    const geom::Vec2 rs0{-20.0, 0.0}, rs1{20.0, 0.0};
    const geom::Vec2 ss0{-1.0, 0.0}, ss1{1.0, 0.0};
    const Scenario s = coupled_pair(3.0, ss0, ss1);
    const auto plan = plan_of({rs0, rs1}, {RsId{0}, RsId{1}});
    const double beta = s.snr_threshold_linear();
    const double a0 = beta * path_gain(s, rs1, ss0) / path_gain(s, rs0, ss0);
    const double a1 = beta * path_gain(s, rs0, ss1) / path_gain(s, rs1, ss1);
    ASSERT_GT(a0 * a1, 1.0);
    const double caps[] = {s.rs_max_power().watts(), s.rs_max_power().watts()};
    const CappedPower got = allocate_power_capped(s, plan, caps);
    EXPECT_FALSE(got.allocation.feasible);
    EXPECT_FALSE(got.coverage.feasible);
    for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(got.allocation.powers[i], caps[i]);
}

TEST(PowerControlTest, FloorsAlreadyAboveRequirementStay) {
    // At -15 dB without ambient noise the pair's SNR requirements are
    // positive but far below the coverage floors.
    const Scenario s = coupled_pair(-15.0, {-20.0, 0.0}, {15.0, 0.0});
    const auto plan = plan_of({{-40.0, 0.0}, {40.0, 0.0}}, {RsId{0}, RsId{1}});
    std::vector<double> floors;
    for (const units::Watt f : coverage_power_floors(s, plan)) floors.push_back(f.watts());
    const GainMatrix gains(s, plan);
    const auto served = plan.served_lists();
    for (const RsId i : plan.rs_ids()) {
        const double need = gains.snr_floor(s, served[i], i, floors);
        ASSERT_GT(need, 0.0);
        ASSERT_LT(need, floors[i.index()]);
    }
    const double caps[] = {s.rs_max_power().watts(), s.rs_max_power().watts()};
    const CappedPower got = allocate_power_capped(s, plan, caps);
    EXPECT_TRUE(got.allocation.feasible);
    EXPECT_EQ(got.allocation.iterations, 1);
    EXPECT_EQ(got.allocation.powers, floors);
}

TEST(PowerControlTest, RejectsSizeMismatch) {
    const Scenario s = coupled_pair(-15.0, {-20.0, 0.0}, {15.0, 0.0});
    const auto plan = plan_of({{-40.0, 0.0}, {40.0, 0.0}}, {RsId{0}, RsId{1}});
    const double caps[] = {s.rs_max_power().watts()};
    EXPECT_THROW((void)allocate_power_capped(s, plan, caps), std::invalid_argument);
}

TEST(PowerControlTest, EmptySystemTriviallyFeasible) {
    const Scenario s = base_scenario();
    const auto plan = plan_of({}, {});
    const CappedPower got = allocate_power_capped(s, plan, {});
    EXPECT_TRUE(got.allocation.feasible);
    EXPECT_TRUE(got.coverage.feasible);
    EXPECT_TRUE(got.allocation.powers.empty());
    EXPECT_EQ(got.allocation.total, 0.0);
}

/// Property: on generated plans allocated at and above the threshold
/// they were placed for, every entry of allocate_power_capped's answer
/// is tight, min(cap, max(P_c, P_snr)) with P_snr read off a test-local
/// gain matrix, so no entry can go lower: the fixed point is the minimal
/// one, and feasible whenever no entry sits clamped below its
/// requirement.
class PowerControlProperty : public ::testing::TestWithParam<int> {};

TEST_P(PowerControlProperty, FixedPointIsMinimalFeasible) {
    std::mt19937_64 rng(GetParam());
    std::size_t moved = 0, feasible = 0, calls = 0;
    for (int trial = 0; trial < 6; ++trial) {
        sim::GeneratorConfig cfg;
        cfg.field_side = 300.0;
        cfg.subscriber_count = 20;
        cfg.snr_threshold_db = units::Decibel{-12.0};
        const Scenario placed = sim::generate_scenario(cfg, rng());
        const CoveragePlan plan = solve_samc(placed).plan;
        if (!plan.feasible) continue;
        const auto served = plan.served_lists();
        for (const double db : {-12.0, -10.0, -8.0}) {
            Scenario s = placed;
            s.snr_threshold_db = units::Decibel{db};
            const std::vector<double> caps(plan.rs_count(), s.rs_max_power().watts());
            const CappedPower got = allocate_power_capped(s, plan, caps);
            const std::vector<double>& p = got.allocation.powers;
            const GainMatrix gains(s, plan);
            const auto floors = coverage_power_floors(s, plan);
            bool clamped = false;
            for (const RsId i : plan.rs_ids()) {
                const double need = std::max(floors[i].watts(),
                                             gains.snr_floor(s, served[i], i, p));
                const double cap = caps[i.index()];
                EXPECT_NEAR(p[i.index()], std::min(cap, need), 1e-9 * std::max(1.0, need))
                    << "trial " << trial << ", " << db << " dB, rs " << i;
                if (need > cap + 1e-9 * std::max(1.0, cap)) clamped = true;
            }
            EXPECT_EQ(got.allocation.feasible, !clamped) << "trial " << trial;
            if (got.allocation.feasible) {
                EXPECT_TRUE(got.coverage.feasible) << "trial " << trial;
                ++feasible;
            }
            ++calls;
            if (got.allocation.iterations > 1) ++moved;
        }
    }
    EXPECT_GE(moved, 3u) << "of " << calls;
    EXPECT_GE(feasible, 3u) << "of " << calls;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PowerControlProperty,
                         ::testing::Values(31, 41, 59, 26));

}  // namespace
}  // namespace sag::core
