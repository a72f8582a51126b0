// SnrField: incremental-vs-scratch equivalence, inverse deltas undoing a
// probe, the incremental ILPQC oracle, and the grid-backed nearest
// assignment.
// The randomized property tests use fixed seeds.
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sag/core/snr.h"
#include "sag/core/snr_field.h"
#include "sag/ids/ids.h"
#include "sag/obs/obs.h"
#include "sag/sim/scenario_gen.h"

namespace sag::core {
namespace {

using ids::CandId;
using ids::RsId;
using ids::SsId;

Scenario random_scenario(std::size_t users, double side, unsigned seed) {
    sim::GeneratorConfig cfg;
    cfg.field_side = side;
    cfg.subscriber_count = users;
    cfg.base_station_count = 2;
    cfg.snr_threshold_db = units::Decibel{-15.0};
    return sim::generate_scenario(cfg, seed);
}

/// Relative difference that treats a shared infinity as equal.
double rel_diff(double a, double b) {
    if (std::isinf(a) && std::isinf(b)) return 0.0;
    const double scale = std::max({std::abs(a), std::abs(b), 1e-300});
    return std::abs(a - b) / scale;
}

/// Serving map: subscriber k -> RS (k % rs_count). Synthetic but exercises
/// every (signal, interference) split.
ids::IdVec<SsId, RsId> round_robin_serving(std::size_t subs, std::size_t rs) {
    ids::IdVec<SsId, RsId> serving;
    serving.reserve(subs);
    for (std::size_t k = 0; k < subs; ++k) serving.push_back(RsId{k % rs});
    return serving;
}

// The headline property: 1000 mixed move / power / add / pop deltas,
// and after every delta the incrementally maintained field matches a
// field built from scratch at its RSs and powers to 1e-12 relative.
TEST(SnrFieldTest, ThousandMixedDeltasMatchScratchTo1e12) {
    const Scenario s = random_scenario(60, 500.0, 23);
    std::mt19937 rng(1234);
    std::uniform_real_distribution<double> coord(-250.0, 250.0);
    std::uniform_real_distribution<double> power(0.0, s.radio.max_power.watts());
    std::uniform_int_distribution<int> op(0, 3);

    std::vector<geom::Vec2> rs;
    std::vector<double> powers;
    for (std::size_t i = 0; i < 12; ++i) {
        rs.push_back({coord(rng), coord(rng)});
        powers.push_back(power(rng));
    }
    SnrField field(s, rs, powers);
    field.set_check_interval(0);  // this test *is* the check

    for (int step = 0; step < 1000; ++step) {
        std::uniform_int_distribution<std::size_t> pick(0, field.rs_count() - 1);
        switch (op(rng)) {
            case 0:
                field.move_rs(RsId{pick(rng)}, {coord(rng), coord(rng)});
                break;
            case 1:
                field.set_power(RsId{pick(rng)}, units::Watt{power(rng)});
                break;
            case 2:
                field.add_rs({coord(rng), coord(rng)}, units::Watt{power(rng)});
                break;
            default:
                if (field.rs_count() > 2) {
                    field.pop_rs();
                } else {
                    field.add_rs({coord(rng), coord(rng)}, units::Watt{power(rng)});
                }
                break;
        }

        const auto cur_rs = field.rs_positions();
        const auto cur_powers = field.rs_powers();
        const auto serving =
            round_robin_serving(s.subscriber_count(), field.rs_count());
        const SnrField scratch(s, cur_rs, cur_powers);
        for (const SsId k : serving.ids()) {
            ASSERT_LE(rel_diff(field.snr_of(k, serving[k]), scratch.snr_of(k, serving[k])),
                      1e-12)
                << "step " << step << " subscriber " << k;
        }
    }
    EXPECT_LE(field.verify_against_scratch(), 1e-12);
}

/// Bit equality, exact for infinities and signed zeros alike.
bool same_bits(double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The gain evaluations `build` reports through snr_field.gain_evals.
template <class Build>
std::uint64_t gain_evals_of(Build&& build) {
    obs::ScopedRecorder recorder;
    build();
    const auto counters = recorder.snapshot().counters;
    const auto it = counters.find("snr_field.gain_evals");
    return it == counters.end() ? 0 : it->second;
}

// The paired build shares one gain sweep between two fields; each must
// equal a field built alone at its powers in every slot's total, bit for
// bit, and answer the same SNR reads. Covers zero RSs, zero subscribers,
// every column-tail length, zero-power columns and an RS on a subscriber.
TEST(SnrFieldTest, PairedBuildMatchesTwoFromScratchFields) {
    std::mt19937_64 rng(99);
    std::uniform_real_distribution<double> coord(-250.0, 250.0);
    for (const std::size_t users : {std::size_t{0}, std::size_t{1}, std::size_t{37}}) {
        Scenario s = random_scenario(users == 0 ? 1 : users, 500.0, 5);
        if (users == 0) s.subscribers.clear();
        std::uniform_real_distribution<double> power(0.0, s.radio.max_power.watts());
        for (std::size_t rs_count = 0; rs_count <= 9; ++rs_count) {
            std::vector<geom::Vec2> rs;
            std::vector<double> p0, p1;
            for (std::size_t i = 0; i < rs_count; ++i) {
                rs.push_back(i == 0 && users > 0 ? s.subscribers[0].pos
                                                 : geom::Vec2{coord(rng), coord(rng)});
                p0.push_back(s.radio.max_power.watts());
                p1.push_back(rs_count % 3 == 2 ? 0.0 : power(rng));
            }
            SCOPED_TRACE(::testing::Message() << users << " subscribers, " << rs_count
                                              << " RSs");
            const auto [a, b] = SnrField::paired(s, rs, p0, p1);
            const SnrField lone_a(s, rs, p0);
            const SnrField lone_b(s, rs, p1);
            ASSERT_EQ(a.tracked_count(), s.subscriber_count());
            ASSERT_EQ(b.tracked_count(), s.subscriber_count());
            EXPECT_EQ(std::vector<double>(a.rs_powers().begin(), a.rs_powers().end()), p0);
            EXPECT_EQ(std::vector<double>(b.rs_powers().begin(), b.rs_powers().end()), p1);
            for (const SsId k : a.tracked_ids()) {
                EXPECT_TRUE(same_bits(a.total_rx(k), lone_a.total_rx(k))) << k;
                EXPECT_TRUE(same_bits(b.total_rx(k), lone_b.total_rx(k))) << k;
                for (const RsId i : a.rs_ids()) {
                    EXPECT_TRUE(same_bits(a.snr_of(k, i), lone_a.snr_of(k, i)));
                    EXPECT_TRUE(same_bits(b.snr_of(k, i), lone_b.snr_of(k, i)));
                }
            }
        }
    }
}

// snr_field.gain_evals counts a paired build's shared sweep once: R*S,
// where two separate builds count 2*R*S.
TEST(SnrFieldTest, PairedBuildEvaluatesEachGainOnce) {
    const Scenario s = random_scenario(40, 500.0, 8);
    std::vector<geom::Vec2> rs;
    for (std::size_t i = 0; i < 6; ++i) rs.push_back(s.subscribers[i * 6].pos);
    const std::vector<double> p0(rs.size(), s.radio.max_power.watts());
    const std::vector<double> p1(rs.size(), s.radio.max_power.watts() / 4.0);
    const std::uint64_t rs_by_ss = rs.size() * s.subscriber_count();
    EXPECT_EQ(gain_evals_of([&] { (void)SnrField::paired(s, rs, p0, p1); }), rs_by_ss);
    EXPECT_EQ(gain_evals_of([&] {
                  const SnrField a(s, rs, p0);
                  const SnrField b(s, rs, p1);
              }),
              2 * rs_by_ss);
}

// A probe's deltas rolled back by hand: each delta kind is undone by its
// inverse (move back, set_power back, pop_rs after add_rs), in reverse
// order, and every total returns to within 1e-13 of where it started.
TEST(SnrFieldTest, TransactionRollsBackEveryDeltaKind) {
    const Scenario s = random_scenario(30, 500.0, 7);
    std::vector<geom::Vec2> rs = {{-100.0, 0.0}, {0.0, 50.0}, {120.0, -80.0}};
    SnrField field = SnrField::at_max_power(s, rs);

    std::vector<double> before(s.subscriber_count());
    for (std::size_t k = 0; k < before.size(); ++k) {
        before[k] = field.total_rx(SsId{k});
    }

    field.move_rs(RsId{0}, {33.0, 44.0});
    field.set_power(RsId{1}, units::Watt{1.5});
    field.add_rs({-40.0, -40.0}, units::Watt{20.0});
    field.move_rs(RsId{0}, {-5.0, -5.0});  // second touch of the same RS
    ASSERT_EQ(field.rs_count(), 4u);

    field.move_rs(RsId{0}, {33.0, 44.0});
    field.pop_rs();
    field.set_power(RsId{1}, s.radio.max_power);
    field.move_rs(RsId{0}, rs[0]);

    ASSERT_EQ(field.rs_count(), 3u);
    EXPECT_EQ(field.rs_position(RsId{0}), rs[0]);
    EXPECT_EQ(field.rs_position(RsId{2}), rs[2]);
    EXPECT_EQ(field.rs_power(RsId{1}), s.radio.max_power);
    for (std::size_t k = 0; k < before.size(); ++k) {
        EXPECT_LE(rel_diff(field.total_rx(SsId{k}), before[k]), 1e-13) << k;
    }
    EXPECT_LE(field.verify_against_scratch(), 1e-12);
}

TEST(SnrFieldTest, ViolatedMatchesManualAudit) {
    const Scenario s = random_scenario(25, 400.0, 31);
    std::vector<geom::Vec2> rs;
    for (std::size_t i = 0; i < 5; ++i) rs.push_back(s.subscribers[i * 5].pos);
    const SnrField field = SnrField::at_max_power(s, rs);
    const auto serving = round_robin_serving(s.subscriber_count(), rs.size());

    const auto bad = field.violated(serving);
    const std::vector<double> powers(rs.size(), s.radio.max_power.watts());
    const SnrField scratch(s, rs, powers);
    const double beta = s.snr_threshold_linear();
    std::vector<SsId> expected;
    for (const SsId k : serving.ids()) {
        const Subscriber& sub = s.subscriber(k);
        const double d = geom::distance(rs[serving[k].index()], sub.pos);
        if (d > sub.distance_request + 1e-6 ||
            scratch.snr_of(k, serving[k]) < beta * (1.0 - 1e-12)) {
            expected.push_back(k);
        }
    }
    EXPECT_EQ(bad, expected);
}

TEST(SnrFieldTest, TrackedSubsetOnlySeesItsSubscribers) {
    const Scenario s = random_scenario(30, 500.0, 17);
    const std::vector<SsId> subset = {SsId{3}, SsId{7}, SsId{11}, SsId{19}};
    std::vector<geom::Vec2> rs = {{0.0, 0.0}, {80.0, 80.0}};
    const SnrField field = SnrField::at_max_power(s, rs, subset);
    ASSERT_EQ(field.tracked_count(), subset.size());
    const std::vector<double> powers(rs.size(), s.radio.max_power.watts());
    const ids::IdVec<SsId, RsId> serving = {RsId{0}, RsId{1}, RsId{0}, RsId{1}};
    // A field over every subscriber: the subset's slots read the same SNRs.
    const SnrField full(s, rs, powers);
    for (const SsId k : serving.ids()) {
        EXPECT_EQ(field.tracked_subscriber(k), subset[k.index()]);
        EXPECT_LE(rel_diff(field.snr_of(k, serving[k]),
                           full.snr_of(subset[k.index()], serving[k])),
                  1e-12);
    }
}

/// One subscriber at `rx` with the ambient-noise term off: the pure
/// interference-limited model of paper Definition 2.
Scenario single_receiver(const geom::Vec2& rx) {
    Scenario s;
    s.field = geom::Rect::centered_square(500.0);
    s.subscribers = {{rx, 100.0}};
    s.base_stations = {{{0.0, 200.0}}};
    s.radio.snr_ambient_noise = units::Watt{0.0};
    return s;
}

/// snr_of for the single subscriber served by RS 0, on a fresh field.
double serving_snr(const Scenario& s, std::span<const geom::Vec2> rs,
                   std::span<const double> powers) {
    return SnrField(s, rs, powers).snr_of(SsId{0}, RsId{0});
}

// Definition 2: the serving RS's received power over the sum of every
// other RS's received power.
TEST(SnrFieldTest, InterferenceSnrMatchesDefinition2) {
    const Scenario s = single_receiver({10.0, 0.0});
    const std::vector<geom::Vec2> rs = {{0.0, 0.0}, {30.0, 0.0}};
    const std::vector<double> powers = {10.0, 20.0};
    const SnrField field(s, rs, powers);
    const double s0 = (s.received_power(units::Watt{10.0}, units::Meters{10.0}) /
                       s.received_power(units::Watt{20.0}, units::Meters{20.0}))
                          .ratio();
    EXPECT_LE(rel_diff(field.snr_of(SsId{0}, RsId{0}), s0), 1e-12);
    EXPECT_LE(rel_diff(field.snr_of(SsId{0}, RsId{1}), 1.0 / s0), 1e-12);
}

TEST(SnrFieldTest, ExtraNoiseLowersSnr) {
    Scenario s = single_receiver({10.0, 0.0});
    const std::vector<geom::Vec2> rs = {{0.0, 0.0}, {30.0, 0.0}};
    const std::vector<double> powers = {10.0, 20.0};
    const double clean = serving_snr(s, rs, powers);
    s.radio.snr_ambient_noise = units::Watt{0.065};
    EXPECT_LT(serving_snr(s, rs, powers), clean);
}

// The what-if read against the delta it predicts: for every RS i and
// power p, snr_with_power(k, i, p) on the untouched field equals, bit for
// bit, snr_of(k, i) after set_power(i, p), for every tracked subscriber;
// set_power back to the old power then undoes the delta.
// R = 7 and S = 39 are not multiples of the AVX2 width, so subscribers
// sit in full blocks and in a three-lane padded tail. Each RS then keeps
// a random power, so later reads start from a field with a delta history.
TEST(SnrFieldTest, WhatIfReadMatchesSetPower) {
    Scenario s = random_scenario(39, 400.0, 5);
    // Without ambient noise the SNR exposes every last-bit change of the
    // cached total.
    s.radio.snr_ambient_noise = units::Watt{0.0};
    std::mt19937_64 rng(77);
    std::uniform_real_distribution<double> coord(-200.0, 200.0);
    std::uniform_real_distribution<double> watt(0.0, s.radio.max_power.watts());
    std::vector<geom::Vec2> rs;
    std::vector<double> powers;
    for (std::size_t i = 0; i < 7; ++i) {
        rs.push_back({coord(rng), coord(rng)});
        powers.push_back(watt(rng));
    }
    SnrField field(s, rs, powers);
    for (const RsId i : field.rs_ids()) {
        const double candidates[] = {watt(rng), 0.0, field.rs_power(i).watts(),
                                     s.radio.max_power.watts()};
        for (const double p : candidates) {
            std::vector<double> predicted;
            for (const SsId k : field.tracked_ids()) {
                predicted.push_back(field.snr_with_power(k, i, units::Watt{p}));
                if (p == 0.0) {
                    EXPECT_EQ(predicted.back(), 0.0);  // no signal
                }
            }
            const units::Watt old = field.rs_power(i);
            field.set_power(i, units::Watt{p});
            for (const SsId k : field.tracked_ids()) {
                EXPECT_TRUE(same_bits(predicted[k.index()], field.snr_of(k, i)))
                    << "rs " << i << " p " << p << " sub " << k;
            }
            field.set_power(i, old);
        }
        field.set_power(i, units::Watt{watt(rng)});
    }
}

// snr_of's edges carry over: with zero ambient noise and one RS 2 m from
// its subscriber (a distance whose gain is the same double in the scalar
// and the vector kernel) the interference is exactly zero, so any
// positive power reads +inf; zero power reads 0.
TEST(SnrFieldTest, WhatIfReadKeepsSnrOfEdges) {
    const Scenario s = single_receiver({2.0, 0.0});
    const std::vector<geom::Vec2> rs = {{0.0, 0.0}};
    const std::vector<double> powers = {50.0};
    SnrField field(s, rs, powers);
    for (const double p : {25.0, 50.0, 1e-3}) {
        const double what_if = field.snr_with_power(SsId{0}, RsId{0}, units::Watt{p});
        EXPECT_TRUE(std::isinf(what_if) && what_if > 0.0) << p;
        field.set_power(RsId{0}, units::Watt{p});
        EXPECT_TRUE(same_bits(what_if, field.snr_of(SsId{0}, RsId{0}))) << p;
        field.set_power(RsId{0}, units::Watt{powers[0]});
    }
    EXPECT_EQ(field.snr_with_power(SsId{0}, RsId{0}, units::Watt{0.0}), 0.0);
}

/// Property: at a fixed receiver, SNR is increasing in the serving power
/// and decreasing in any interferer's power.
class SnrMonotoneProperty : public ::testing::TestWithParam<int> {};

TEST_P(SnrMonotoneProperty, MonotoneInPowers) {
    std::mt19937_64 rng(GetParam());
    std::uniform_real_distribution<double> coord(-100.0, 100.0);
    std::uniform_real_distribution<double> power(1.0, 50.0);
    for (int trial = 0; trial < 60; ++trial) {
        std::vector<geom::Vec2> rs;
        std::vector<double> powers;
        for (int i = 0; i < 4; ++i) {
            rs.push_back({coord(rng), coord(rng)});
            powers.push_back(power(rng));
        }
        const Scenario s = single_receiver({coord(rng), coord(rng)});
        const double base = serving_snr(s, rs, powers);

        auto boosted = powers;
        boosted[0] *= 2.0;
        EXPECT_GT(serving_snr(s, rs, boosted), base) << "trial " << trial;

        auto noisier = powers;
        noisier[2] *= 2.0;
        EXPECT_LT(serving_snr(s, rs, noisier), base) << "trial " << trial;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnrMonotoneProperty, ::testing::Values(3, 7, 13));

TEST(SnrFieldOracleTest, MatchesFreeFunctionOnRandomSubsets) {
    const Scenario s = random_scenario(30, 500.0, 41);
    std::vector<geom::Vec2> candidates;
    for (const auto& sub : s.subscribers) candidates.push_back(sub.pos);

    SnrFeasibilityOracle oracle(s, candidates);
    const std::vector<SsId> all_subs = ids::all_ids<SsId>(s.subscriber_count());

    std::mt19937 rng(77);
    std::vector<CandId> chosen;
    for (int trial = 0; trial < 60; ++trial) {
        // Random walk over subsets: push/pop with stack discipline most of
        // the time, occasionally jump to an unrelated set (the oracle must
        // stay correct for arbitrary query sequences).
        const int act = std::uniform_int_distribution<int>(0, 9)(rng);
        if (act < 4 || chosen.empty()) {
            chosen.push_back(CandId{std::uniform_int_distribution<std::size_t>(
                0, candidates.size() - 1)(rng)});
        } else if (act < 7) {
            chosen.pop_back();
        } else {
            chosen.clear();
            const std::size_t n =
                std::uniform_int_distribution<std::size_t>(1, 6)(rng);
            for (std::size_t i = 0; i < n; ++i) {
                chosen.push_back(CandId{std::uniform_int_distribution<std::size_t>(
                    0, candidates.size() - 1)(rng)});
            }
        }
        std::vector<geom::Vec2> positions;
        for (const CandId c : chosen) positions.push_back(candidates[c.index()]);
        EXPECT_EQ(oracle.feasible(chosen),
                  snr_feasible_at_max_power(s, positions, all_subs))
            << "trial " << trial;
    }
}

TEST(NearestAssignmentGridTest, GridPathMatchesLinearScan) {
    // 48 RSs crosses the grid-lookup threshold; compare against a local
    // brute-force replica of the linear-scan semantics.
    const Scenario s = random_scenario(120, 800.0, 53);
    std::mt19937 rng(5);
    std::uniform_real_distribution<double> coord(-400.0, 400.0);
    std::vector<geom::Vec2> rs;
    for (std::size_t i = 0; i < 48; ++i) rs.push_back({coord(rng), coord(rng)});

    const auto got = nearest_assignment(s, rs);
    ids::IdVec<SsId, RsId> expected(s.subscriber_count(), RsId::invalid());
    bool expected_ok = true;
    for (const SsId j : s.ss_ids()) {
        if (!expected_ok) break;
        const Subscriber& sub = s.subscriber(j);
        RsId best = RsId::invalid();
        double best_dist = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < rs.size(); ++i) {
            const double d = geom::distance(rs[i], sub.pos);
            if (d <= sub.distance_request + geom::kEps && d < best_dist) {
                best = RsId{i};
                best_dist = d;
            }
        }
        if (!best.valid()) expected_ok = false;
        expected[j] = best;
    }
    ASSERT_EQ(got.has_value(), expected_ok);
    if (got) {
        EXPECT_EQ(*got, expected);
    }
}

}  // namespace
}  // namespace sag::core
