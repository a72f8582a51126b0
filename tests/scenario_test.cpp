#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <limits>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "sag/core/candidates.h"
#include "sag/core/scenario.h"
#include "sag/core/snr.h"
#include "sag/core/zone_partition.h"
#include "sag/sim/scenario_gen.h"
#include "sag/units/units.h"

namespace sag::core {
namespace {

Scenario tiny_scenario() {
    Scenario s;
    s.field = geom::Rect::centered_square(500.0);
    s.subscribers = {{{0.0, 0.0}, 30.0}, {{100.0, 0.0}, 40.0}};
    s.base_stations = {{{-200.0, -200.0}}};
    s.snr_threshold_db = units::Decibel{-15.0};
    return s;
}

TEST(ScenarioTest, SnrThresholdConversion) {
    Scenario s = tiny_scenario();
    EXPECT_NEAR(s.snr_threshold_linear(),
                units::from_db(units::Decibel{-15.0}).ratio(), 1e-15);
}

TEST(ScenarioTest, FeasibleCircleMatchesSubscriber) {
    Scenario s = tiny_scenario();
    const auto c = s.feasible_circle(ids::SsId{1});
    EXPECT_EQ(c.center, (geom::Vec2{100.0, 0.0}));
    EXPECT_DOUBLE_EQ(c.radius, 40.0);
    EXPECT_EQ(s.feasible_circles().size(), 2u);
}

TEST(ScenarioTest, MinRxPowerIsPowerAtDistanceRequest) {
    Scenario s = tiny_scenario();
    const units::Watt expect = s.received_power(s.radio.max_power, units::Meters{30.0});
    EXPECT_NEAR(s.min_rx_power(ids::SsId{0}).watts(), expect.watts(), 1e-15);
    // Larger distance request -> weaker demanded power.
    EXPECT_LT(s.min_rx_power(ids::SsId{1}), s.min_rx_power(ids::SsId{0}));
}

TEST(ScenarioTest, MinDistanceRequest) {
    EXPECT_DOUBLE_EQ(tiny_scenario().min_distance_request(), 30.0);
}

TEST(ScenarioTest, ValidateAcceptsGoodInstance) {
    EXPECT_NO_THROW(tiny_scenario().validate());
}

TEST(ScenarioTest, ValidateRejectsBadInstances) {
    Scenario s = tiny_scenario();
    s.base_stations.clear();
    EXPECT_THROW(s.validate(), std::invalid_argument);

    s = tiny_scenario();
    s.subscribers[0].distance_request = 0.0;
    EXPECT_THROW(s.validate(), std::invalid_argument);

    s = tiny_scenario();
    s.subscribers[0].pos = {400.0, 0.0};  // outside field
    EXPECT_THROW(s.validate(), std::invalid_argument);

    s = tiny_scenario();
    s.base_stations[0].pos = {0.0, 9999.0};
    EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(ScenarioTest, ValidateRejectsNonFiniteRadioConstants) {
    using wireless::RadioParams;
    const auto rejects = [](auto set) {
        for (const double v : {std::nan(""), std::numeric_limits<double>::infinity()}) {
            Scenario s = tiny_scenario();
            set(s.radio, v);
            EXPECT_THROW(s.validate(), std::invalid_argument) << v;
        }
    };
    rejects([](RadioParams& r, double v) { r.tx_gain = v; });
    rejects([](RadioParams& r, double v) { r.rx_gain = v; });
    rejects([](RadioParams& r, double v) { r.tx_height = units::Meters{v}; });
    rejects([](RadioParams& r, double v) { r.rx_height = units::Meters{v}; });
    rejects([](RadioParams& r, double v) { r.alpha = v; });
    rejects([](RadioParams& r, double v) { r.max_power = units::Watt{v}; });
    rejects([](RadioParams& r, double v) { r.noise_floor = units::Watt{v}; });
    rejects([](RadioParams& r, double v) { r.bandwidth_hz = v; });
    rejects([](RadioParams& r, double v) { r.reference_distance = units::Meters{v}; });
    rejects([](RadioParams& r, double v) { r.snr_ambient_noise = units::Watt{v}; });
}

TEST(ScenarioTest, ValidateRejectsBadIgnorableNoise) {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double v : {-1e-5, std::nan(""), kInf}) {
        Scenario s = tiny_scenario();
        s.radio.ignorable_noise = units::Watt{v};
        EXPECT_THROW(s.validate(), std::invalid_argument) << v;
    }
    Scenario s = tiny_scenario();
    s.radio.ignorable_noise = units::Watt{0.0};  // nothing is ignorable
    EXPECT_NO_THROW(s.validate());
}

TEST(ScenarioTest, ValidateRejectsNonFiniteDistanceRequest) {
    for (const double v : {std::nan(""), std::numeric_limits<double>::infinity()}) {
        Scenario s = tiny_scenario();
        s.subscribers[1].distance_request = v;
        EXPECT_THROW(s.validate(), std::invalid_argument) << v;
    }
}

TEST(ZonePartitionTest, DmaxMatchesNmaxDefinition) {
    Scenario s = tiny_scenario();
    const double dmax = zone_partition_dmax(s);
    EXPECT_NEAR(s.received_power(s.radio.max_power, units::Meters{dmax}).watts(),
                s.radio.ignorable_noise.watts(), 1e-12);
}

TEST(ZonePartitionTest, NearbySubscribersShareAZone) {
    Scenario s = tiny_scenario();  // 100 apart, d_eff = 60 < dmax(~150)
    const auto zones = zone_partition(s);
    ASSERT_EQ(zones.size(), 1u);
    EXPECT_EQ(zones[ids::ZoneId{0}].size(), 2u);
}

TEST(ZonePartitionTest, FarSubscribersSplit) {
    Scenario s = tiny_scenario();
    s.field = geom::Rect::centered_square(2000.0);
    s.subscribers[1].pos = {900.0, 0.0};  // d_eff = 860 >> dmax
    const auto zones = zone_partition(s);
    EXPECT_EQ(zones.size(), 2u);
}

TEST(ZonePartitionTest, ZeroIgnorableNoiseIsOneZone) {
    // Nothing is ignorable: d_max is infinite, so the far pair still joins.
    Scenario s = tiny_scenario();
    s.field = geom::Rect::centered_square(2000.0);
    s.subscribers.push_back({{900.0, 900.0}, 35.0});
    s.radio.ignorable_noise = units::Watt{0.0};
    s.validate();
    EXPECT_EQ(zone_partition_dmax(s), std::numeric_limits<double>::infinity());
    const auto zones = zone_partition(s);
    ASSERT_EQ(zones.size(), 1u);
    EXPECT_EQ(zones[ids::ZoneId{0}].size(), 3u);
}

TEST(ZonePartitionTest, ZonesPartitionTheSubscribers) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 2000.0;
    cfg.subscriber_count = 40;
    const Scenario s = sim::generate_scenario(cfg, 3);
    const auto zones = zone_partition(s);
    std::set<ids::SsId> seen;
    for (const auto& z : zones) {
        EXPECT_FALSE(z.empty());
        for (const ids::SsId j : z) EXPECT_TRUE(seen.insert(j).second);
    }
    EXPECT_EQ(seen.size(), s.subscriber_count());
}

TEST(ZonePartitionTest, InterZoneStationsCannotInterfereAboveNmax) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 3000.0;
    cfg.subscriber_count = 30;
    const Scenario s = sim::generate_scenario(cfg, 9);
    const double dmax = zone_partition_dmax(s);
    const auto zones = zone_partition(s);
    // For subscribers in different zones: any RS within s_i's circle is
    // at least dmax from s_j.
    for (std::size_t a = 0; a < zones.size(); ++a) {
        for (std::size_t b = a + 1; b < zones.size(); ++b) {
            for (const ids::SsId i : zones[ids::ZoneId{a}]) {
                for (const ids::SsId j : zones[ids::ZoneId{b}]) {
                    const double dist = geom::distance(s.subscriber(i).pos,
                                                       s.subscriber(j).pos);
                    const double d_eff =
                        std::min(dist - s.subscriber(i).distance_request,
                                 dist - s.subscriber(j).distance_request);
                    EXPECT_GT(d_eff, dmax);
                }
            }
        }
    }
}

TEST(CandidatesTest, IacContainsIntersectionsOfOverlappingCircles) {
    Scenario s = tiny_scenario();
    s.subscribers = {{{0.0, 0.0}, 40.0}, {{50.0, 0.0}, 40.0}};
    const auto cands = iac_candidates(s);
    EXPECT_EQ(cands.size(), 2u);  // two boundary intersections
    for (const auto& p : cands) {
        for (const ids::SsId j : s.ss_ids()) {
            const geom::Circle c = s.feasible_circle(j);
            EXPECT_NEAR(geom::distance(c.center, p), c.radius, 1e-6);
        }
    }
}

TEST(CandidatesTest, IacAddsCenterForIsolatedSubscriber) {
    Scenario s = tiny_scenario();
    s.subscribers = {{{0.0, 0.0}, 30.0}, {{200.0, 0.0}, 30.0}};
    const auto cands = iac_candidates(s);
    ASSERT_EQ(cands.size(), 2u);  // both isolated: centers only
    EXPECT_EQ(cands[0], (geom::Vec2{0.0, 0.0}));
    EXPECT_EQ(cands[1], (geom::Vec2{200.0, 0.0}));
}

TEST(CandidatesTest, GacDensityTracksGridSize) {
    Scenario s = tiny_scenario();
    const auto coarse = gac_candidates(s, 50.0);
    const auto fine = gac_candidates(s, 20.0);
    EXPECT_EQ(coarse.size(), 100u);
    EXPECT_EQ(fine.size(), 625u);
    for (const auto& p : fine) EXPECT_TRUE(s.field.contains(p));
}

TEST(CandidatesTest, PruneRemovesUncoveringPositions) {
    Scenario s = tiny_scenario();
    auto cands = gac_candidates(s, 25.0);
    const std::size_t before = cands.size();
    cands = prune_useless_candidates(s, std::move(cands));
    EXPECT_LT(cands.size(), before);
    for (const auto& p : cands) {
        const bool covers_some =
            s.feasible_circle(ids::SsId{0}).contains(p, 1e-6) ||
            s.feasible_circle(ids::SsId{1}).contains(p, 1e-6);
        EXPECT_TRUE(covers_some);
    }
}

TEST(GeneratorTest, Deterministic) {
    sim::GeneratorConfig cfg;
    cfg.subscriber_count = 15;
    const Scenario a = sim::generate_scenario(cfg, 42);
    const Scenario b = sim::generate_scenario(cfg, 42);
    ASSERT_EQ(a.subscriber_count(), b.subscriber_count());
    for (std::size_t i = 0; i < a.subscriber_count(); ++i) {
        EXPECT_EQ(a.subscribers[i].pos, b.subscribers[i].pos);
        EXPECT_EQ(a.subscribers[i].distance_request, b.subscribers[i].distance_request);
    }
    const Scenario c = sim::generate_scenario(cfg, 43);
    EXPECT_NE(a.subscribers[0].pos, c.subscribers[0].pos);
}

TEST(GeneratorTest, RespectsConfig) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 800.0;
    cfg.subscriber_count = 25;
    cfg.base_station_count = 3;
    cfg.snr_threshold_db = units::Decibel{-20.0};
    const Scenario s = sim::generate_scenario(cfg, 1);
    EXPECT_EQ(s.subscriber_count(), 25u);
    EXPECT_EQ(s.base_stations.size(), 3u);
    EXPECT_DOUBLE_EQ(s.snr_threshold_db.db(), -20.0);
    EXPECT_DOUBLE_EQ(s.field.width(), 800.0);
    for (const auto& sub : s.subscribers) {
        EXPECT_GE(sub.distance_request, 30.0);
        EXPECT_LE(sub.distance_request, 40.0);
        EXPECT_TRUE(s.field.contains(sub.pos));
    }
}

TEST(GeneratorTest, CornersLayoutPlacesBsAtInsetCorners) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 600.0;
    cfg.base_station_count = 4;
    cfg.bs_layout = sim::BsLayout::Corners;
    const Scenario s = sim::generate_scenario(cfg, 8);
    ASSERT_EQ(s.base_stations.size(), 4u);
    for (const auto& b : s.base_stations) {
        EXPECT_NEAR(std::abs(b.pos.x), 240.0, 1e-9);
        EXPECT_NEAR(std::abs(b.pos.y), 240.0, 1e-9);
    }
}

TEST(GeneratorTest, RejectsBadConfig) {
    sim::GeneratorConfig cfg;
    cfg.field_side = -5.0;
    EXPECT_THROW((void)sim::generate_scenario(cfg, 1), std::invalid_argument);
    cfg = {};
    cfg.base_station_count = 0;
    EXPECT_THROW((void)sim::generate_scenario(cfg, 1), std::invalid_argument);
    cfg = {};
    cfg.max_distance_request = 10.0;  // below min
    EXPECT_THROW((void)sim::generate_scenario(cfg, 1), std::invalid_argument);
}


// ---- Golden byte-identity -------------------------------------------------
//
// Pins the exact zones, IAC candidates and nearest assignments (order
// included) of seeded subscriber families. The digests were recorded from
// the hash-grid neighbour index, so the x-sorted sweep must reproduce it
// bit for bit.

/// Uniform double in [0, 1) from the top 53 bits of one raw engine word.
/// mt19937_64's word sequence is fixed by the standard, so these families
/// are the same under every standard library (sim::generate_scenario's
/// std::uniform_real_distribution is not).
double unit(std::mt19937_64& rng) {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/// `n` subscribers in a square field of side `side`: uniform with
/// requests in [30, 40), or on a 10 m lattice with every request 30 m,
/// which gives exact tangencies and duplicate sites.
Scenario golden_family(std::size_t n, double side, bool lattice, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    Scenario s = tiny_scenario();
    s.field = geom::Rect::centered_square(side);
    s.subscribers.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const double x = (unit(rng) - 0.5) * side;
        const double y = (unit(rng) - 0.5) * side;
        if (lattice) {
            s.subscribers.push_back(
                {{10.0 * std::round(x / 10.0), 10.0 * std::round(y / 10.0)}, 30.0});
        } else {
            s.subscribers.push_back({{x, y}, 30.0 + 10.0 * unit(rng)});
        }
    }
    return s;
}

/// FNV-1a over 64-bit words.
struct Digest {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    void add(std::uint64_t v) {
        for (int b = 0; b < 64; b += 8) {
            h ^= (v >> b) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
};

/// The all-subscriber nearest assignment, then each subscriber's alone, so
/// a relay set that leaves some subscriber unserved still pins the rest.
std::uint64_t nearest_digest(const Scenario& s, std::span<const geom::Vec2> rs) {
    constexpr std::uint64_t kUnserved = ~std::uint64_t{0};
    Digest d;
    const auto all = nearest_assignment(s, rs);
    if (!all) d.add(kUnserved);
    for (const ids::SsId j : s.ss_ids()) {
        if (all) d.add(std::uint64_t{(*all)[j].index()});
        const auto one = nearest_assignment(s, rs, std::span<const ids::SsId>(&j, 1));
        d.add(one ? std::uint64_t{(*one)[ids::SsId{0}].index()} : kUnserved);
    }
    return d.h;
}

struct NeighbourGolden {
    std::size_t subscribers;
    double side;
    bool lattice;
    std::uint64_t seed;
    std::uint64_t zones;      ///< digest of zone_partition
    std::uint64_t iac;        ///< digest of iac_candidates
    std::uint64_t many;       ///< nearest_digest over the IAC candidates, twice
    std::uint64_t few;        ///< nearest_digest over 15 subscriber sites, twice
};

constexpr NeighbourGolden kNeighbourGolden[] = {
    {60, 500.0, false, 1, 0x74c30c728f3ba699ULL, 0x36fc0e34821fb8aULL,
     0x77a864a293176045ULL, 0x225e9f8275f96232ULL},
    {70, 800.0, false, 2, 0x57b25942893feca2ULL, 0x990472c7f666519cULL,
     0x28a2cf166926f485ULL, 0x79bb51adbeaa039aULL},
    {300, 4000.0, false, 3, 0x8c933ef3ead212b7ULL, 0xc7280070081e2be9ULL,
     0xacd96f592391c4a9ULL, 0x5d4551ef92b9cd6aULL},
    {80, 300.0, true, 4, 0x6ca18f619ab7a1d5ULL, 0x53c12f466755ac4aULL,
     0xc2bd8f933b8c8475ULL, 0x620e82bc706c4aa0ULL},
    {300, 1500.0, true, 5, 0xc70ea0df87e09b18ULL, 0x557cded515bdd236ULL,
     0x9da18279cba5e985ULL, 0x6df0b289826d1847ULL},
};

TEST(NeighbourGolden, ByteIdenticalOnSeededFamilies) {
    for (const NeighbourGolden& g : kNeighbourGolden) {
        const Scenario s = golden_family(g.subscribers, g.side, g.lattice, g.seed);
        Digest zones;
        for (const auto& zone : zone_partition(s)) {
            zones.add(std::uint64_t{zone.size()});
            for (const ids::SsId j : zone) zones.add(std::uint64_t{j.index()});
        }
        const std::vector<geom::Vec2> cands = iac_candidates(s);
        Digest iac;
        for (const geom::Vec2& p : cands) {
            iac.add(p.x);
            iac.add(p.y);
        }
        // Each relay set lists its sites twice: equal distances must go to
        // the lower index. The IAC candidates lie on the feasible circles,
        // at the in-range boundary. The 30 sites and the candidates (>= 32)
        // straddle the RS count at which the recorded implementation
        // switched from a linear scan to its grid.
        std::vector<geom::Vec2> many = cands;
        many.insert(many.end(), cands.begin(), cands.end());
        std::vector<geom::Vec2> few;
        for (std::size_t k = 0; k < 15; ++k) few.push_back(s.subscribers[k].pos);
        few.insert(few.end(), few.begin(), few.end());
        ASSERT_GE(many.size(), 32u);
        const std::uint64_t many_digest = nearest_digest(s, many);
        const std::uint64_t few_digest = nearest_digest(s, few);
        SCOPED_TRACE(::testing::Message()
                     << g.subscribers << " subscribers, side " << g.side << ", lattice "
                     << g.lattice << ", seed " << g.seed << std::hex << ": zones 0x"
                     << zones.h << ", iac 0x" << iac.h << ", many 0x" << many_digest
                     << ", few 0x" << few_digest);
        EXPECT_EQ(zones.h, g.zones);
        EXPECT_EQ(iac.h, g.iac);
        EXPECT_EQ(many_digest, g.many);
        EXPECT_EQ(few_digest, g.few);
    }
}

}  // namespace
}  // namespace sag::core
