// sag::ids behavioural tests: sentinel semantics, ordering, hashing,
// IdVec/IdSpan container contracts (including the debug bounds checks),
// and a randomized equivalence property showing the typed-ID solver
// surfaces are a pure re-labelling of the raw-index ones.
#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <unordered_set>

#include <gtest/gtest.h>

#include "sag/core/feasibility.h"
#include "sag/core/samc.h"
#include "sag/core/ucra.h"
#include "sag/ids/ids.h"
#include "sag/sim/scenario_gen.h"

namespace sag::core {
namespace {

using ids::BsId;
using ids::CandId;
using ids::IdSpan;
using ids::IdVec;
using ids::RsId;
using ids::SsId;
using ids::ZoneId;

TEST(EntityIdTest, DefaultConstructedIsInvalidSentinel) {
    EXPECT_FALSE(SsId{}.valid());
    EXPECT_EQ(SsId{}, SsId::invalid());
    EXPECT_FALSE(RsId::invalid().valid());
    EXPECT_TRUE(RsId{0}.valid());
    EXPECT_TRUE(RsId{123}.valid());
}

TEST(EntityIdTest, OrderingAndIncrementFollowTheUnderlyingIndex) {
    EXPECT_LT(SsId{1}, SsId{2});
    EXPECT_GE(SsId{5}, SsId{5});
    SsId i{7};
    EXPECT_EQ(++i, SsId{8});
    EXPECT_EQ(--i, SsId{7});
    EXPECT_EQ(i.index(), 7u);
}

TEST(EntityIdTest, HashMatchesValueAndWorksInUnorderedSet) {
    EXPECT_EQ(std::hash<RsId>{}(RsId{42}),
              std::hash<std::uint32_t>{}(std::uint32_t{42}));
    std::unordered_set<SsId> seen;
    seen.insert(SsId{1});
    seen.insert(SsId{2});
    seen.insert(SsId{1});  // duplicate
    EXPECT_EQ(seen.size(), 2u);
    EXPECT_TRUE(seen.contains(SsId{2}));
    EXPECT_FALSE(seen.contains(SsId{3}));
}

TEST(EntityIdTest, StreamInsertionPrintsIndexOrSentinel) {
    std::ostringstream os;
    os << ZoneId{4} << " " << ZoneId::invalid();
    EXPECT_EQ(os.str(), "4 invalid");
}

TEST(IdRangeTest, FirstIdsEnumeratesInOrder) {
    std::vector<CandId> got;
    for (const CandId c : ids::first_ids<CandId>(3)) got.push_back(c);
    EXPECT_EQ(got, (std::vector<CandId>{CandId{0}, CandId{1}, CandId{2}}));
    EXPECT_EQ(ids::all_ids<BsId>(2), (std::vector<BsId>{BsId{0}, BsId{1}}));
    EXPECT_TRUE(ids::all_ids<BsId>(0).empty());
}

TEST(IdVecTest, PushBackReturnsTheNewId) {
    IdVec<RsId, double> powers;
    EXPECT_EQ(powers.push_back(1.5), RsId{0});
    EXPECT_EQ(powers.push_back(2.5), RsId{1});
    EXPECT_EQ(powers[RsId{1}], 2.5);
    EXPECT_EQ(powers.size(), 2u);
}

TEST(IdVecTest, RawRoundTripPreservesOrder) {
    IdVec<SsId, int> v{10, 20, 30};
    EXPECT_EQ(v.raw(), (std::vector<int>{10, 20, 30}));
    const IdVec<SsId, int> adopted{std::vector<int>{10, 20, 30}};
    EXPECT_EQ(v, adopted);
}

TEST(IdSpanTest, ViewsTheVectorWithoutCopying) {
    IdVec<SsId, RsId> serving(3, RsId{0});
    IdSpan<SsId, RsId> view = serving;
    view[SsId{2}] = RsId{9};
    EXPECT_EQ(serving[SsId{2}], RsId{9});
    const IdSpan<SsId, const RsId> cview = serving;
    EXPECT_EQ(cview.size(), 3u);
    EXPECT_EQ(cview[SsId{2}], RsId{9});
}

// The debug bounds contract: out-of-range typed access (including the
// invalid() sentinel) asserts in !NDEBUG builds. Release builds compile
// the check away, so the death expectation only runs when asserts live.
TEST(IdVecDeathTest, OutOfRangeAccessAssertsInDebug) {
#ifdef NDEBUG
    GTEST_SKIP() << "asserts compiled out (NDEBUG)";
#else
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    IdVec<SsId, int> v(2, 0);
    EXPECT_DEATH((void)v[SsId{2}], "IdVec index out of range");
    EXPECT_DEATH((void)v[SsId::invalid()], "IdVec index out of range");
    IdSpan<SsId, int> view = v;
    EXPECT_DEATH((void)view[SsId{5}], "IdSpan index out of range");
#endif
}

/// Equivalence property: the typed SAMC -> MBMC pipeline is a pure
/// re-labelling of raw indices — every typed surface (assignment IdVec,
/// zone membership, per-RS groupings) must agree bit-for-bit with its
/// .raw()/.index() view, and a second run must reproduce the first
/// exactly (the refactor introduced no iteration-order or sentinel
/// drift).
TEST(IdEquivalenceTest, SamcMbmcTypedSurfacesMatchRawViews) {
    for (const unsigned seed : {3u, 19u, 57u}) {
        sim::GeneratorConfig cfg;
        cfg.field_side = 500.0;
        cfg.subscriber_count = 24;
        cfg.base_station_count = 2;
        const Scenario s = sim::generate_scenario(cfg, seed);

        const auto a = solve_samc(s);
        const auto b = solve_samc(s);
        ASSERT_TRUE(a.plan.feasible) << "seed " << seed;
        EXPECT_EQ(a.plan.assignment, b.plan.assignment) << "seed " << seed;
        EXPECT_EQ(a.plan.rs_positions, b.plan.rs_positions) << "seed " << seed;

        // Typed indexing == raw indexing, element for element.
        const std::vector<RsId>& raw_assign = a.plan.assignment.raw();
        ASSERT_EQ(raw_assign.size(), s.subscriber_count());
        for (const SsId j : s.ss_ids()) {
            EXPECT_EQ(a.plan.assignment[j], raw_assign[j.index()]);
            EXPECT_EQ(a.plan.rs_position(a.plan.assignment[j]),
                      a.plan.rs_positions[a.plan.assignment[j].index()]);
        }

        // Zones partition the subscriber set exactly once.
        std::set<SsId> seen;
        for (const ZoneId z : a.zones.ids()) {
            for (const SsId j : a.zones[z]) {
                EXPECT_TRUE(seen.insert(j).second) << "seed " << seed;
            }
        }
        EXPECT_EQ(seen.size(), s.subscriber_count());

        // served_lists() inverts the assignment map: every SS once, under
        // its own RS, in SsId order.
        const auto served = a.plan.served_lists();
        ASSERT_EQ(served.size(), a.plan.rs_count());
        std::size_t listed = 0;
        for (const RsId i : a.plan.rs_ids()) {
            EXPECT_TRUE(std::is_sorted(served[i].begin(), served[i].end()));
            for (const SsId j : served[i]) {
                EXPECT_EQ(a.plan.assignment[j], i);
                ++listed;
            }
        }
        EXPECT_EQ(listed, s.subscriber_count());

        // Downstream MBMC consumes the typed plan and stays deterministic
        // and verifiable end-to-end.
        const auto mbmc_a = solve_mbmc(s, a.plan);
        const auto mbmc_b = solve_mbmc(s, b.plan);
        ASSERT_TRUE(mbmc_a.feasible) << "seed " << seed;
        EXPECT_EQ(mbmc_a.positions, mbmc_b.positions);
        EXPECT_EQ(mbmc_a.parent, mbmc_b.parent);
        EXPECT_TRUE(verify_connectivity(s, a.plan, mbmc_a).feasible);
    }
}

}  // namespace
}  // namespace sag::core
