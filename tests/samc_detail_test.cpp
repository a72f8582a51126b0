// Deeper tests of the paper-pseudocode internals: Coverage Link Escape
// (Algorithm 3), RS Sliding Movement / Update RS Topology (Algorithms
// 4-5) including the reassignment-repair extension and a golden digest
// of the plans its relocation probes produce, and MBMC's subtree-minimum
// feasible distances (Algorithm 7 Steps 6-7).
#include <bit>
#include <cmath>
#include <cstdint>
#include <queue>
#include <random>

#include <gtest/gtest.h>

#include "sag/core/feasibility.h"
#include "sag/core/samc.h"
#include "sag/ids/ids.h"
#include "sag/core/ucra.h"
#include "sag/core/zone_partition.h"
#include "sag/obs/obs.h"
#include "sag/sim/scenario_gen.h"
#include "sag/wireless/kernel_eval.h"

namespace sag::core {
namespace {

using ids::RsId;
using ids::SsId;
using ids::ZoneId;

using samc_detail::coverage_link_escape;
using samc_detail::sliding_movement;
using samc_detail::ZoneAssignment;

Scenario base(double side = 500.0) {
    Scenario s;
    s.field = geom::Rect::centered_square(side);
    s.base_stations = {{{0.0, 0.0}}};
    s.snr_threshold_db = units::Decibel{-15.0};
    s.radio.snr_ambient_noise = units::Watt{0.0};
    return s;
}

TEST(CoverageLinkEscapeDetail, EmptyInputs) {
    Scenario s = base();
    const auto za_no_subs = coverage_link_escape(s, {}, {});
    EXPECT_TRUE(za_no_subs.serving.empty());

    s.subscribers = {{{0.0, 0.0}, 35.0}};
    const SsId subs[] = {SsId{0}};
    const auto za_no_points = coverage_link_escape(s, subs, {});
    // No points: the subscriber keeps the "unassigned" sentinel, which
    // callers must treat as uncoverable.
    ASSERT_EQ(za_no_points.serving.size(), 1u);
    EXPECT_FALSE(za_no_points.serving[SsId{0}].valid());
}

TEST(CoverageLinkEscapeDetail, UncoverableSubscriberKeepsSentinel) {
    Scenario s = base();
    s.subscribers = {{{0.0, 0.0}, 35.0}, {{200.0, 0.0}, 30.0}};
    const SsId subs[] = {SsId{0}, SsId{1}};
    const geom::Vec2 points[] = {{5.0, 0.0}};  // covers only sub 0
    const auto za = coverage_link_escape(s, subs, points);
    EXPECT_EQ(za.serving[SsId{0}], RsId{0});
    EXPECT_FALSE(za.serving[SsId{1}].valid());  // uncoverable sentinel
}

TEST(CoverageLinkEscapeDetail, BoundaryPointCountsAsCovering) {
    Scenario s = base();
    s.subscribers = {{{0.0, 0.0}, 35.0}};
    const SsId subs[] = {SsId{0}};
    const geom::Vec2 points[] = {{35.0, 0.0}};  // exactly on the circle
    const auto za = coverage_link_escape(s, subs, points);
    EXPECT_EQ(za.serving[SsId{0}], RsId{0});
}

TEST(CoverageLinkEscapeDetail, DeterministicOnTies) {
    // Two points with identical coverage: the algorithm must pick the
    // same one every run (lowest index wins the max-degree scan).
    Scenario s = base();
    s.subscribers = {{{0.0, 0.0}, 35.0}, {{10.0, 0.0}, 35.0}};
    const SsId subs[] = {SsId{0}, SsId{1}};
    const geom::Vec2 points[] = {{5.0, 0.0}, {5.0, 1.0}};
    const auto a = coverage_link_escape(s, subs, points);
    const auto b = coverage_link_escape(s, subs, points);
    EXPECT_EQ(a.serving, b.serving);
    EXPECT_EQ(a.serving[SsId{0}], RsId{0});
}

TEST(SlidingMovementDetail, FixedOneOnOneRsDoesNotMoveAgain) {
    Scenario s = base();
    s.snr_threshold_db = units::Decibel{10.0};  // strict enough to trigger repair rounds
    s.subscribers = {{{-80.0, 0.0}, 35.0}, {{60.0, 0.0}, 35.0}, {{120.0, 0.0}, 35.0}};
    const SsId subs[] = {SsId{0}, SsId{1}, SsId{2}};
    ZoneAssignment za;
    za.points = {{-75.0, 0.0}, {90.0, 5.0}};
    za.serving = {RsId{0}, RsId{1}, RsId{1}};
    const auto slide = sliding_movement(s, subs, za, {});
    // The one-on-one RS must sit exactly on subscriber 0 regardless of
    // what the multi-cover repair did afterwards.
    EXPECT_EQ(slide.points[0], s.subscribers[0].pos);
}

TEST(SlidingMovementDetail, ServingPreservedWithoutReassignment) {
    Scenario s = base();
    s.subscribers = {{{-20.0, 0.0}, 35.0}, {{20.0, 0.0}, 35.0}};
    const SsId subs[] = {SsId{0}, SsId{1}};
    ZoneAssignment za;
    za.points = {{0.0, 0.0}};
    za.serving = {RsId{0}, RsId{0}};
    SamcOptions opts;
    opts.allow_reassignment = false;
    const auto slide = sliding_movement(s, subs, za, opts);
    EXPECT_EQ(slide.serving, za.serving);  // paper's algorithm never reassigns
}

TEST(SlidingMovementDetail, ReassignmentRescuesMisassignedSubscriber) {
    // Subscriber 1 is (badly) assigned to the far point although a near
    // point covers it; under a tight threshold the far service violates
    // SNR. The paper's algorithm cannot fix this (relocation regions are
    // empty because the far RS must keep covering its own subscriber);
    // the reassignment repair trivially can.
    Scenario s = base();
    s.snr_threshold_db = units::Decibel{14.0};
    s.subscribers = {{{0.0, 0.0}, 35.0}, {{40.0, 0.0}, 35.0}};
    const SsId subs[] = {SsId{0}, SsId{1}};
    ZoneAssignment za;
    za.points = {{5.0, 0.0}, {42.0, 0.0}};
    za.serving = {RsId{0}, RsId{0}};  // sub 1 served from ~35 away; point 1 at 2 away idle

    SamcOptions paper;
    paper.allow_reassignment = false;
    SamcOptions repaired;
    repaired.allow_reassignment = true;
    const auto without = sliding_movement(s, subs, za, paper);
    const auto with = sliding_movement(s, subs, za, repaired);
    EXPECT_TRUE(with.feasible);
    EXPECT_EQ(with.serving[SsId{1}], RsId{1});  // switched to the near point
    // And the paper variant must not silently claim success either way:
    // its serving stays as given.
    EXPECT_EQ(without.serving[SsId{1}], RsId{0});
}

TEST(SlidingMovementDetail, DeterministicAcrossRuns) {
    sim::GeneratorConfig cfg;
    cfg.field_side = 500.0;
    cfg.subscriber_count = 20;
    cfg.snr_threshold_db = units::Decibel{-12.0};
    const auto s = sim::generate_scenario(cfg, 31);
    const auto a = solve_samc(s);
    const auto b = solve_samc(s);
    ASSERT_EQ(a.plan.rs_count(), b.plan.rs_count());
    for (std::size_t i = 0; i < a.plan.rs_count(); ++i) {
        EXPECT_EQ(a.plan.rs_positions[i], b.plan.rs_positions[i]);
    }
    EXPECT_EQ(a.plan.assignment, b.plan.assignment);
}

// ---- Golden plans where Algorithm 5's probes run -------------------------

/// FNV-1a over 64-bit words: RS position bits, the assignment and the
/// feasible flag of a solve_samc plan.
std::uint64_t samc_digest(const CoveragePlan& plan) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto add = [&](std::uint64_t v) {
        for (int b = 0; b < 64; b += 8) {
            h ^= (v >> b) & 0xffU;
            h *= 0x100000001b3ULL;
        }
    };
    add(plan.rs_count());
    for (const geom::Vec2& p : plan.rs_positions) {
        add(std::bit_cast<std::uint64_t>(p.x));
        add(std::bit_cast<std::uint64_t>(p.y));
    }
    for (const RsId i : plan.assignment) add(i.index());
    add(plan.feasible ? 1 : 0);
    return h;
}

struct SamcGoldenRow {
    double side;
    std::size_t subscribers;
    double snr_db;
    std::uint64_t seed;
    std::uint64_t avx2;    ///< digest under the AVX2 kernels
    std::uint64_t scalar;  ///< digest under SAG_SIMD=scalar
};

// Generator families at SAMC's feasibility onset (-10 to -12 dB), where
// the violated set survives Coverage Link Escape: in each, Update RS
// Topology probes relocation combinations (4 to 259 per solve) and at
// least one round commits one. One family ends feasible, the rest give
// up infeasible. Two rows end differently under the two kernels: their
// gains differ in the last ulps, and at the onset that can flip an SNR
// test.
constexpr SamcGoldenRow kSamcGolden[] = {
    {300.0, 20, -12.0, 4, 0x6c4a0a348d6b0fdbULL, 0x6c4a0a348d6b0fdbULL},
    {300.0, 30, -10.0, 6, 0xff20e7609eec52e8ULL, 0x8c6b9c2ed9c8539aULL},
    {300.0, 40, -11.0, 5, 0x2c12cea19d9070e0ULL, 0x2c12cea19d9070e0ULL},
    {500.0, 30, -10.0, 4, 0x15ef931a62236d8bULL, 0x15ef931a62236d8bULL},
    {500.0, 40, -10.0, 6, 0x91ceacd4c1aeb18eULL, 0x98ea1752f1ec29baULL},
    {800.0, 30, -10.0, 3, 0x80c4aeff153e6f0aULL, 0x80c4aeff153e6f0aULL},
    {800.0, 40, -10.0, 3, 0x6b761f6ea0d48bb4ULL, 0x6b761f6ea0d48bb4ULL},
};

TEST(SamcGolden, ByteIdenticalOnSeededFamilies) {
    const bool avx2 = wireless::active_simd_mode() == wireless::SimdMode::Avx2;
    for (const SamcGoldenRow& g : kSamcGolden) {
        sim::GeneratorConfig cfg;
        cfg.field_side = g.side;
        cfg.subscriber_count = g.subscribers;
        cfg.snr_threshold_db = units::Decibel{g.snr_db};
        const Scenario s = sim::generate_scenario(cfg, g.seed);
        obs::ScopedRecorder recorder;
        const SamcResult result = solve_samc(s);
        const auto counters = recorder.snapshot().counters;
        const auto counter = [&](const char* name) {
            const auto it = counters.find(name);
            return it == counters.end() ? std::uint64_t{0} : it->second;
        };
        const std::uint64_t digest = samc_digest(result.plan);
        SCOPED_TRACE(::testing::Message()
                     << g.side << " m, " << g.subscribers << " SSs, " << g.snr_db
                     << " dB, seed " << g.seed << ": digest under "
                     << wireless::simd_mode_name(wireless::active_simd_mode()) << " 0x"
                     << std::hex << digest);
        EXPECT_GT(counter("samc.sliding.probes"), 0u);
        EXPECT_GT(counter("samc.sliding.rounds"), 0u);
        EXPECT_EQ(digest, avx2 ? g.avx2 : g.scalar);
    }
}

TEST(MbmcSubtreeDetail, ParentEdgeUsesChildsStricterDistance) {
    // Child coverage RS serves a subscriber with a 20 m request; parent's
    // own subscriber allows 40 m. The edge *above the parent* carries the
    // child's traffic, so its hops must respect 20 m.
    Scenario s = base(900.0);
    s.subscribers = {{{50.0, 0.0}, 40.0}, {{350.0, 0.0}, 20.0}};
    s.base_stations = {{{-250.0, 0.0}}};
    CoveragePlan cov;
    cov.rs_positions = {{50.0, 0.0}, {350.0, 0.0}};
    cov.assignment = {RsId{0}, RsId{1}};
    cov.feasible = true;
    const auto plan = solve_mbmc(s, cov);
    ASSERT_TRUE(plan.feasible);
    // Every hop on the parent's trunk (between node 1 and the BS) must be
    // <= 20 + eps because the subtree minimum is 20.
    std::size_t cur = 1;  // coverage RS 0's node (bs_count == 1)
    cur = plan.parent[1 + 0];
    geom::Vec2 prev = plan.positions[1 + 0];
    while (true) {
        const double hop = geom::distance(prev, plan.positions[cur]);
        EXPECT_LE(hop, 20.0 + 1e-6);
        if (plan.parent[cur] == cur) break;
        prev = plan.positions[cur];
        cur = plan.parent[cur];
    }
    EXPECT_TRUE(verify_connectivity(s, cov, plan).feasible);
}

TEST(MbmcSubtreeDetail, IndependentBranchesKeepOwnDistances) {
    // Two independent coverage RSs (no chaining: each sits closer to the
    // BS than to the other RS): each trunk only obeys its own
    // subscriber's request — the lax one gets longer hops.
    Scenario s = base(900.0);
    s.subscribers = {{{0.0, 300.0}, 40.0}, {{0.0, -300.0}, 20.0}};
    s.base_stations = {{{0.0, 0.0}}};
    CoveragePlan cov;
    cov.rs_positions = {{0.0, 300.0}, {0.0, -300.0}};
    cov.assignment = {RsId{0}, RsId{1}};
    cov.feasible = true;
    const auto plan = solve_mbmc(s, cov);
    const auto count_chain = [&](std::size_t cov_idx) {
        std::size_t cur = plan.parent[1 + cov_idx], n = 0;
        while (plan.kinds[cur] == NodeKind::ConnectivityRs) {
            ++n;
            cur = plan.parent[cur];
        }
        return n;
    };
    // Same edge length (~447), hop limits 40 vs 20 -> the strict branch
    // needs roughly twice the relays.
    EXPECT_GT(count_chain(1), count_chain(0));
}

/// Zone Partition by definition: the d_eff graph over all pairs, then
/// the components by BFS from each unvisited SS in ascending order, each
/// SS's neighbours taken in ascending order.
ids::IdVec<ZoneId, std::vector<SsId>> all_pairs_zones(const Scenario& s) {
    const double dmax = zone_partition_dmax(s);
    const std::size_t n = s.subscriber_count();
    std::vector<std::vector<bool>> joined(n, std::vector<bool>(n, false));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            const Subscriber& si = s.subscribers[i];
            const Subscriber& sj = s.subscribers[j];
            const double dist = geom::distance(si.pos, sj.pos);
            const double d_eff =
                std::min(dist - si.distance_request, dist - sj.distance_request);
            joined[i][j] = joined[j][i] = d_eff <= dmax;
        }
    }
    ids::IdVec<ZoneId, std::vector<SsId>> zones;
    std::vector<bool> seen(n, false);
    for (std::size_t first = 0; first < n; ++first) {
        if (seen[first]) continue;
        seen[first] = true;
        std::vector<SsId> members;
        std::queue<std::size_t> queue;
        queue.push(first);
        while (!queue.empty()) {
            const std::size_t v = queue.front();
            queue.pop();
            members.push_back(SsId{v});
            for (std::size_t w = 0; w < n; ++w) {
                if (joined[v][w] && !seen[w]) {
                    seen[w] = true;
                    queue.push(w);
                }
            }
        }
        zones.push_back(std::move(members));
    }
    return zones;
}

/// n SSs uniform on a square of side `side`, with requests uniform in
/// [30, 40] m; on a lattice, every SS snaps to a 10 m grid with a 30 m
/// request (equal distances, some SSs co-located); `stacked` puts every
/// third SS on an earlier one.
Scenario zone_family(std::size_t n, double side, bool lattice, bool stacked,
                     std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coord(-side / 2.0, side / 2.0);
    std::uniform_real_distribution<double> request(30.0, 40.0);
    Scenario s = base(side);
    for (std::size_t k = 0; k < n; ++k) {
        geom::Vec2 p{coord(rng), coord(rng)};
        if (lattice) p = {10.0 * std::round(p.x / 10.0), 10.0 * std::round(p.y / 10.0)};
        if (stacked && k % 3 == 2) p = s.subscribers[rng() % k].pos;
        s.subscribers.push_back({p, lattice ? 30.0 : request(rng)});
    }
    return s;
}

TEST(ZonePartitionDetail, SpatialIndexMatchesBruteForce) {
    // The near pairs of the neighbour sweep must produce the definitional
    // all-pairs construction's zones, in its zone order and member order.
    const double dmax = zone_partition_dmax(base());
    ASSERT_TRUE(std::isfinite(dmax));
    constexpr double kSides[] = {0.5, 2.0, 5.0, 12.0};  // in d_max
    std::size_t multi_member = 0;
    for (std::uint64_t seed = 0; seed < 120; ++seed) {
        const std::size_t n = seed < 4 ? seed % 2 : 2 + seed % 90;
        const bool lattice = seed % 3 == 1;
        const bool stacked = seed % 5 == 2;
        Scenario s = zone_family(n, kSides[seed % 4] * dmax, lattice, stacked, seed);
        const bool unbounded = seed % 10 == 9;
        if (unbounded) s.radio.ignorable_noise = units::Watt{0.0};  // d_max = inf
        SCOPED_TRACE(::testing::Message() << "seed " << seed << ", n " << n);
        const auto zones = zone_partition(s);
        EXPECT_EQ(zones, all_pairs_zones(s));
        if (unbounded) {
            EXPECT_EQ(zones.size(), n == 0 ? 0u : 1u);
        }
        for (const auto& zone : zones) multi_member += zone.size() > 2 ? 1 : 0;
    }
    // Member order can differ only in zones of three or more SSs.
    EXPECT_GT(multi_member, 100u);
}

}  // namespace
}  // namespace sag::core
