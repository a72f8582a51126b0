#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <random>

#include <gtest/gtest.h>

#include "sag/opt/hitting_set.h"

namespace sag::opt {
namespace {

using geom::Circle;
using geom::Vec2;

bool hits_all(std::span<const Circle> disks, std::span<const Vec2> points) {
    for (const Circle& d : disks) {
        bool hit = false;
        for (const Vec2& p : points) {
            if (d.contains(p, 1e-6)) hit = true;
        }
        if (!hit) return false;
    }
    return true;
}

TEST(CandidatesTest, IncludeCentersAndIntersections) {
    const Circle disks[] = {{{0, 0}, 5.0}, {{6, 0}, 5.0}};
    const auto cands = disk_hitting_candidates(disks);
    // 2 centers + 2 intersection points.
    EXPECT_EQ(cands.size(), 4u);
}

TEST(CandidatesTest, DeduplicatesCoincidentPoints) {
    // Two identical disks: centers coincide, no boundary intersections.
    const Circle disks[] = {{{1, 1}, 3.0}, {{1, 1}, 3.0}};
    const auto cands = disk_hitting_candidates(disks);
    EXPECT_EQ(cands.size(), 1u);
}

TEST(HittingSetTest, EmptyInputEmptyOutput) {
    EXPECT_TRUE(geometric_hitting_set({}).empty());
}

TEST(HittingSetTest, SingleDiskSinglePoint) {
    const Circle disks[] = {{{4, 2}, 3.0}};
    const auto pts = geometric_hitting_set(disks);
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_TRUE(disks[0].contains(pts[0], 1e-6));
}

TEST(HittingSetTest, TwoOverlappingDisksOnePoint) {
    const Circle disks[] = {{{0, 0}, 5.0}, {{6, 0}, 5.0}};
    const auto pts = geometric_hitting_set(disks);
    EXPECT_EQ(pts.size(), 1u);
    EXPECT_TRUE(hits_all(disks, pts));
}

TEST(HittingSetTest, TwoDisjointDisksTwoPoints) {
    const Circle disks[] = {{{0, 0}, 2.0}, {{100, 0}, 2.0}};
    const auto pts = geometric_hitting_set(disks);
    EXPECT_EQ(pts.size(), 2u);
    EXPECT_TRUE(hits_all(disks, pts));
}

TEST(HittingSetTest, CliqueOfDisksSharingCommonAreaOnePoint) {
    // Four disks all containing the origin.
    const Circle disks[] = {
        {{3, 0}, 4.0}, {{-3, 0}, 4.0}, {{0, 3}, 4.0}, {{0, -3}, 4.0}};
    const auto pts = geometric_hitting_set(disks);
    EXPECT_EQ(pts.size(), 1u);
    EXPECT_TRUE(hits_all(disks, pts));
}

TEST(HittingSetTest, ChainNeedsEverySecondPoint) {
    // Disks in a line, consecutive ones overlapping: optimal hits pairs.
    std::vector<Circle> disks;
    for (int i = 0; i < 6; ++i) {
        disks.push_back({{static_cast<double>(12 * i), 0.0}, 7.0});
    }
    const auto pts = geometric_hitting_set(disks);
    EXPECT_EQ(pts.size(), 3u);  // one per overlapping pair
    EXPECT_TRUE(hits_all(disks, pts));
}

TEST(HittingSetTest, LocalSearchImprovesOnGreedyTriangle) {
    // Three disks pairwise overlapping with a common core: 1 point enough.
    const Circle disks[] = {{{0, 0}, 3.0}, {{4, 0}, 3.0}, {{2, 3}, 3.0}};
    HittingSetOptions opts;
    opts.max_swap = 3;
    const auto pts = geometric_hitting_set(disks, opts);
    EXPECT_EQ(pts.size(), 1u);
}

TEST(HittingSetTest, SwapDisabledStillHitsAll) {
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> coord(-80.0, 80.0);
    std::vector<Circle> disks;
    for (int i = 0; i < 15; ++i) disks.push_back({{coord(rng), coord(rng)}, 20.0});
    HittingSetOptions opts;
    opts.max_swap = 1;  // prune-only local search
    const auto pts = geometric_hitting_set(disks, opts);
    EXPECT_TRUE(hits_all(disks, pts));
}

TEST(HittingSetTest, BatchMatchesPerInstance) {
    std::mt19937 rng(3);
    std::uniform_real_distribution<double> coord(-120.0, 120.0);
    std::uniform_real_distribution<double> radius(15.0, 45.0);
    std::uniform_int_distribution<std::size_t> count(3, 10);
    std::vector<std::vector<Circle>> zones;
    for (int z = 0; z < 8; ++z) {
        std::vector<Circle> disks;
        const std::size_t n = count(rng);
        for (std::size_t d = 0; d < n; ++d) {
            disks.push_back({{coord(rng), coord(rng)}, radius(rng)});
        }
        zones.push_back(std::move(disks));
    }
    const auto batch = geometric_hitting_sets(zones);
    ASSERT_EQ(batch.size(), zones.size());
    for (std::size_t z = 0; z < zones.size(); ++z) {
        const auto single = geometric_hitting_set(zones[z]);
        ASSERT_EQ(batch[z].size(), single.size()) << "zone " << z;
        for (std::size_t p = 0; p < single.size(); ++p) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[z][p].x),
                      std::bit_cast<std::uint64_t>(single[p].x));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[z][p].y),
                      std::bit_cast<std::uint64_t>(single[p].y));
        }
    }
}

/// Property sweep over seeds and swap depth: result always hits all disks,
/// never exceeds the disk count, and deeper swaps never do worse.
class HittingSetProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(HittingSetProperty, HitsAllAndBoundedSize) {
    const auto [seed, n_disks] = GetParam();
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> coord(-200.0, 200.0);
    std::uniform_real_distribution<double> radius(30.0, 40.0);
    std::vector<Circle> disks;
    for (int i = 0; i < n_disks; ++i) {
        disks.push_back({{coord(rng), coord(rng)}, radius(rng)});
    }
    HittingSetOptions shallow, deep;
    shallow.max_swap = 1;
    deep.max_swap = 3;
    const auto pts1 = geometric_hitting_set(disks, shallow);
    const auto pts3 = geometric_hitting_set(disks, deep);
    EXPECT_TRUE(hits_all(disks, pts1));
    EXPECT_TRUE(hits_all(disks, pts3));
    EXPECT_LE(pts1.size(), disks.size());
    EXPECT_LE(pts3.size(), pts1.size());  // deeper search is never worse
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndSizes, HittingSetProperty,
    ::testing::Combine(::testing::Values(1, 12, 123, 1234),
                       ::testing::Values(5, 12, 25, 60, 80)));

// ---- Golden byte-identity -------------------------------------------------
//
// Pins the exact candidates and the exact points (order included) of
// seeded disk families. The digests were recorded from the dense-scan
// solver (a candidates x disks membership scan, hit vectors rebuilt per
// probe), so the sparse solver must reproduce it bit for bit.

/// Uniform double in [0, 1) from the top 53 bits of one raw engine word.
/// mt19937_64's word sequence is fixed by the standard, so these families
/// are the same under every standard library (a
/// std::uniform_real_distribution is not).
double unit(std::mt19937_64& rng) {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

enum class Layout {
    kUniform,     ///< centers uniform in the square, radii in [30, 40)
    kLattice,     ///< centers on a 10 m lattice, radii in {5, 10, ..., 40}:
                  ///< tangencies, concentric and coincident disks
    kDuplicated,  ///< uniform disks, the first n/2 repeated verbatim
};

std::vector<Circle> golden_family(Layout layout, int n, double side, std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    const int distinct = layout == Layout::kDuplicated ? n - n / 2 : n;
    std::vector<Circle> disks;
    for (int i = 0; i < distinct; ++i) {
        const double x = (unit(rng) - 0.5) * side;
        const double y = (unit(rng) - 0.5) * side;
        if (layout == Layout::kLattice) {
            const double r = 5.0 * static_cast<double>(1 + rng() % 8);
            disks.push_back({{10.0 * std::round(x / 10.0), 10.0 * std::round(y / 10.0)}, r});
        } else {
            disks.push_back({{x, y}, 30.0 + 10.0 * unit(rng)});
        }
    }
    for (int i = distinct; i < n; ++i) disks.push_back(disks[static_cast<std::size_t>(i - distinct)]);
    return disks;
}

/// FNV-1a over the bit patterns of the coordinates, in order.
std::uint64_t digest(std::span<const Vec2> points) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Vec2& p : points) {
        for (const double v : {p.x, p.y}) {
            const auto bits = std::bit_cast<std::uint64_t>(v);
            for (int b = 0; b < 64; b += 8) {
                h ^= (bits >> b) & 0xffU;
                h *= 0x100000001b3ULL;
            }
        }
    }
    return h;
}

struct Golden {
    Layout layout;
    int disks;
    double side;
    std::uint64_t seed;
    int max_swap;
    int max_passes;
    std::uint64_t candidates;  ///< digest of disk_hitting_candidates
    std::uint64_t points;      ///< digest of geometric_hitting_set
};

// Rows marked (3,2) commit at least one (3,2) swap: max_swap = 3 returns
// fewer points there than max_swap = 2.
constexpr Golden kGolden[] = {
    {Layout::kUniform, 1, 100.0, 1, 2, 64, 0xf47199ca6a15a23dULL,
     0xf47199ca6a15a23dULL},
    {Layout::kUniform, 2, 100.0, 2, 2, 64, 0xf4ea8c6eb0cbe9f9ULL,
     0xb61142cadda9c74bULL},
    {Layout::kUniform, 5, 150.0, 3, 1, 64, 0x47bc035166e9d2b7ULL,
     0x73b4da36036c2f0aULL},
    {Layout::kUniform, 5, 150.0, 3, 2, 64, 0x47bc035166e9d2b7ULL,
     0x73b4da36036c2f0aULL},
    {Layout::kUniform, 5, 150.0, 3, 3, 64, 0x47bc035166e9d2b7ULL,
     0x73b4da36036c2f0aULL},
    {Layout::kUniform, 12, 200.0, 4, 1, 64, 0xd9228a8ae0025732ULL,
     0xe106153c5c034bfcULL},
    {Layout::kUniform, 12, 200.0, 4, 2, 64, 0xd9228a8ae0025732ULL,
     0xe106153c5c034bfcULL},
    {Layout::kUniform, 12, 200.0, 4, 3, 64, 0xd9228a8ae0025732ULL,
     0xe106153c5c034bfcULL},
    {Layout::kUniform, 25, 250.0, 8, 1, 64, 0xb72bdf31242d2259ULL,
     0xdb53cbd93720eed8ULL},
    {Layout::kUniform, 25, 250.0, 8, 2, 64, 0xb72bdf31242d2259ULL,
     0xdb53cbd93720eed8ULL},
    {Layout::kUniform, 25, 250.0, 8, 3, 64, 0xb72bdf31242d2259ULL,
     0x2aa3001cc91a9e9fULL},  // (3,2)
    {Layout::kUniform, 25, 250.0, 12, 3, 2, 0x2344f0a8207e03e9ULL,
     0x14b96a68923c3445ULL},  // (3,2)
    {Layout::kUniform, 40, 330.0, 14, 2, 64, 0xca02685c9c6d59d3ULL,
     0x9d738fc94c3a0257ULL},
    {Layout::kUniform, 40, 330.0, 14, 3, 64, 0xca02685c9c6d59d3ULL,
     0x4fe6eef65c081c3aULL},  // (3,2)
    {Layout::kUniform, 40, 330.0, 3, 3, 2, 0x343e196600f2c8ccULL,
     0x9580d50dade7f960ULL},  // (3,2)
    {Layout::kUniform, 60, 400.0, 1, 1, 64, 0xa06f4514bd241a9fULL,
     0xbcf4dd19bc5ff85aULL},
    {Layout::kUniform, 60, 400.0, 1, 2, 64, 0xa06f4514bd241a9fULL,
     0xbcf4dd19bc5ff85aULL},
    {Layout::kUniform, 60, 400.0, 1, 3, 64, 0xa06f4514bd241a9fULL,
     0x9a34a254eca8899fULL},  // (3,2)
    {Layout::kUniform, 60, 400.0, 12, 3, 64, 0x4af8643c72e2baeULL,
     0x1885f57680c1b691ULL},  // (3,2)
    {Layout::kUniform, 60, 400.0, 16, 3, 2, 0xee14591fe10c047dULL,
     0x9777071c0d38e45dULL},  // (3,2)
    {Layout::kUniform, 80, 400.0, 1, 2, 64, 0x3475e67aac3d7f6aULL,
     0xd4d80d9b64926127ULL},
    {Layout::kUniform, 80, 450.0, 2, 1, 64, 0x2db96037b1974c88ULL,
     0xe5bc32758299724aULL},
    {Layout::kUniform, 160, 500.0, 1, 2, 64, 0xebddd1ac405ca471ULL,
     0x38d7220ded154e84ULL},
    {Layout::kUniform, 160, 500.0, 2, 1, 64, 0x3aee1146f2638e15ULL,
     0x1d05bf6945c7474fULL},
    {Layout::kUniform, 160, 500.0, 3, 2, 2, 0x5d05104420812f9dULL,
     0xe49689b1b89b1225ULL},
    {Layout::kLattice, 12, 100.0, 21, 2, 64, 0x5be2b1fa4d60f119ULL,
     0xfc567bec614f1dbaULL},
    {Layout::kLattice, 25, 120.0, 22, 3, 64, 0xc8b3b1f2f9192a6cULL,
     0x398db0e64d82ea1eULL},
    {Layout::kLattice, 40, 150.0, 23, 2, 64, 0x3ef76c75dd91b265ULL,
     0x85636602fd088b89ULL},
    {Layout::kLattice, 80, 200.0, 24, 2, 64, 0xee1a534c66fd19e0ULL,
     0xc76c8d5c56b65606ULL},
    {Layout::kLattice, 160, 300.0, 25, 2, 2, 0xf5e27fcaf1b9acbcULL,
     0x31f693454356a318ULL},
    {Layout::kDuplicated, 2, 100.0, 31, 2, 64, 0x3c3563b0a2f42976ULL,
     0x3c3563b0a2f42976ULL},
    {Layout::kDuplicated, 12, 200.0, 32, 2, 64, 0x7f283b14c66dc61ULL,
     0xd6c07769a3550199ULL},
    {Layout::kDuplicated, 25, 250.0, 33, 3, 64, 0x71f72e05b7dbe29aULL,
     0xccc66d8dcb14eb5fULL},
    {Layout::kDuplicated, 60, 400.0, 34, 2, 64, 0x1ed07fdc6ebd7322ULL,
     0x5478ac0fd2823ae4ULL},
};

TEST(HittingSetGolden, ByteIdenticalOnSeededFamilies) {
    for (const Golden& g : kGolden) {
        const auto disks = golden_family(g.layout, g.disks, g.side, g.seed);
        HittingSetOptions opts;
        opts.max_swap = g.max_swap;
        opts.max_passes = g.max_passes;
        const std::uint64_t cands = digest(disk_hitting_candidates(disks));
        const std::uint64_t pts = digest(geometric_hitting_set(disks, opts));
        SCOPED_TRACE(::testing::Message()
                     << "layout " << static_cast<int>(g.layout) << ", " << g.disks
                     << " disks, seed " << g.seed << ", max_swap " << g.max_swap
                     << ", max_passes " << g.max_passes << std::hex << ": candidates 0x"
                     << cands << ", points 0x" << pts);
        EXPECT_EQ(cands, g.candidates);
        EXPECT_EQ(pts, g.points);
    }
}

}  // namespace
}  // namespace sag::opt
