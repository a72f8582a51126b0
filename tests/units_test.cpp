#include <cmath>
#include <type_traits>

#include <gtest/gtest.h>

#include "sag/units/units.h"

namespace sag::units {
namespace {

using namespace sag::units::literals;

// --- Zero-overhead contract (ISSUE acceptance criterion) -----------------

template <class T>
constexpr bool zero_overhead() {
    return sizeof(T) == sizeof(double) && alignof(T) == alignof(double) &&
           std::is_trivially_copyable_v<T> && std::is_standard_layout_v<T>;
}

static_assert(zero_overhead<Watt>());
static_assert(zero_overhead<Milliwatt>());
static_assert(zero_overhead<Decibel>());
static_assert(zero_overhead<DecibelMilliwatt>());
static_assert(zero_overhead<Meters>());
static_assert(zero_overhead<SnrRatio>());

// Conversions must never be implicit in either direction.
static_assert(!std::is_convertible_v<double, Watt>);
static_assert(!std::is_convertible_v<Watt, double>);
static_assert(!std::is_convertible_v<Watt, Milliwatt>);
static_assert(!std::is_convertible_v<Decibel, DecibelMilliwatt>);
static_assert(!std::is_convertible_v<Decibel, SnrRatio>);
static_assert(!std::is_convertible_v<Meters, double>);

TEST(UnitsLayoutTest, SameSizeAsDouble) {
    EXPECT_EQ(sizeof(Watt), sizeof(double));
    EXPECT_EQ(sizeof(Decibel), sizeof(double));
    EXPECT_EQ(sizeof(Meters), sizeof(double));
    EXPECT_EQ(sizeof(SnrRatio), sizeof(double));
}

// --- dB <-> linear round trips (<= 1e-12 criterion) ----------------------

TEST(UnitsConversionTest, DbRoundTripWithinTolerance) {
    for (double db = -80.0; db <= 80.0; db += 0.37) {
        const double back = to_db(from_db(Decibel{db})).db();
        EXPECT_NEAR(back, db, 1e-12) << "at " << db << " dB";
    }
}

TEST(UnitsConversionTest, RatioRoundTripWithinRelativeTolerance) {
    for (double r = 1e-8; r <= 1e8; r *= 3.7) {
        const double back = from_db(to_db(SnrRatio{r})).ratio();
        EXPECT_NEAR(back, r, 1e-12 * r) << "at ratio " << r;
    }
}

TEST(UnitsConversionTest, DbmRoundTrip) {
    for (double dbm = -60.0; dbm <= 60.0; dbm += 1.3) {
        const DecibelMilliwatt p{dbm};
        EXPECT_NEAR((to_dbm(from_dbm(p)) - p).db(), 0.0, 1e-12) << "at " << dbm << " dBm";
    }
}

TEST(UnitsConversionTest, KnownAnchorPoints) {
    EXPECT_DOUBLE_EQ(from_db(Decibel{0.0}).ratio(), 1.0);
    EXPECT_DOUBLE_EQ(from_db(Decibel{10.0}).ratio(), 10.0);
    EXPECT_DOUBLE_EQ(from_db(Decibel{-10.0}).ratio(), 0.1);
    EXPECT_DOUBLE_EQ(to_db(SnrRatio{100.0}).db(), 20.0);
    EXPECT_EQ(to_dbm(Watt{1.0}), DecibelMilliwatt{30.0});  // 1 W == 30 dBm
    EXPECT_EQ(to_dbm(Watt{1e-3}), DecibelMilliwatt{0.0});  // 1 mW == 0 dBm
    EXPECT_DOUBLE_EQ(from_dbm(DecibelMilliwatt{30.0}).watts(), 1.0);
}

TEST(UnitsConversionTest, WattMilliwattScale) {
    EXPECT_EQ(Watt{2.5}.to_milliwatts(), Milliwatt{2500.0});
    EXPECT_DOUBLE_EQ(Milliwatt{2500.0}.to_watts().watts(), 2.5);
}

// --- Operator coverage ---------------------------------------------------

TEST(UnitsOperatorTest, WattLinearArithmetic) {
    Watt a{3.0}, b{1.5};
    EXPECT_EQ(a + b, Watt{4.5});
    EXPECT_EQ(a - b, Watt{1.5});
    EXPECT_EQ(-b, Watt{-1.5});
    EXPECT_EQ(a * 2.0, Watt{6.0});
    EXPECT_EQ(2.0 * a, Watt{6.0});
    EXPECT_EQ(a / 2.0, Watt{1.5});
    a += b;
    EXPECT_EQ(a, Watt{4.5});
    a -= b;
    EXPECT_EQ(a, Watt{3.0});
}

TEST(UnitsOperatorTest, WattRatioInteraction) {
    // Power ratio lands in SnrRatio, not bare double...
    const SnrRatio snr = Watt{10.0} / Watt{2.0};
    EXPECT_DOUBLE_EQ(snr.ratio(), 5.0);
    // ...and a ratio scales power back into the linear-power dimension:
    // exactly the beta * interference shape of Definition 2.
    EXPECT_EQ(snr * Watt{3.0}, Watt{15.0});
    EXPECT_EQ(Watt{3.0} * snr, Watt{15.0});
    EXPECT_EQ(Watt{15.0} / snr, Watt{3.0});
}

TEST(UnitsOperatorTest, SnrRatioArithmetic) {
    EXPECT_DOUBLE_EQ((SnrRatio{4.0} * SnrRatio{0.5}).ratio(), 2.0);
    EXPECT_DOUBLE_EQ((SnrRatio{4.0} / SnrRatio{0.5}).ratio(), 8.0);
    EXPECT_DOUBLE_EQ((SnrRatio{4.0} * 2.0).ratio(), 8.0);
    EXPECT_DOUBLE_EQ((2.0 * SnrRatio{4.0}).ratio(), 8.0);
    EXPECT_DOUBLE_EQ((SnrRatio{4.0} / 2.0).ratio(), 2.0);
}

TEST(UnitsOperatorTest, DecibelComposition) {
    // Gains compose additively in dB == multiplicatively in linear space.
    const Decibel sum = Decibel{3.0} + Decibel{7.0};
    EXPECT_DOUBLE_EQ(sum.db(), 10.0);
    EXPECT_NEAR(from_db(sum).ratio(),
                from_db(Decibel{3.0}).ratio() * from_db(Decibel{7.0}).ratio(),
                1e-12);
    EXPECT_EQ(Decibel{3.0} - Decibel{7.0}, Decibel{-4.0});
    EXPECT_EQ(-Decibel{3.0}, Decibel{-3.0});
    EXPECT_EQ(Decibel{3.0} * 2.0, Decibel{6.0});
    EXPECT_EQ(Decibel{6.0} / 2.0, Decibel{3.0});
}

TEST(UnitsOperatorTest, DbmIsAbsoluteDbIsRelative) {
    // Offsetting an absolute level by a gain stays absolute.
    EXPECT_EQ(DecibelMilliwatt{10.0} + Decibel{3.0}, DecibelMilliwatt{13.0});
    EXPECT_EQ(Decibel{3.0} + DecibelMilliwatt{10.0}, DecibelMilliwatt{13.0});
    EXPECT_EQ(DecibelMilliwatt{10.0} - Decibel{3.0}, DecibelMilliwatt{7.0});
    // Differencing two absolute levels yields the relative dB between them.
    EXPECT_EQ(DecibelMilliwatt{13.0} - DecibelMilliwatt{10.0}, Decibel{3.0});
}

TEST(UnitsOperatorTest, MetersArithmetic) {
    EXPECT_EQ(Meters{30.0} + Meters{10.0}, Meters{40.0});
    EXPECT_EQ(Meters{30.0} - Meters{10.0}, Meters{20.0});
    EXPECT_EQ(Meters{30.0} * 2.0, Meters{60.0});
    EXPECT_EQ(2.0 * Meters{30.0}, Meters{60.0});
    EXPECT_EQ(Meters{30.0} / 2.0, Meters{15.0});
    EXPECT_DOUBLE_EQ(Meters{30.0} / Meters{40.0}, 0.75);  // dimensionless
}

TEST(UnitsOperatorTest, ComparisonsWithinAType) {
    EXPECT_LT(Watt{1.0}, Watt{2.0});
    EXPECT_GE(Decibel{-15.0}, Decibel{-40.0});
    EXPECT_EQ(Meters{40.0}, Meters{40.0});
    EXPECT_GT(SnrRatio{1.0}, SnrRatio{0.5});
}

TEST(UnitsLiteralTest, LiteralsConstructTheRightTypes) {
    EXPECT_EQ(50.0_W, Watt{50.0});
    EXPECT_EQ(50_W, Watt{50.0});
    EXPECT_EQ(3.0_mW, Milliwatt{3.0});
    EXPECT_EQ(-15.0_dB, Decibel{-15.0});
    EXPECT_EQ(30.0_dBm, DecibelMilliwatt{30.0});
    EXPECT_EQ(40.0_m, Meters{40.0});
}

TEST(UnitsConstexprTest, ArithmeticIsConstexpr) {
    constexpr Watt total = Watt{1.0} + Watt{2.0} * 3.0;
    static_assert(total.watts() == 7.0);
    constexpr double frac = Meters{30.0} / Meters{40.0};
    static_assert(frac == 0.75);
}

}  // namespace
}  // namespace sag::units
