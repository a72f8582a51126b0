#include <limits>
#include <stdexcept>

#include <gtest/gtest.h>

#include "sag/units/units.h"
#include "sag/wireless/link.h"
#include "sag/wireless/propagation.h"
#include "sag/wireless/radio_params.h"

namespace sag::wireless {
namespace {

using units::Decibel;
using units::Meters;
using units::SnrRatio;
using units::Watt;

TEST(UnitsTest, KnownDbConversions) {
    EXPECT_DOUBLE_EQ(units::from_db(Decibel{0.0}).ratio(), 1.0);
    EXPECT_DOUBLE_EQ(units::from_db(Decibel{10.0}).ratio(), 10.0);
    EXPECT_DOUBLE_EQ(units::from_db(Decibel{-10.0}).ratio(), 0.1);
    EXPECT_NEAR(units::from_db(Decibel{-15.0}).ratio(), 0.0316227766, 1e-9);
    EXPECT_DOUBLE_EQ(units::to_db(SnrRatio{100.0}).db(), 20.0);
}

TEST(UnitsTest, RoundTrip) {
    for (double db = -40.0; db <= 40.0; db += 3.7) {
        EXPECT_NEAR(units::to_db(units::from_db(Decibel{db})).db(), db, 1e-9);
    }
}

TEST(RadioParamsTest, CombinedGainMatchesTwoRayFormula) {
    RadioParams p;
    p.tx_gain = 2.0;
    p.rx_gain = 3.0;
    p.tx_height = Meters{1.5};
    p.rx_height = Meters{2.0};
    EXPECT_DOUBLE_EQ(p.combined_gain(), 2.0 * 3.0 * 1.5 * 1.5 * 2.0 * 2.0);
}

TEST(RadioParamsTest, DefaultsValidate) {
    EXPECT_NO_THROW(RadioParams{}.validate());
}

TEST(RadioParamsTest, RejectsNonPhysicalValues) {
    RadioParams p;
    p.alpha = 0.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = {};
    p.max_power = Watt{0.0};
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = {};
    p.noise_floor = Watt{-1.0};
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = {};
    p.reference_distance = Meters{0.0};
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = {};
    p.rx_height = Meters{-2.0};
    EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(RadioParamsTest, RejectsAmbientNoiseBelowFloorOrAboveMax) {
    // A positive ambient-noise level below the receiver noise floor is a
    // units slip (e.g. milliwatts written where watts were meant).
    RadioParams p;
    p.snr_ambient_noise = Watt{p.noise_floor.watts() / 2.0};
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = {};
    p.snr_ambient_noise = p.max_power;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = {};
    p.snr_ambient_noise = Watt{0.0};  // "no ambient noise" stays legal
    EXPECT_NO_THROW(p.validate());
}

/// The two-ray channel the solvers run: the model's GainKernel.
GainKernel two_ray(const RadioParams& p) { return two_ray_model().kernel(p); }

Watt received_power(const RadioParams& p, Watt tx, Meters d) {
    return tx * two_ray(p).median_gain(d.meters());
}

TEST(TwoRayTest, ReceivedPowerMatchesEquation21) {
    RadioParams p;  // G = 5.0625, alpha = 3
    const Watt pr = received_power(p, Watt{50.0}, Meters{40.0});
    EXPECT_NEAR(pr.watts(), 50.0 * 5.0625 / (40.0 * 40.0 * 40.0), 1e-12);
}

TEST(TwoRayTest, PowerDecreasesWithDistance) {
    RadioParams p;
    double prev = std::numeric_limits<double>::infinity();
    for (double d = 2.0; d <= 200.0; d *= 1.7) {
        const Watt pr = received_power(p, Watt{10.0}, Meters{d});
        EXPECT_LT(pr.watts(), prev);
        prev = pr.watts();
    }
}

TEST(TwoRayTest, DistanceClampedAtReferenceDistance) {
    RadioParams p;
    // Below the reference distance the model saturates instead of diverging.
    EXPECT_EQ(received_power(p, Watt{10.0}, Meters{0.0}),
              received_power(p, Watt{10.0}, Meters{1.0}));
    EXPECT_EQ(received_power(p, Watt{10.0}, Meters{0.5}),
              received_power(p, Watt{10.0}, Meters{1.0}));
}

TEST(TwoRayTest, TxPowerForInvertsReceivedPower) {
    RadioParams p;
    for (double d : {5.0, 33.3, 140.0}) {
        const Watt target{1e-4};
        const Watt pt = target / two_ray(p).median_gain(d);
        EXPECT_NEAR(received_power(p, pt, Meters{d}).watts(), target.watts(), 1e-12);
    }
}

TEST(TwoRayTest, RangeForInvertsReceivedPower) {
    RadioParams p;
    const Watt pr{1e-4};
    const Meters d = two_ray(p).range_for(p.max_power, pr);
    EXPECT_NEAR(received_power(p, p.max_power, d).watts(), pr.watts(), 1e-12);
}

TEST(TwoRayTest, IgnorableNoiseDistanceDefinition) {
    RadioParams p;
    const Meters dmax = two_ray(p).range_for(p.max_power, p.ignorable_noise);
    // At dmax a max-power transmitter delivers exactly N_max.
    EXPECT_NEAR(received_power(p, p.max_power, dmax).watts(),
                p.ignorable_noise.watts(), 1e-12);
}

TEST(TwoRayTest, AlphaControlsDecayRate) {
    RadioParams fast, slow;
    fast.alpha = 4.0;
    slow.alpha = 2.0;
    // Same at the reference distance, steeper decay for larger alpha.
    EXPECT_GT(received_power(slow, Watt{10.0}, Meters{50.0}),
              received_power(fast, Watt{10.0}, Meters{50.0}));
}

TEST(LinkTest, ShannonCapacityAndInverse) {
    RadioParams p;
    const Watt rx{3.2e-5};
    const double c = shannon_capacity(p, rx);
    EXPECT_GT(c, 0.0);
    EXPECT_NEAR(min_rx_power_for_rate(p, c).watts(), rx.watts(), 1e-12);
}

TEST(LinkTest, CapacityMonotoneInPower) {
    RadioParams p;
    EXPECT_LT(shannon_capacity(p, Watt{1e-6}), shannon_capacity(p, Watt{1e-5}));
    EXPECT_DOUBLE_EQ(shannon_capacity(p, Watt{0.0}), 0.0);
}

}  // namespace
}  // namespace sag::wireless
