#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sag/geometry/circle.h"
#include "sag/geometry/vec2.h"
#include "sag/ids/ids.h"
#include "sag/units/units.h"
#include "sag/wireless/propagation.h"
#include "sag/wireless/radio_params.h"
#include "sag/wireless/radio_profile.h"

namespace sag::core {

/// A subscriber station (paper symbol s_i): a fixed, high-demand user such
/// as a store or gas station. Its data-rate request b_i has already been
/// converted into the equivalent distance request d_i (paper §II-A): an RS
/// transmitting at P_max covers it iff the access link is at most d_i long.
struct Subscriber {
    geom::Vec2 pos;
    double distance_request = 0.0;  ///< d_i, the feasible coverage distance
    /// Radio class of this station's receiver, indexing
    /// Scenario::profiles. Invalid (the default) means the default
    /// profile: the paper's homogeneous hardware.
    ids::ProfileId profile;

    Subscriber() = default;
    Subscriber(geom::Vec2 pos_, double distance_request_,
               ids::ProfileId profile_ = ids::ProfileId::invalid())
        : pos(pos_), distance_request(distance_request_), profile(profile_) {}
};

/// A macro base station (paper symbol bs_i). BSs sink all relayed traffic.
struct BaseStation {
    geom::Vec2 pos;
};

/// A full SAG problem instance: the field, the stations, the radio
/// constants, and the common SNR threshold β (the paper assumes all SSs
/// share one threshold, §II-A).
struct Scenario {
    geom::Rect field;
    std::vector<Subscriber> subscribers;
    std::vector<BaseStation> base_stations;
    wireless::RadioParams radio;
    units::Decibel snr_threshold_db{-15.0};

    /// Large-scale propagation model of the scenario. Null (the default)
    /// means the paper's two-ray model; every physics query below routes
    /// through model(), so solvers, verifiers, and the SnrField always
    /// agree on the channel.
    std::shared_ptr<const wireless::PropagationModel> propagation;

    /// Radio classes deployed in this scenario (router/client/...).
    /// Indexed by ids::ProfileId; stations referencing no profile (invalid
    /// id) resolve to the all-inherit default profile.
    std::vector<wireless::RadioProfile> profiles;

    /// Radio class of every relay station placed by the solvers. Invalid
    /// (the default) means the default profile, i.e. RS transmit caps come
    /// straight from RadioParams::max_power as in the paper.
    ids::ProfileId relay_profile;

    std::size_t subscriber_count() const { return subscribers.size(); }
    std::size_t base_station_count() const { return base_stations.size(); }

    /// Typed accessors: entity identities cross API boundaries as strong
    /// IDs (sag::ids); the raw vectors above stay public as the bulk
    /// storage they index.
    const Subscriber& subscriber(ids::SsId j) const { return subscribers[j.index()]; }
    const BaseStation& base_station(ids::BsId b) const {
        return base_stations[b.index()];
    }
    ids::IdRange<ids::SsId> ss_ids() const {
        return ids::first_ids<ids::SsId>(subscribers.size());
    }

    /// β as a typed linear power ratio.
    units::SnrRatio snr_threshold() const;

    /// β as a bare linear ratio — convenience for the solvers' dense
    /// inner-loop arithmetic over double buffers.
    double snr_threshold_linear() const { return snr_threshold().ratio(); }

    /// Feasible coverage circle c_j of subscriber j: center s_j, radius d_j.
    geom::Circle feasible_circle(ids::SsId j) const;
    std::vector<geom::Circle> feasible_circles() const;

    /// Minimum received power P^j_ss that satisfies subscriber j's data
    /// rate: the power received at exactly distance d_j from a max-power
    /// transmitter (this is what makes distance & rate requests
    /// equivalent), raised by the subscriber's receiver noise figure and
    /// floored at the model's receive sensitivity when it defines one
    /// (the LoRa link budget).
    units::Watt min_rx_power(ids::SsId j) const;

    // --- Model-parametric physics (the single channel authority) ---

    /// The scenario's propagation model; two-ray when none was set.
    const wireless::PropagationModel& model() const {
        return propagation ? *propagation : wireless::two_ray_model();
    }

    /// The hot-loop gain kernel for this scenario's radio constants.
    /// Resolve once per loop nest; never re-derive the channel by hand.
    wireless::GainKernel gain_kernel() const { return model().kernel(radio); }

    /// Profile lookup with the invalid-id -> default-profile convention.
    const wireless::RadioProfile& profile(ids::ProfileId id) const;
    const wireless::RadioProfile& subscriber_profile(ids::SsId j) const {
        return profile(subscribers[j.index()].profile);
    }

    /// P_max of a relay station (relay_profile may cap it below
    /// RadioParams::max_power).
    units::Watt rs_max_power() const {
        return profile(relay_profile).resolve_max_power(radio);
    }

    /// Median received power at a bare distance (no link endpoints).
    units::Watt received_power(units::Watt tx_power, units::Meters dist) const {
        return tx_power * gain_kernel().median_gain(dist.meters());
    }

    /// Received power over a concrete link (includes the link's
    /// deterministic shadowing fade, when the model has one).
    units::Watt received_power(units::Watt tx_power, const geom::Vec2& from,
                               const geom::Vec2& to) const {
        return tx_power * gain_kernel().gain(from, to, geom::distance(from, to));
    }

    /// Median minimum transmit power for a target rx power at a distance.
    units::Watt tx_power_for(units::Watt target_rx_power, units::Meters dist) const {
        return target_rx_power / gain_kernel().median_gain(dist.meters());
    }

    /// Per-link minimum transmit power (exact inverse of the link
    /// received_power above).
    units::Watt tx_power_for(units::Watt target_rx_power, const geom::Vec2& from,
                             const geom::Vec2& to) const {
        return target_rx_power / gain_kernel().gain(from, to, geom::distance(from, to));
    }

    /// Largest distance at which tx_power still delivers target_rx_power.
    units::Meters range_for(units::Watt tx_power, units::Watt target_rx_power) const {
        return gain_kernel().range_for(tx_power, target_rx_power);
    }

    /// Smallest distance request over all subscribers (d_min of MBMC).
    double min_distance_request() const;

    /// Throws std::invalid_argument on non-physical instances (no
    /// subscribers is allowed; no base stations is not).
    void validate() const;
};

}  // namespace sag::core
