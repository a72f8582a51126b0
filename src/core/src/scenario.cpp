#include "sag/core/scenario.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>


namespace sag::core {

units::SnrRatio Scenario::snr_threshold() const {
    return units::from_db(snr_threshold_db);
}

geom::Circle Scenario::feasible_circle(ids::SsId j) const {
    const Subscriber& s = subscribers.at(j.index());
    return {s.pos, s.distance_request};
}

std::vector<geom::Circle> Scenario::feasible_circles() const {
    std::vector<geom::Circle> circles;
    circles.reserve(subscribers.size());
    for (const ids::SsId j : ss_ids()) circles.push_back(feasible_circle(j));
    return circles;
}

const wireless::RadioProfile& Scenario::profile(ids::ProfileId id) const {
    static const wireless::RadioProfile kDefault;
    if (!id.valid() || id.index() >= profiles.size()) return kDefault;
    return profiles[id.index()];
}

units::Watt Scenario::min_rx_power(ids::SsId j) const {
    units::Watt p = received_power(
        radio.max_power, units::Meters{subscribers.at(j.index()).distance_request});
    const wireless::RadioProfile& prof = subscriber_profile(j);
    // A noisier receiver front end needs proportionally more power for the
    // same effective rate; 0 dB (the default) leaves the paper value
    // bit-for-bit untouched.
    if (prof.noise_figure.db() != 0.0) p = p * prof.noise_figure_factor();
    // Link-budget models additionally impose an absolute sensitivity floor.
    if (const auto floor = model().rx_sensitivity(radio, prof); floor && *floor > p)
        p = *floor;
    return p;
}

double Scenario::min_distance_request() const {
    double d = std::numeric_limits<double>::infinity();
    for (const Subscriber& s : subscribers) d = std::min(d, s.distance_request);
    return d;
}

void Scenario::validate() const {
    radio.validate();
    model().validate(radio);
    for (const wireless::RadioProfile& p : profiles) p.validate(radio);
    if (relay_profile.valid() && relay_profile.index() >= profiles.size())
        throw std::invalid_argument("relay_profile references no profile");
    if (base_stations.empty())
        throw std::invalid_argument("scenario needs at least one base station");
    if (field.width() <= 0.0 || field.height() <= 0.0)
        throw std::invalid_argument("field must have positive area");
    for (const Subscriber& s : subscribers) {
        if (!std::isfinite(s.distance_request) || s.distance_request <= 0.0)
            throw std::invalid_argument("distance request must be positive and finite");
        if (!field.contains(s.pos, 1e-6))
            throw std::invalid_argument("subscriber outside the field");
        if (s.profile.valid() && s.profile.index() >= profiles.size())
            throw std::invalid_argument("subscriber references no profile");
    }
    for (const BaseStation& b : base_stations) {
        if (!field.contains(b.pos, 1e-6))
            throw std::invalid_argument("base station outside the field");
    }
}

}  // namespace sag::core
