#include "sag/core/snr_field.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "sag/core/snr.h"
#include "sag/obs/obs.h"
#include "sag/wireless/kernel_eval.h"

namespace sag::core {

SnrField::SnrField(Unbuilt, const Scenario& scenario,
                   std::span<const geom::Vec2> rs_positions,
                   std::span<const double> powers, std::span<const ids::SsId> subs)
    : scenario_(&scenario),
      kernel_(scenario.gain_kernel()),
      rs_pos_(rs_positions.begin(), rs_positions.end()),
      rs_power_(powers.begin(), powers.end()),
      sub_ids_(std::vector<ids::SsId>(subs.begin(), subs.end())) {
    assert(rs_pos_.size() == rs_power_.size());
    rs_x_.reserve(rs_pos_.size());
    rs_y_.reserve(rs_pos_.size());
    for (const geom::Vec2& p : rs_pos_) {
        rs_x_.push_back(p.x);
        rs_y_.push_back(p.y);
    }
    sub_x_.reserve(sub_ids_.size());
    sub_y_.reserve(sub_ids_.size());
    sub_reach_.reserve(sub_ids_.size());
    for (const ids::SsId j : sub_ids_) {
        sub_x_.push_back(scenario.subscriber(j).pos.x);
        sub_y_.push_back(scenario.subscriber(j).pos.y);
        sub_reach_.push_back(scenario.subscriber(j).distance_request);
    }
    total_.assign(sub_ids_.size(), 0.0);
    comp_.assign(sub_ids_.size(), 0.0);
    SAG_OBS_GAUGE("snr_field.simd_lanes", wireless::simd_lanes());
}

SnrField::SnrField(const Scenario& scenario, std::span<const geom::Vec2> rs_positions,
                   std::span<const double> powers, std::span<const ids::SsId> subs)
    : SnrField(Unbuilt{}, scenario, rs_positions, powers, subs) {
    refresh();
}

SnrField::SnrField(const Scenario& scenario, std::span<const geom::Vec2> rs_positions,
                   std::span<const double> powers)
    : SnrField(scenario, rs_positions, powers,
               ids::all_ids<ids::SsId>(scenario.subscriber_count())) {}

SnrField SnrField::at_max_power(const Scenario& scenario,
                                std::span<const geom::Vec2> rs_positions,
                                std::span<const ids::SsId> subs) {
    const std::vector<double> powers(rs_positions.size(),
                                     scenario.rs_max_power().watts());
    return SnrField(scenario, rs_positions, powers, subs);
}

std::pair<SnrField, SnrField> SnrField::paired(
    const Scenario& scenario, std::span<const geom::Vec2> rs_positions,
    std::span<const double> powers0, std::span<const double> powers1) {
    const auto subs = ids::all_ids<ids::SsId>(scenario.subscriber_count());
    std::pair<SnrField, SnrField> fields{
        SnrField(Unbuilt{}, scenario, rs_positions, powers0, subs),
        SnrField(Unbuilt{}, scenario, rs_positions, powers1, subs)};
    SnrField& a = fields.first;
    SnrField& b = fields.second;
    for (std::size_t k = 0; k < a.sub_x_.size(); ++k) {
        std::array<double, 2> totals{};
        std::array<double, 2> comps{};
        wireless::rx_total(a.kernel_, a.sub_pos(k), a.rs_xs(), a.rs_ys(),
                           units::WattSpan{a.rs_power_},
                           units::WattSpan{b.rs_power_}, totals, comps);
        a.total_[k] = totals[0];
        a.comp_[k] = comps[0];
        b.total_[k] = totals[1];
        b.comp_[k] = comps[1];
    }
    SAG_OBS_COUNT_ADD("snr_field.gain_evals", a.rs_count() * a.tracked_count());
    return fields;
}

void SnrField::apply_rs_contribution(const geom::Vec2& pos, units::Watt power,
                                     double sign) {
    // Neumaier accumulation of sign * power * gain at every tracked
    // subscriber, one batch sweep over the SoA columns. The sign rides on
    // the power (exact negation), so a retraction subtracts exactly the
    // doubles the insertion added — the cancellation invariant pop_rs and
    // every probe's inverse deltas depend on.
    wireless::accumulate_rx(kernel_, pos, power * sign, sub_xs(), sub_ys(),
                            total_, comp_);
    SAG_OBS_COUNT_ADD("snr_field.gain_evals", sub_x_.size());
}

void SnrField::move_rs(ids::RsId i, const geom::Vec2& to) {
    assert(i.index() < rs_pos_.size());
    if (rs_pos_[i.index()] == to) return;
    apply_rs_contribution(rs_pos_[i.index()], rs_power(i), -1.0);
    rs_pos_[i.index()] = to;
    rs_x_[i.index()] = to.x;
    rs_y_[i.index()] = to.y;
    apply_rs_contribution(rs_pos_[i.index()], rs_power(i), +1.0);
    after_mutation();
}

void SnrField::power_delta(const geom::Vec2& pos, units::Watt from,
                           units::Watt to, units::MetersSpan xs,
                           units::MetersSpan ys, std::span<double> totals,
                           std::span<double> comps) const {
    // Subtract the old term and add the new one per subscriber (rather
    // than adding a fused difference) so both are the exact doubles a
    // from-scratch evaluation would produce. Two batch sweeps: the gain
    // for a given subscriber is the same double in both, so the per-slot
    // operation sequence matches the historical fused loop exactly.
    wireless::accumulate_rx(kernel_, pos, from * -1.0, xs, ys, totals, comps);
    wireless::accumulate_rx(kernel_, pos, to, xs, ys, totals, comps);
}

void SnrField::set_power(ids::RsId i, units::Watt power) {
    assert(i.index() < rs_power_.size());
    if (rs_power_[i.index()] == power.watts()) return;
    power_delta(rs_pos_[i.index()], rs_power(i), power, sub_xs(), sub_ys(),
                total_, comp_);
    SAG_OBS_COUNT_ADD("snr_field.gain_evals", 2 * sub_x_.size());
    rs_power_[i.index()] = power.watts();
    after_mutation();
}

ids::RsId SnrField::add_rs(const geom::Vec2& pos, units::Watt power) {
    const ids::RsId i{rs_pos_.size()};
    rs_pos_.push_back(pos);
    rs_x_.push_back(pos.x);
    rs_y_.push_back(pos.y);
    rs_power_.push_back(power.watts());
    apply_rs_contribution(pos, power, +1.0);
    after_mutation();
    return i;
}

void SnrField::pop_rs() {
    assert(!rs_pos_.empty());
    apply_rs_contribution(rs_pos_.back(), units::Watt{rs_power_.back()}, -1.0);
    rs_pos_.pop_back();
    rs_x_.pop_back();
    rs_y_.pop_back();
    rs_power_.pop_back();
    after_mutation();
}

ids::SsId SnrField::add_subscriber(ids::SsId global) {
    assert(global.index() < scenario_->subscriber_count());
    const ids::SsId k = sub_ids_.push_back(global);
    sub_x_.push_back(scenario_->subscriber(global).pos.x);
    sub_y_.push_back(scenario_->subscriber(global).pos.y);
    sub_reach_.push_back(scenario_->subscriber(global).distance_request);
    total_.push_back(0.0);
    comp_.push_back(0.0);
    recompute_subscriber(k);
    after_mutation();
    return k;
}

void SnrField::pop_subscriber() {
    assert(!sub_ids_.empty());
    // SAG_RAW_OK: dropping the last tracked-local slot from the id column.
    sub_ids_.raw().pop_back();
    sub_x_.pop_back();
    sub_y_.pop_back();
    sub_reach_.pop_back();
    total_.pop_back();
    comp_.pop_back();
    after_mutation();
}

void SnrField::update_subscriber(ids::SsId k) {
    assert(k.index() < sub_ids_.size());
    const ids::SsId global = sub_ids_[k];
    sub_x_[k.index()] = scenario_->subscriber(global).pos.x;
    sub_y_[k.index()] = scenario_->subscriber(global).pos.y;
    sub_reach_[k.index()] = scenario_->subscriber(global).distance_request;
    recompute_subscriber(k);
    after_mutation();
}

double SnrField::snr_at(ids::SsId k, ids::RsId serving, units::Watt power,
                       double total_rx) const {
    const geom::Vec2 sub = sub_pos(k.index());
    const units::Watt signal{
        power.watts() *
        kernel_.gain(rs_pos_[serving.index()], sub,
                     geom::distance(rs_pos_[serving.index()], sub))};
    if (signal <= units::Watt{0.0}) return 0.0;  // a silent server delivers no SNR
    const units::Watt interference =
        units::Watt{total_rx} - signal + scenario_->radio.snr_ambient_noise;
    return interference > units::Watt{0.0}
               ? (signal / interference).ratio()
               : std::numeric_limits<double>::infinity();
}

double SnrField::snr_of(ids::SsId k, ids::RsId serving) const {
    assert(k.index() < sub_x_.size() && serving.index() < rs_pos_.size());
    return snr_at(k, serving, rs_power(serving), total_rx(k));
}

double SnrField::snr_with_power(ids::SsId k, ids::RsId serving,
                                units::Watt p) const {
    assert(k.index() < sub_x_.size() && serving.index() < rs_pos_.size());
    if (rs_power_[serving.index()] == p.watts()) return snr_of(k, serving);
    // set_power's two sweeps over a one-slot view of the columns. The
    // kernels are position-independent, so slot k sees the same doubles
    // here as inside the full sweep.
    const std::size_t at = k.index();
    double total = total_[at];
    double comp = comp_[at];
    power_delta(rs_pos_[serving.index()], rs_power(serving), p,
                units::MetersSpan{std::span<const double>(sub_x_).subspan(at, 1)},
                units::MetersSpan{std::span<const double>(sub_y_).subspan(at, 1)},
                {&total, 1}, {&comp, 1});
    return snr_at(k, serving, p, total + comp);
}

std::vector<ids::SsId> SnrField::violated(
    ids::IdSpan<ids::SsId, const ids::RsId> serving) const {
    assert(serving.size() == sub_x_.size());
    const double beta = scenario_->snr_threshold_linear();
    std::vector<ids::SsId> bad;
    for (const ids::SsId k : tracked_ids()) {
        const ids::RsId rs = serving[k];
        const double d =
            geom::distance(rs_pos_[rs.index()], sub_pos(k.index()));
        if (d > sub_reach_[k.index()] + 1e-6 ||
            snr_of(k, rs) < beta * (1.0 - 1e-12)) {
            bad.push_back(k);
        }
    }
    return bad;
}

bool SnrField::all_meet_threshold(
    ids::IdSpan<ids::SsId, const ids::RsId> serving) const {
    assert(serving.size() == sub_x_.size());
    const double beta = scenario_->snr_threshold_linear();
    for (const ids::SsId k : tracked_ids()) {
        if (snr_of(k, serving[k]) < beta) return false;
    }
    return true;
}

void SnrField::recompute_subscriber(ids::SsId kk) {
    const std::size_t k = kk.index();
    wireless::rx_total(kernel_, sub_pos(k), rs_xs(), rs_ys(),
                       units::WattSpan{rs_power_}, total_[k], comp_[k]);
    SAG_OBS_COUNT_ADD("snr_field.gain_evals", rs_pos_.size());
}

void SnrField::refresh() {
    for (std::size_t k = 0; k < sub_x_.size(); ++k) {
        wireless::rx_total(kernel_, sub_pos(k), rs_xs(), rs_ys(),
                           units::WattSpan{rs_power_}, total_[k], comp_[k]);
    }
    SAG_OBS_COUNT_ADD("snr_field.gain_evals", rs_pos_.size() * sub_x_.size());
}

double SnrField::verify_against_scratch() const {
    double worst = 0.0;
    for (std::size_t k = 0; k < sub_x_.size(); ++k) {
        double scratch = 0.0;
        for (std::size_t i = 0; i < rs_pos_.size(); ++i) {
            scratch += rs_power_[i] *
                       kernel_.gain(rs_pos_[i], sub_pos(k),
                                    geom::distance(rs_pos_[i], sub_pos(k)));
        }
        const double incr = total_[k] + comp_[k];
        const double scale =
            std::max({std::abs(scratch), std::abs(incr), 1e-300});
        worst = std::max(worst, std::abs(incr - scratch) / scale);
    }
    return worst;
}

void SnrField::after_mutation() {
    SAG_OBS_COUNT("snr_field.deltas.applied");
    ++mutations_;
    if (check_interval_ != 0 && mutations_ % check_interval_ == 0) {
        SAG_OBS_COUNT("snr_field.scratch_checks");
        assert(verify_against_scratch() <= 1e-9 &&
               "SnrField incremental state diverged from scratch recompute");
    }
}

SnrFeasibilityOracle::SnrFeasibilityOracle(const Scenario& scenario,
                                           std::span<const geom::Vec2> candidates)
    : scenario_(&scenario),
      candidates_(candidates.begin(), candidates.end()),
      field_(scenario, {}, {}) {}

bool SnrFeasibilityOracle::feasible(std::span<const ids::CandId> chosen) {
    SAG_OBS_COUNT("ilpqc.oracle.calls");
    // The branch-and-bound descends with stack discipline, so consecutive
    // queries share a long prefix: pop back to it, push the rest.
    std::size_t prefix = 0;
    while (prefix < current_.size() && prefix < chosen.size() &&
           current_[prefix] == chosen[prefix]) {
        ++prefix;
    }
    SAG_OBS_COUNT_ADD("ilpqc.oracle.rs_removed", current_.size() - prefix);
    SAG_OBS_COUNT_ADD("ilpqc.oracle.rs_added", chosen.size() - prefix);
    while (current_.size() > prefix) {
        field_.pop_rs();
        current_.pop_back();
    }
    for (std::size_t c = prefix; c < chosen.size(); ++c) {
        field_.add_rs(candidates_[chosen[c].index()], scenario_->rs_max_power());
        current_.push_back(chosen[c]);
    }

    const auto assignment = nearest_assignment(*scenario_, field_.rs_positions());
    if (!assignment) return false;
    return field_.all_meet_threshold(*assignment);
}

}  // namespace sag::core
