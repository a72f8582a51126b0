#include "sag/core/samc.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <utility>

#include "sag/core/snr.h"
#include "sag/core/snr_field.h"
#include "sag/core/zone_partition.h"
#include "sag/obs/obs.h"
#include "sag/geometry/region.h"

namespace sag::core {
namespace samc_detail {

ZoneAssignment coverage_link_escape(const Scenario& scenario,
                                    std::span<const ids::SsId> subs,
                                    std::span<const geom::Vec2> points) {
    SAG_OBS_SPAN("samc.link_escape");
    ZoneAssignment out;
    out.points.assign(points.begin(), points.end());
    out.serving.assign(subs.size(), ids::RsId::invalid());

    // Bipartite edges: point p -- zone subscriber k when p lies in k's
    // feasible circle.
    ids::IdVec<ids::RsId, std::vector<ids::SsId>> covers(points.size());
    for (const ids::RsId p : ids::first_ids<ids::RsId>(points.size())) {
        for (std::size_t k = 0; k < subs.size(); ++k) {
            const Subscriber& s = scenario.subscriber(subs[k]);
            if (geom::distance(points[p.index()], s.pos) <=
                s.distance_request + 1e-6) {
                covers[p].push_back(ids::SsId{k});
            }
        }
    }

    // Algorithm 3 Steps 3-5: repeatedly let the unmarked point with the
    // most surviving edges claim its subscribers, deleting the claimed
    // subscribers' other edges.
    std::vector<bool> point_marked(points.size(), false);
    while (true) {
        ids::RsId best_p = ids::RsId::invalid();
        std::size_t best_deg = 0;
        for (const ids::RsId p : covers.ids()) {
            if (point_marked[p.index()]) continue;
            std::size_t deg = 0;
            for (const ids::SsId k : covers[p]) {
                if (!out.serving[k].valid()) ++deg;
            }
            if (deg > best_deg) {
                best_deg = deg;
                best_p = p;
            }
        }
        if (!best_p.valid()) break;
        point_marked[best_p.index()] = true;
        for (const ids::SsId k : covers[best_p]) {
            if (!out.serving[k].valid()) out.serving[k] = best_p;
        }
    }
    return out;
}

namespace {

/// Zone-local evaluation state: a delta-updatable max-power interference
/// field over the zone's subscribers plus the explicit serving map.
/// Candidate relocations are probed as move_rs deltas that are moved back
/// after the read, so a probe costs two deltas per moved RS instead of a
/// full O(subs x RS) interference rebuild (and no per-probe powers/
/// positions allocations).
struct ZoneState {
    const Scenario& scenario;
    std::span<const ids::SsId> subs;
    SnrField field;
    ids::IdVec<ids::SsId, ids::RsId> serving;

    const geom::Vec2& point(ids::RsId p) const { return field.rs_position(p); }
    std::size_t point_count() const { return field.rs_count(); }

    /// Zone-local SsIds of subscribers violating distance or SNR under the
    /// field's current positions.
    std::vector<ids::SsId> violated() const { return field.violated(serving); }
};

/// One relocation proposal from Algorithm 5 Step 2.
struct Proposal {
    ids::RsId point;
    geom::Vec2 target;
};

/// Interference at zone subscriber `k` from every point except `skip`, all
/// at max power, plus the ambient noise of the SNR denominator. O(1) off
/// the field's cached total.
double interference_at(const ZoneState& st, ids::SsId k, ids::RsId skip) {
    const geom::Vec2& rx = st.scenario.subscriber(st.subs[k.index()]).pos;
    const double skipped =
        st.scenario.received_power(st.scenario.rs_max_power(), st.point(skip), rx)
            .watts();
    return st.field.total_rx(k) - skipped +
           st.scenario.radio.snr_ambient_noise.watts();
}

/// Algorithm 5 Step 2 for one RS: the region where it (a) still covers all
/// its satisfied subscribers, (b) brings each violated subscriber it
/// serves inside both coverage range and the SNR "virtual circle".
std::optional<geom::Vec2> relocation_target(const ZoneState& st, ids::RsId p,
                                            const std::vector<bool>& is_violated) {
    const double beta = st.scenario.snr_threshold_linear();
    std::vector<geom::Circle> region;
    for (const ids::SsId k : st.serving.ids()) {
        if (st.serving[k] != p) continue;
        const Subscriber& s = st.scenario.subscriber(st.subs[k.index()]);
        double radius = s.distance_request;
        if (is_violated[k.index()]) {
            const double interference = interference_at(st, k, p);
            if (interference > 0.0) {
                // SNR >= beta  <=>  gain(d) >= beta*I/Pmax: the model's
                // range inversion is the SNR "virtual circle" radius.
                const double r_snr =
                    st.scenario
                        .range_for(st.scenario.rs_max_power(),
                                   units::Watt{beta * interference})
                        .meters();
                radius = std::min(radius, r_snr);
            }
        }
        if (radius <= 0.0) return std::nullopt;
        region.push_back({s.pos, radius});
    }
    if (region.empty()) return std::nullopt;
    // Prefer the deepest interior point: numerical margin for the SNR
    // recheck and fewer knife-edge placements.
    const auto deep = geom::deepest_point_of_disks(region);
    if (deep.violation <= 1e-9) return deep.point;
    return geom::common_point_of_disks(region);
}

/// Visits subsets of {0..n-1} of size `t` (lexicographic), invoking `fn`
/// until it returns true or the cap is exhausted. Returns whether `fn`
/// succeeded. Positions within the proposal list, not entity IDs.
bool for_each_combination(std::size_t n, std::size_t t, std::size_t& budget,
                          const std::function<bool(std::span<const std::size_t>)>& fn) {
    std::vector<std::size_t> idx(t);
    for (std::size_t i = 0; i < t; ++i) idx[i] = i;
    while (true) {
        if (budget == 0) return false;
        --budget;
        if (fn(idx)) return true;
        // next combination
        std::size_t i = t;
        while (i > 0) {
            --i;
            if (idx[i] != i + n - t) {
                ++idx[i];
                for (std::size_t j = i + 1; j < t; ++j) idx[j] = idx[j - 1] + 1;
                break;
            }
            if (i == 0) return false;
        }
        if (t == 0) return false;
    }
}

}  // namespace

SlideResult sliding_movement(const Scenario& scenario,
                             std::span<const ids::SsId> subs,
                             const ZoneAssignment& assignment,
                             const SamcOptions& options) {
    SAG_OBS_SPAN("samc.sliding");
    SlideResult result;

    // Algorithm 4 Step 2: one-on-one RSs slide onto their subscriber and
    // become fixed members of H (applied before the field is built).
    std::vector<geom::Vec2> points = assignment.points;
    ids::IdVec<ids::RsId, std::size_t> served_count(points.size(), 0);
    for (const ids::RsId p : assignment.serving) {
        if (p.valid()) ++served_count[p];
    }
    std::vector<bool> fixed(points.size(), false);
    for (const ids::SsId k : assignment.serving.ids()) {
        const ids::RsId p = assignment.serving[k];
        if (served_count[p] == 1) {
            points[p.index()] = scenario.subscriber(subs[k.index()]).pos;
            fixed[p.index()] = true;
        }
    }

    ZoneState st{scenario, subs, SnrField::at_max_power(scenario, points, subs),
                 assignment.serving};

    // Optional repair: serve each violated subscriber from its nearest
    // in-range RS. Only the switched subscriber's SNR changes, so the
    // move never regresses other subscribers.
    const auto reassign_violated = [&](const std::vector<ids::SsId>& bad) {
        bool changed = false;
        for (const ids::SsId k : bad) {
            const Subscriber& sub = scenario.subscriber(subs[k.index()]);
            ids::RsId best = st.serving[k];
            double best_dist = geom::distance(st.point(best), sub.pos);
            for (const ids::RsId p : st.field.rs_ids()) {
                const double d = geom::distance(st.point(p), sub.pos);
                if (d <= sub.distance_request + 1e-6 && d < best_dist - 1e-9) {
                    best = p;
                    best_dist = d;
                }
            }
            if (best != st.serving[k]) {
                st.serving[k] = best;  // serving swaps leave the field intact
                changed = true;
                SAG_OBS_COUNT("samc.sliding.reassignments");
            }
        }
        return changed;
    };

    auto violated = st.violated();
    if (options.allow_reassignment && !violated.empty() &&
        reassign_violated(violated)) {
        violated = st.violated();
    }

    // Algorithms 4 Steps 3-5 + 5: relocate multi-cover RSs until clean or
    // stuck. Each committed round must strictly shrink the violated set,
    // so rounds <= |subscribers| anyway; the cap bounds the worst case.
    constexpr int kMaxImprovementRounds = 64;
    // Algorithm 5 Step 3 enumerates subsets of the updatable RSs: at most
    // this many relocation combinations per round.
    constexpr std::size_t kMaxUpdateCombinations = 4096;
    for (result.rounds = 0;
         !violated.empty() && result.rounds < kMaxImprovementRounds;
         ++result.rounds) {
        std::vector<bool> is_violated(subs.size(), false);
        for (const ids::SsId k : violated) is_violated[k.index()] = true;

        // R_u: unfixed RSs serving a violated subscriber.
        std::vector<ids::RsId> updatable_rs;
        for (const ids::SsId k : violated) {
            const ids::RsId p = st.serving[k];
            if (!fixed[p.index()] &&
                std::find(updatable_rs.begin(), updatable_rs.end(), p) ==
                    updatable_rs.end()) {
                updatable_rs.push_back(p);
            }
        }

        std::vector<Proposal> proposals;
        for (const ids::RsId p : updatable_rs) {
            if (const auto target = relocation_target(st, p, is_violated)) {
                proposals.push_back({p, *target});
            }
        }
        SAG_OBS_COUNT_ADD("samc.sliding.proposals", proposals.size());
        if (proposals.empty()) break;  // nothing updatable -> stuck

        // Algorithm 5 Step 3: try relocation combinations, largest first
        // (moving every updatable RS at once is the natural first try).
        // Each probe moves the combination's RSs, reads the violated set
        // off the incrementally updated field, and moves them back in
        // reverse order.
        std::size_t budget = kMaxUpdateCombinations;
        std::size_t best_violations = violated.size();
        std::optional<std::vector<geom::Vec2>> best_points;
        std::vector<std::pair<ids::RsId, geom::Vec2>> moved_from;
        bool solved = false;
        for (std::size_t t = proposals.size(); t >= 1 && !solved && budget > 0; --t) {
            solved = for_each_combination(
                proposals.size(), t, budget,
                [&](std::span<const std::size_t> combo) {
                    SAG_OBS_COUNT("samc.sliding.probes");
                    moved_from.clear();
                    for (const std::size_t c : combo) {
                        const ids::RsId p = proposals[c].point;
                        moved_from.emplace_back(p, st.field.rs_position(p));
                        st.field.move_rs(p, proposals[c].target);
                    }
                    const auto bad = st.violated();
                    if (bad.size() < best_violations) {
                        best_violations = bad.size();
                        const auto probed = st.field.rs_positions();
                        best_points.emplace(probed.begin(), probed.end());
                    }
                    for (auto it = moved_from.rbegin(); it != moved_from.rend(); ++it) {
                        st.field.move_rs(it->first, it->second);
                    }
                    return bad.empty();
                });
        }
        if (solved || best_points) {
            // Commit the winning combination (move_rs no-ops on unchanged
            // points, so this re-applies exactly the probed deltas).
            for (const ids::RsId p : st.field.rs_ids()) {
                st.field.move_rs(p, (*best_points)[p.index()]);
            }
            violated = st.violated();
            if (options.allow_reassignment && !violated.empty() &&
                reassign_violated(violated)) {
                violated = st.violated();
            }
            if (solved) break;
        } else if (options.allow_reassignment && reassign_violated(violated)) {
            violated = st.violated();  // repair without relocation
        } else {
            break;  // no combination shrinks the violated set -> infeasible
        }
    }

    SAG_OBS_COUNT_ADD("samc.sliding.rounds", result.rounds);
    result.feasible = st.violated().empty();
    const auto final_points = st.field.rs_positions();
    result.points.assign(final_points.begin(), final_points.end());
    result.serving = std::move(st.serving);
    return result;
}

}  // namespace samc_detail

SamcResult solve_samc(const Scenario& scenario, const SamcOptions& options) {
    SAG_OBS_SPAN("samc.solve");
    SamcResult result;
    {
        SAG_OBS_SPAN("samc.zone_partition");
        result.zones = zone_partition(scenario);
    }
    SAG_OBS_COUNT_ADD("samc.zones", result.zones.size());
    result.plan.assignment.assign(scenario.subscriber_count(), ids::RsId{0});
    result.plan.feasible = true;

    // Stage 1+2: build every zone's disk family, then solve all hitting
    // sets in one batch. The repair stages below then run zone by zone on
    // each zone's own points.
    std::vector<std::vector<geom::Circle>> zone_disks;
    zone_disks.reserve(result.zones.size());
    for (const auto& zone : result.zones) {
        std::vector<geom::Circle> disks;
        disks.reserve(zone.size());
        for (const ids::SsId j : zone) disks.push_back(scenario.feasible_circle(j));
        zone_disks.push_back(std::move(disks));
    }
    const auto zone_points = opt::geometric_hitting_sets(zone_disks, options.hitting_set);

    for (const ids::ZoneId z : result.zones.ids()) {
        SAG_OBS_SPAN("samc.zone");
        const auto& zone = result.zones[z];
        const auto& points = zone_points[z.index()];
        const auto assignment =
            samc_detail::coverage_link_escape(scenario, zone, points);
        const auto slide =
            samc_detail::sliding_movement(scenario, zone, assignment, options);
        if (!slide.feasible) {
            result.plan.feasible = false;  // Algorithm 1 Step 5: infeasible zone
        }

        const std::size_t offset = result.plan.rs_positions.size();
        result.plan.rs_positions.insert(result.plan.rs_positions.end(),
                                        slide.points.begin(), slide.points.end());
        // Zone-local serving slots lift into the global plan: the global
        // RsId is the zone's base offset plus the zone-local slot.
        for (std::size_t k = 0; k < zone.size(); ++k) {
            result.plan.assignment[zone[k]] =
                ids::RsId{offset + slide.serving[ids::SsId{k}].index()};
        }
    }
    return result;
}

}  // namespace sag::core
