#include "sag/opt/hitting_set.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "sag/exec/thread_pool.h"
#include "sag/obs/obs.h"
#include "sag/opt/set_cover.h"

namespace sag::opt {

namespace {

/// Containment tolerance of the membership test: boundary intersection
/// points must count as hitting both generating disks.
constexpr double kHitEps = 1e-6;

constexpr std::size_t kNone = SIZE_MAX;

/// Disk indices sorted by center x: the one sweep structure behind both
/// the near-pair enumeration and the membership lists.
struct SweepIndex {
    std::vector<std::size_t> by_x;
    double max_radius = 0.0;
    /// Added to every x-window and distance bound. It dwarfs the relative
    /// rounding (2^-52) of the distances compared, so a window never drops
    /// a pair or a containment that the exact test behind it accepts.
    double slack = 0.0;
};

SweepIndex sweep_index(std::span<const geom::Circle> disks) {
    SweepIndex index;
    index.by_x.resize(disks.size());
    std::iota(index.by_x.begin(), index.by_x.end(), std::size_t{0});
    std::sort(index.by_x.begin(), index.by_x.end(), [&](std::size_t a, std::size_t b) {
        const double xa = disks[a].center.x;
        const double xb = disks[b].center.x;
        return xa != xb ? xa < xb : a < b;
    });
    for (const geom::Circle& d : disks) index.max_radius = std::max(index.max_radius, d.radius);
    index.slack = 1e-9 * (1.0 + index.max_radius);
    return index;
}

/// Disk pairs (i < j) whose closed disks may meet, in ascending (i, j)
/// order: a superset of the pairs circle_intersections() returns points
/// for, found by sweeping the x-sorted centers.
std::vector<std::pair<std::size_t, std::size_t>> near_pairs(
    std::span<const geom::Circle> disks, const SweepIndex& index) {
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    const std::vector<std::size_t>& by_x = index.by_x;
    for (std::size_t a = 0; a < by_x.size(); ++a) {
        const geom::Circle& da = disks[by_x[a]];
        const double window = da.radius + index.max_radius + geom::kEps + index.slack;
        for (std::size_t b = a + 1; b < by_x.size(); ++b) {
            const geom::Circle& db = disks[by_x[b]];
            if (db.center.x - da.center.x > window) break;
            const double reach = da.radius + db.radius + geom::kEps + index.slack;
            if (geom::distance_sq(da.center, db.center) > reach * reach) continue;
            pairs.emplace_back(std::min(by_x[a], by_x[b]), std::max(by_x[a], by_x[b]));
        }
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
}

std::vector<geom::Vec2> hitting_candidates(std::span<const geom::Circle> disks,
                                           const SweepIndex& index) {
    std::vector<geom::Vec2> candidates;
    candidates.reserve(disks.size() * 3);
    for (const geom::Circle& d : disks) candidates.push_back(d.center);
    for (const auto& [i, j] : near_pairs(disks, index)) {
        for (const geom::Vec2& p : geom::circle_intersections(disks[i], disks[j])) {
            candidates.push_back(p);
        }
    }
    // Deduplicate (intersections of near-identical circles repeat).
    std::sort(candidates.begin(), candidates.end(),
              [](const geom::Vec2& a, const geom::Vec2& b) {
                  return a.x != b.x ? a.x < b.x : a.y < b.y;
              });
    candidates.erase(std::unique(candidates.begin(), candidates.end(),
                                 [](const geom::Vec2& a, const geom::Vec2& b) {
                                     return geom::distance_sq(a, b) < 1e-12;
                                 }),
                     candidates.end());
    return candidates;
}

/// Disks hit by each candidate, in ascending disk order. The candidates
/// are x-sorted, so the disks whose centers lie within reach of a
/// candidate form a window of the sweep order that only moves right.
std::vector<std::vector<std::size_t>> hit_lists(std::span<const geom::Circle> disks,
                                                const SweepIndex& index,
                                                std::span<const geom::Vec2> candidates) {
    std::vector<std::vector<std::size_t>> sets(candidates.size());
    const std::vector<std::size_t>& by_x = index.by_x;
    const double reach = index.max_radius + kHitEps + index.slack;
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::vector<std::size_t> hit;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        const geom::Vec2& p = candidates[c];
        while (lo < by_x.size() && p.x - disks[by_x[lo]].center.x > reach) ++lo;
        while (hi < by_x.size() && disks[by_x[hi]].center.x - p.x <= reach) ++hi;
        hit.clear();
        for (std::size_t k = lo; k < hi; ++k) {
            if (disks[by_x[k]].contains(p, kHitEps)) hit.push_back(by_x[k]);
        }
        std::sort(hit.begin(), hit.end());
        sets[c].assign(hit.begin(), hit.end());
    }
    return sets;
}

/// Local-search state: the chosen candidates' per-disk hit counts over
/// the sparse candidate -> disk (`sets`) and disk -> candidate
/// (`covering`) lists. Every probe and move touches only the lists of
/// the candidates and disks involved, never the whole chosen set.
struct HitCounts {
    const std::vector<std::vector<std::size_t>>& sets;
    const std::vector<std::vector<std::size_t>>& covering;
    std::vector<std::size_t> hits;

    void add(std::size_t c) {
        for (const std::size_t d : sets[c]) ++hits[d];
    }
    /// Takes `c` out, appending the disks it leaves unhit to `unhit`.
    void remove(std::size_t c, std::vector<std::size_t>* unhit = nullptr) {
        for (const std::size_t d : sets[c]) {
            if (--hits[d] == 0 && unhit != nullptr) unhit->push_back(d);
        }
    }
    /// True when every disk `c` hits is also hit by another chosen point.
    bool redundant(std::size_t c) const {
        return std::all_of(sets[c].begin(), sets[c].end(),
                           [&](std::size_t d) { return hits[d] >= 2; });
    }
    /// The lowest candidate index >= `first` that hits every disk in
    /// `unhit`, which must be exactly the disks at count 0; kNone if none.
    /// Such a candidate is in every unhit disk's covering list, so the
    /// shortest list is the only one scanned. `unhit` is never empty:
    /// after a failed prune every chosen point hits a disk no other point
    /// hits, and (3,2) runs only after every (2,1) probe failed.
    std::size_t replacement(std::span<const std::size_t> unhit, std::size_t first) const {
        const std::size_t probe = *std::min_element(
            unhit.begin(), unhit.end(), [&](std::size_t a, std::size_t b) {
                return covering[a].size() < covering[b].size();
            });
        const std::vector<std::size_t>& list = covering[probe];
        for (auto it = std::lower_bound(list.begin(), list.end(), first); it != list.end();
             ++it) {
            const auto hit = static_cast<std::size_t>(
                std::count_if(sets[*it].begin(), sets[*it].end(),
                              [&](std::size_t d) { return hits[d] == 0; }));
            if (hit == unhit.size()) return *it;
        }
        return kNone;
    }
};

}  // namespace

std::vector<geom::Vec2> disk_hitting_candidates(std::span<const geom::Circle> disks) {
    return hitting_candidates(disks, sweep_index(disks));
}

std::vector<geom::Vec2> geometric_hitting_set(std::span<const geom::Circle> disks,
                                              const HittingSetOptions& options) {
    SAG_OBS_SPAN("opt.hitting_set");
    if (disks.empty()) return {};
    const SweepIndex index = sweep_index(disks);
    const std::vector<geom::Vec2> candidates = hitting_candidates(disks, index);
    SAG_OBS_COUNT_ADD("opt.hitting_set.candidates", candidates.size());
    const SetCoverInstance inst{disks.size(), hit_lists(disks, index, candidates)};
    std::size_t entries = 0;
    for (const auto& s : inst.sets) entries += s.size();
    SAG_OBS_COUNT_ADD("opt.hitting_set.membership_entries", entries);

    auto greedy = greedy_set_cover(inst);
    // Always succeeds: each disk's center is a candidate hitting it.
    std::vector<std::size_t> chosen = std::move(*greedy);
    const auto covering = inst.covering_sets();
    HitCounts counts{inst.sets, covering, std::vector<std::size_t>(disks.size(), 0)};
    for (const std::size_t c : chosen) counts.add(c);

    // Local search: (1,0) prune, (2,1) and optionally (3,2) swaps. The
    // chosen points always hit every disk, so the disks a removal leaves
    // at count 0 are exactly the ones a replacement must hit.
    std::vector<std::size_t> missing;
    std::vector<std::size_t> rest;
    std::vector<std::size_t> firsts;
    for (int pass = 0; pass < options.max_passes; ++pass) {
        bool improved = false;

        // (1,0): drop redundant points.
        for (std::size_t i = 0; i < chosen.size();) {
            if (counts.redundant(chosen[i])) {
                counts.remove(chosen[i]);
                chosen.erase(chosen.begin() + static_cast<std::ptrdiff_t>(i));
                improved = true;
                SAG_OBS_COUNT("opt.hitting_set.swaps");
            } else {
                ++i;
            }
        }

        // (2,1): replace two chosen points with one candidate.
        if (options.max_swap >= 2) {
            for (std::size_t i = 0; i < chosen.size() && !improved; ++i) {
                for (std::size_t j = i + 1; j < chosen.size() && !improved; ++j) {
                    missing.clear();
                    counts.remove(chosen[i], &missing);
                    counts.remove(chosen[j], &missing);
                    const std::size_t keep = counts.replacement(missing, 0);
                    if (keep == kNone) {
                        counts.add(chosen[i]);
                        counts.add(chosen[j]);
                        continue;
                    }
                    counts.add(keep);
                    chosen.erase(chosen.begin() + static_cast<std::ptrdiff_t>(j));
                    chosen.erase(chosen.begin() + static_cast<std::ptrdiff_t>(i));
                    chosen.push_back(keep);
                    improved = true;
                    SAG_OBS_COUNT("opt.hitting_set.swaps");
                }
            }
        }

        // (3,2): replace three chosen points with two candidates a < b.
        if (options.max_swap >= 3 && !improved &&
            chosen.size() * candidates.size() <= options.swap3_cost_limit) {
            for (std::size_t i = 0; i < chosen.size() && !improved; ++i) {
                for (std::size_t j = i + 1; j < chosen.size() && !improved; ++j) {
                    for (std::size_t k = j + 1; k < chosen.size() && !improved; ++k) {
                        missing.clear();
                        counts.remove(chosen[i], &missing);
                        counts.remove(chosen[j], &missing);
                        counts.remove(chosen[k], &missing);
                        // `a` must hit a missing disk: otherwise `b` alone
                        // hits them all, a (2,1) swap that just failed on
                        // this same chosen set.
                        firsts.clear();
                        for (const std::size_t d : missing) {
                            firsts.insert(firsts.end(), covering[d].begin(), covering[d].end());
                        }
                        std::sort(firsts.begin(), firsts.end());
                        firsts.erase(std::unique(firsts.begin(), firsts.end()), firsts.end());
                        for (const std::size_t a : firsts) {
                            counts.add(a);
                            rest.clear();
                            for (const std::size_t d : missing) {
                                if (counts.hits[d] == 0) rest.push_back(d);
                            }
                            const std::size_t b = counts.replacement(rest, a + 1);
                            if (b == kNone) {
                                counts.remove(a);
                                continue;
                            }
                            counts.add(b);
                            std::vector<std::size_t> next;
                            for (const std::size_t c : chosen) {
                                if (c != chosen[i] && c != chosen[j] && c != chosen[k])
                                    next.push_back(c);
                            }
                            next.push_back(a);
                            next.push_back(b);
                            chosen = std::move(next);
                            improved = true;
                            SAG_OBS_COUNT("opt.hitting_set.swaps");
                            break;
                        }
                        if (!improved) {
                            counts.add(chosen[i]);
                            counts.add(chosen[j]);
                            counts.add(chosen[k]);
                        }
                    }
                }
            }
        }

        if (!improved) break;
    }

    std::vector<geom::Vec2> points;
    points.reserve(chosen.size());
    for (const std::size_t c : chosen) points.push_back(candidates[c]);
    return points;
}

std::vector<std::vector<geom::Vec2>> geometric_hitting_sets(
    std::span<const std::vector<geom::Circle>> instances,
    const HittingSetOptions& options, std::size_t threads) {
    SAG_OBS_SPAN("opt.hitting_set.batch");
    std::vector<std::vector<geom::Vec2>> out(instances.size());
    if (threads == 1 || instances.size() <= 1) {
        for (std::size_t z = 0; z < instances.size(); ++z) {
            out[z] = geometric_hitting_set(instances[z], options);
        }
        return out;
    }
    SAG_OBS_COUNT_ADD("opt.hitting_set.parallel_zones", instances.size());
    exec::ThreadPool pool(exec::resolve_thread_count(threads));
    // Each zone writes only its own slot; worker-thread obs events merge
    // at snapshot via the recorder's per-thread buffers. All locking
    // lives behind exec::ThreadPool / obs::Recorder (annotated
    // exec::Mutex — the check_static §6 confinement lint keeps it so).
    exec::parallel_for_index(pool, instances.size(), [&](std::size_t z) {
        out[z] = geometric_hitting_set(instances[z], options);
    });
    return out;
}

}  // namespace sag::opt
