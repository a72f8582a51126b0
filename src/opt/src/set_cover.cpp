#include "sag/opt/set_cover.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sag/exec/deadline.h"
#include "sag/obs/obs.h"

namespace sag::opt {

std::vector<std::vector<std::size_t>> SetCoverInstance::covering_sets() const {
    std::vector<std::size_t> sizes(element_count, 0);
    for (const auto& s : sets) {
        for (const std::size_t e : s) ++sizes[e];
    }
    std::vector<std::vector<std::size_t>> cov(element_count);
    for (std::size_t e = 0; e < element_count; ++e) cov[e].reserve(sizes[e]);
    for (std::size_t s = 0; s < sets.size(); ++s) {
        for (const std::size_t e : sets[s]) cov[e].push_back(s);
    }
    return cov;
}

bool SetCoverInstance::coverable() const {
    std::vector<bool> hit(element_count, false);
    for (const auto& s : sets) {
        for (const std::size_t e : s) hit[e] = true;
    }
    return std::all_of(hit.begin(), hit.end(), [](bool b) { return b; });
}

std::optional<std::vector<std::size_t>> greedy_set_cover(const SetCoverInstance& inst) {
    // gain[s] = entries of set s still uncovered, kept current through the
    // inverse index, so a round scans the gains instead of every set.
    const auto covering = inst.covering_sets();
    std::vector<std::size_t> gain(inst.sets.size());
    for (std::size_t s = 0; s < inst.sets.size(); ++s) gain[s] = inst.sets[s].size();
    std::vector<bool> covered(inst.element_count, false);
    std::size_t uncovered = inst.element_count;
    std::vector<std::size_t> chosen;
    while (uncovered > 0) {
        // The first set of maximal gain.
        const auto best = std::max_element(gain.begin(), gain.end());
        if (best == gain.end() || *best == 0) return std::nullopt;  // uncoverable
        const auto best_set = static_cast<std::size_t>(best - gain.begin());
        chosen.push_back(best_set);
        for (const std::size_t e : inst.sets[best_set]) {
            if (covered[e]) continue;
            covered[e] = true;
            --uncovered;
            for (const std::size_t s : covering[e]) --gain[s];
        }
    }
    std::sort(chosen.begin(), chosen.end());
    return chosen;
}

std::size_t disjoint_elements_lower_bound(const SetCoverInstance& inst) {
    const auto covering = inst.covering_sets();
    std::vector<bool> set_used(inst.sets.size(), false);
    std::size_t bound = 0;
    // Greedily take elements with the fewest covering sets first; an element
    // whose covering sets are all untouched forces one more set.
    std::vector<std::size_t> order(inst.element_count);
    for (std::size_t e = 0; e < inst.element_count; ++e) order[e] = e;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return covering[a].size() < covering[b].size();
    });
    for (const std::size_t e : order) {
        if (covering[e].empty()) continue;
        bool fresh = std::none_of(covering[e].begin(), covering[e].end(),
                                  [&](std::size_t s) { return set_used[s]; });
        if (fresh) {
            ++bound;
            for (const std::size_t s : covering[e]) set_used[s] = true;
        }
    }
    return bound;
}

namespace {

/// DFS state shared across the iterative-deepening search.
struct Search {
    const SetCoverInstance& inst;
    const std::vector<std::vector<std::size_t>>& covering;
    const CoverOracle& oracle;
    const SetCoverBnBOptions& options;

    std::size_t target_size = 0;
    std::size_t nodes = 0;
    bool budget_exhausted = false;
    /// Shared wall-clock budget (exec::Deadline): unlimited when the
    /// options carry no time budget; polled every 1024 nodes.
    exec::Deadline deadline;

    std::vector<std::size_t> chosen;
    std::vector<bool> in_chosen;
    std::vector<int> cover_count;  // per element
    std::size_t uncovered = 0;

    std::vector<std::size_t> found;  // first feasible cover of target size

    bool spend_node() {
        if (++nodes > options.node_budget) {
            budget_exhausted = true;
            return false;
        }
        if (nodes % 1024 == 0 && deadline.expired()) {
            budget_exhausted = true;
            return false;
        }
        return true;
    }

    void take(std::size_t s) {
        chosen.push_back(s);
        in_chosen[s] = true;
        for (const std::size_t e : inst.sets[s]) {
            if (cover_count[e]++ == 0) --uncovered;
        }
    }
    void untake(std::size_t s) {
        chosen.pop_back();
        in_chosen[s] = false;
        for (const std::size_t e : inst.sets[s]) {
            if (--cover_count[e] == 0) ++uncovered;
        }
    }

    bool check_leaf() {
        std::vector<std::size_t> sorted = chosen;
        std::sort(sorted.begin(), sorted.end());
        if (!oracle || oracle(sorted)) {
            found = std::move(sorted);
            return true;
        }
        return false;
    }

    /// Pads a complete cover with extra sets (indices > `min_pad`) up to
    /// the target size, oracle-checking each completed padding.
    bool pad(std::size_t min_pad) {
        if (!spend_node()) return false;
        if (chosen.size() == target_size) return check_leaf();
        for (std::size_t s = min_pad; s < inst.sets.size(); ++s) {
            if (in_chosen[s]) continue;
            take(s);
            if (pad(s + 1)) return true;
            untake(s);
            if (budget_exhausted) return false;
        }
        return false;
    }

    bool dfs() {
        if (!spend_node()) return false;
        if (uncovered == 0) {
            if (chosen.size() == target_size) return check_leaf();
            return pad(0);
        }
        if (chosen.size() >= target_size) return false;

        // Branch on the uncovered element with the fewest usable candidates.
        std::size_t pivot = inst.element_count;
        std::size_t pivot_options = std::numeric_limits<std::size_t>::max();
        for (std::size_t e = 0; e < inst.element_count; ++e) {
            if (cover_count[e] > 0) continue;
            std::size_t n_opts = 0;
            for (const std::size_t s : covering[e]) {
                if (!in_chosen[s]) ++n_opts;
            }
            if (n_opts < pivot_options) {
                pivot_options = n_opts;
                pivot = e;
            }
        }
        if (pivot == inst.element_count || pivot_options == 0) return false;

        // Prefer candidates that cover more still-uncovered elements.
        std::vector<std::pair<std::size_t, std::size_t>> branches;  // (-gain, set)
        for (const std::size_t s : covering[pivot]) {
            if (in_chosen[s]) continue;
            std::size_t gain = 0;
            for (const std::size_t e : inst.sets[s]) {
                if (cover_count[e] == 0) ++gain;
            }
            branches.emplace_back(gain, s);
        }
        std::sort(branches.begin(), branches.end(),
                  [](const auto& a, const auto& b) { return a.first > b.first; });
        for (const auto& [gain, s] : branches) {
            (void)gain;
            take(s);
            if (dfs()) return true;
            untake(s);
            if (budget_exhausted) return false;
        }
        return false;
    }
};

}  // namespace

SetCoverBnBResult solve_set_cover_bnb(const SetCoverInstance& inst,
                                      const CoverOracle& oracle,
                                      const SetCoverBnBOptions& options) {
    SAG_OBS_SPAN("opt.set_cover.bnb");
    SetCoverBnBResult result;
    if (!inst.coverable()) return result;
    if (inst.element_count == 0) {
        result.feasible = true;
        result.proven_optimal = true;
        return result;
    }

    const auto covering = inst.covering_sets();
    const std::size_t lb = std::max<std::size_t>(1, disjoint_elements_lower_bound(inst));
    const std::size_t ub = std::min(options.max_size, inst.sets.size());

    // Anytime fallback: remember an oracle-feasible greedy cover if one
    // exists, in case the budget runs out before the exact search finishes.
    std::optional<std::vector<std::size_t>> fallback;
    if (auto greedy = greedy_set_cover(inst)) {
        if (!oracle || oracle(*greedy)) fallback = std::move(*greedy);
    }

    Search search{inst,
                  covering,
                  oracle,
                  options,
                  /*target_size=*/0,
                  /*nodes=*/0,
                  /*budget_exhausted=*/false,
                  exec::Deadline::after_seconds(options.time_budget_seconds),
                  /*chosen=*/{},
                  std::vector<bool>(inst.sets.size(), false),
                  std::vector<int>(inst.element_count, 0),
                  /*uncovered=*/inst.element_count,
                  /*found=*/{}};

    for (std::size_t k = lb; k <= ub; ++k) {
        if (fallback && fallback->size() <= k) {
            // The greedy cover is already as small as anything this level
            // could produce; it is optimal.
            result.chosen = *fallback;
            result.feasible = true;
            result.proven_optimal = true;
            result.nodes_explored = search.nodes;
            return result;
        }
        search.target_size = k;
        if (search.dfs()) {
            result.chosen = search.found;
            result.feasible = true;
            result.proven_optimal = true;
            result.nodes_explored = search.nodes;
            return result;
        }
        if (search.budget_exhausted) break;
    }

    result.nodes_explored = search.nodes;
    if (fallback) {
        result.chosen = *fallback;
        result.feasible = true;
        result.proven_optimal = false;
    }
    // When the budget was not exhausted and no cover of any size passed the
    // oracle, the instance is genuinely infeasible (proven).
    if (!search.budget_exhausted && !result.feasible) result.proven_optimal = true;
    return result;
}

}  // namespace sag::opt
