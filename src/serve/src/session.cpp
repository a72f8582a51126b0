#include "sag/serve/session.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "sag/core/feasibility.h"
#include "sag/obs/obs.h"

namespace sag::serve {

Session::Session(core::Scenario scenario, const core::SagResult& deployment,
                 const ServeOptions& options)
    : scenario_(std::move(scenario)),
      options_(options),
      state_(scenario_, {}, {}, {}) {
    init_from_deployment(deployment);
}

Session::Session(core::Scenario scenario, const ServeOptions& options)
    : Session(scenario, core::solve_sag(scenario, options.solve), options) {}

Session::~Session() {
    // A background re-solve captures `this`; drain it before teardown.
    if (pool_) pool_->wait_idle();
}

void Session::reset_pool(std::span<const geom::Vec2> positions) {
    const std::size_t n = positions.size();
    state_ = resilience::RepairState(
        scenario_, positions,
        std::vector<double>(n, scenario_.rs_max_power().watts()),
        std::vector<bool>(n, false));
    failures_ = {};
    alloc_.assign(n, 0.0);
}

void Session::init_from_deployment(const core::SagResult& deployment) {
    reset_pool(deployment.coverage.rs_positions);
    slot_key_.resize(scenario_.subscriber_count());
    p_ss_.resize(scenario_.subscriber_count());
    for (std::size_t k = 0; k < slot_key_.size(); ++k) {
        slot_key_[k] = k;
        p_ss_[k] = scenario_.min_rx_power(ids::SsId{k}).watts();
    }
    for (ids::SsId j : scenario_.ss_ids()) {
        const ids::RsId rs = deployment.coverage.assignment[j];
        if (rs != ids::RsId::invalid() && rs.index() < state_.pool_size()) {
            state_.server[j.index()] = rs.index();
        }
    }

    const std::size_t n =
        std::min(alloc_.size(), deployment.lower_power.powers.size());
    for (std::size_t i = 0; i < n; ++i) {
        alloc_[i] = deployment.lower_power.powers[i];
    }
    conn_ = deployment.connectivity;
    // A feasible deployment's backhaul was built over its full coverage
    // plan.
    conn_inputs_.reset();
    if (deployment.coverage.feasible) {
        std::vector<std::size_t> all_ss(slot_key_.size());
        std::iota(all_ss.begin(), all_ss.end(), std::size_t{0});
        std::vector<std::size_t> all_rs(state_.pool_size());
        std::iota(all_rs.begin(), all_rs.end(), std::size_t{0});
        conn_inputs_ = backhaul_inputs(deployment.coverage, all_ss, all_rs);
    }
    // Trust the pipeline's own verification verdict for the seed plan;
    // every subsequent event re-verifies independently.
    verified_ = deployment.feasible;

    baseline_rs_ = active_rs_count();
    baseline_power_ = total_power();
    resolve_backoff_ = std::max<std::size_t>(1, options_.resolve_backoff_start);
    next_resolve_allowed_ = 0;
    if (options_.threads >= 2) pool_ = std::make_unique<exec::ThreadPool>(1);
}

std::size_t Session::find_slot(std::uint64_t key) const {
    for (std::size_t k = 0; k < slot_key_.size(); ++k) {
        if (slot_key_[k] == key) return k;
    }
    return kUnserved;
}

std::string Session::validate(const Event& e) const {
    const auto finite_pos = [&] {
        return std::isfinite(e.pos.x) && std::isfinite(e.pos.y);
    };
    const auto valid_rate = [&] {
        return std::isfinite(e.distance_request) && e.distance_request > 0.0;
    };
    switch (e.kind) {
        case EventKind::SsJoin:
            if (!finite_pos()) return "non-finite position";
            if (!valid_rate()) return "non-positive distance request";
            if (find_slot(e.key) != kUnserved) return "duplicate subscriber key";
            return {};
        case EventKind::SsLeave:
            if (find_slot(e.key) == kUnserved) return "unknown subscriber key";
            return {};
        case EventKind::SsMove:
            if (find_slot(e.key) == kUnserved) return "unknown subscriber key";
            if (!finite_pos()) return "non-finite position";
            return {};
        case EventKind::SsRate:
            if (find_slot(e.key) == kUnserved) return "unknown subscriber key";
            if (!valid_rate()) return "non-positive distance request";
            return {};
        case EventKind::RsFail:
        case EventKind::RsDegrade:
        case EventKind::RsRecover: {
            if (e.rs == ids::RsId::invalid() ||
                e.rs.index() >= state_.pool_size()) {
                return "RS slot out of range";
            }
            const bool dead = state_.dead[e.rs.index()];
            if (e.kind == EventKind::RsFail && dead) return "RS already failed";
            if (e.kind == EventKind::RsRecover && !dead) return "RS is not failed";
            if (e.kind == EventKind::RsDegrade) {
                if (dead) return "cannot degrade a failed RS";
                if (!(std::isfinite(e.factor) && e.factor > 0.0 &&
                      e.factor <= 1.0)) {
                    return "degradation factor outside (0, 1]";
                }
            }
            return {};
        }
    }
    return "unknown event kind";
}

void Session::apply_mutation(const Event& e) {
    const double p_max = scenario_.rs_max_power().watts();
    switch (e.kind) {
        case EventKind::SsJoin: {
            scenario_.subscribers.emplace_back(e.pos, e.distance_request);
            state_.server.push_back(kUnserved);
            slot_key_.push_back(e.key);
            p_ss_.push_back(
                scenario_.min_rx_power(ids::SsId{scenario_.subscriber_count() - 1}).watts());
            state_.field.add_subscriber(ids::SsId{scenario_.subscriber_count() - 1});
            break;
        }
        case EventKind::SsLeave: {
            // Swap-remove keeps the slot <-> SsId <-> field-slot identity
            // dense: the last subscriber moves into the vacated slot.
            const std::size_t k = find_slot(e.key);
            const std::size_t last = slot_key_.size() - 1;
            if (k != last) {
                scenario_.subscribers[k] = scenario_.subscribers[last];
                state_.server[k] = state_.server[last];
                slot_key_[k] = slot_key_[last];
                p_ss_[k] = p_ss_[last];
            }
            scenario_.subscribers.pop_back();
            state_.server.pop_back();
            slot_key_.pop_back();
            p_ss_.pop_back();
            state_.field.remove_subscriber(ids::SsId{last});
            if (k != last) state_.field.update_subscriber(ids::SsId{k});
            break;
        }
        case EventKind::SsMove: {
            const std::size_t k = find_slot(e.key);
            scenario_.subscribers[k].pos = e.pos;
            state_.field.update_subscriber(ids::SsId{k});
            break;
        }
        case EventKind::SsRate: {
            const std::size_t k = find_slot(e.key);
            scenario_.subscribers[k].distance_request = e.distance_request;
            p_ss_[k] = scenario_.min_rx_power(ids::SsId{k}).watts();
            state_.field.update_subscriber(ids::SsId{k});
            break;
        }
        case EventKind::RsFail: {
            const std::size_t i = e.rs.index();
            state_.dead[i] = true;
            alloc_[i] = 0.0;
            state_.field.set_power(e.rs, units::Watt{0.0});
            failures_.coverage_down.push_back(ids::RsId{i});
            std::sort(failures_.coverage_down.begin(),
                      failures_.coverage_down.end());
            break;
        }
        case EventKind::RsDegrade: {
            const std::size_t i = e.rs.index();
            const double cap = std::min(state_.cap(i), e.factor * p_max);
            alloc_[i] = std::min(alloc_[i], cap);
            state_.field.set_power(e.rs, units::Watt{cap});
            bool found = false;
            for (resilience::Degradation& d : failures_.degraded) {
                if (d.rs == e.rs) {
                    d.factor = std::min(d.factor, e.factor);
                    found = true;
                }
            }
            if (!found) {
                failures_.degraded.push_back({e.rs, e.factor});
                std::sort(failures_.degraded.begin(), failures_.degraded.end(),
                          [](const resilience::Degradation& a,
                             const resilience::Degradation& b) {
                              return a.rs < b.rs;
                          });
            }
            break;
        }
        case EventKind::RsRecover: {
            // Recovery means replaced hardware: full cap, degradation
            // history cleared.
            state_.dead[e.rs.index()] = false;
            state_.field.set_power(e.rs, units::Watt{p_max});
            std::erase(failures_.coverage_down, e.rs);
            std::erase_if(failures_.degraded,
                          [&](const resilience::Degradation& d) {
                              return d.rs == e.rs;
                          });
            break;
        }
    }
}

void Session::rehome(const std::vector<std::size_t>& candidates,
                     EventOutcome& out) {
    if (candidates.empty()) return;
    SAG_OBS_SPAN("serve.rehome");
    out.rehomed += state_.rehome(candidates);
    SAG_OBS_COUNT_ADD("serve.rehomed_ss", out.rehomed);
}

void Session::patch(EventOutcome& out) {
    SAG_OBS_SPAN("serve.patch");
    out.patched += state_.patch(options_.max_new_relays_per_event);
    alloc_.resize(state_.pool_size(), 0.0);
    SAG_OBS_COUNT_ADD("serve.patched_relays", out.patched);
}

void Session::reallocate_power(EventOutcome& out) {
    SAG_OBS_SPAN("serve.power");
    constexpr int kMaxPowerRounds = 3;  // shed-retry rounds per event
    const resilience::Reescalation r = state_.reescalate(kMaxPowerRounds);
    std::fill(alloc_.begin(), alloc_.end(), 0.0);
    for (std::size_t i = 0; i < r.view.active.size(); ++i) {
        alloc_[r.view.active[i]] = r.power.powers[i];
    }
    // alloc_ now holds the audited powers of the state's view, and their
    // verdict is run_verify's coverage check.
    coverage_verdict_ = r.power.feasible;
    out.shed += r.shed.size();
    if (!r.shed.empty()) SAG_OBS_COUNT_ADD("serve.shed_ss", r.shed.size());
}

Session::BackhaulInputs Session::backhaul_inputs(const core::CoveragePlan& plan,
                                                 std::span<const std::size_t> covered,
                                                 std::span<const std::size_t> active) const {
    BackhaulInputs in;
    in.active.assign(active.begin(), active.end());
    in.request.assign(active.size(), std::numeric_limits<double>::infinity());
    in.p_ss.assign(active.size(), 0.0);
    for (std::size_t c = 0; c < covered.size(); ++c) {
        const std::size_t r = plan.assignment[ids::SsId{c}].index();
        if (r >= active.size()) continue;  // an SS the plan leaves unassigned
        const std::size_t k = covered[c];
        in.request[r] = std::min(in.request[r], scenario_.subscribers[k].distance_request);
        in.p_ss[r] = std::max(in.p_ss[r], p_ss_[k]);
    }
    return in;
}

void Session::rebuild_backhaul(const resilience::ActiveView& v,
                               const BackhaulInputs& inputs) {
    SAG_OBS_SPAN("serve.backhaul");
    conn_ = state_.backhaul(v);
    conn_inputs_ = inputs;
}

void Session::run_verify(const resilience::ActiveView& v, bool backhaul_current) {
    SAG_OBS_SPAN("serve.verify");
    const std::optional<bool> reescalated = std::exchange(coverage_verdict_, {});
    if (v.plan.rs_count() == 0) {
        verified_ = v.covered.empty();
        return;
    }
    bool cov_ok = false;
    if (reescalated) {
        cov_ok = *reescalated;
    } else {
        std::vector<double> powers(v.active.size());
        for (std::size_t r = 0; r < v.active.size(); ++r) {
            powers[r] = alloc_[v.active[r]];
        }
        cov_ok = core::verify_coverage(v.covered_scenario, v.plan, powers).feasible;
    }
    const bool topo_ok =
        backhaul_current &&
        core::verify_connectivity(v.covered_scenario, v.plan, conn_).feasible;
    verified_ = cov_ok && topo_ok;
}

void Session::adopt_or_fail_resolve(EventOutcome& out) {
    std::unique_ptr<core::SagResult> solved;
    if (pool_) {
        SAG_OBS_SPAN("serve.resolve_wait");
        pool_->wait_idle();
    }
    {
        exec::MutexLock lock(mutex_);
        solved = std::move(pending_);
    }
    resolve_pending_ = false;
    const bool ok = !resolve_injected_fail_ && solved && solved->feasible;
    resolve_injected_fail_ = false;
    if (!ok) {
        // Retry with doubling event-count backoff: the next trigger can
        // fire once the backoff window has passed.
        SAG_OBS_COUNT("serve.resolves.failed");
        constexpr std::size_t kResolveBackoffMax = 1024;
        next_resolve_allowed_ = event_index_ + resolve_backoff_;
        resolve_backoff_ = std::min(resolve_backoff_ * 2, kResolveBackoffMax);
        return;
    }
    adopt_plan(*solved, out);
    out.resolve_adopted = true;
    SAG_OBS_COUNT("serve.resolves.adopted");
    resolve_backoff_ = std::max<std::size_t>(1, options_.resolve_backoff_start);
}

void Session::adopt_plan(const core::SagResult& solved, EventOutcome& out) {
    SAG_OBS_SPAN("serve.adopt");
    // Atomic swap to the re-solved deployment. Outstanding failures
    // refer to decommissioned hardware and are cleared (a full re-solve
    // is a re-deployment of the lower tier).
    reset_pool(solved.coverage.rs_positions);

    // The solved assignment maps the trigger-time snapshot's SsIds; the
    // SS set may have churned since, so every current SS is re-homed
    // onto the new pool and the powers re-escalated from scratch.
    state_.newly_assigned.assign(state_.server.size(), true);
    std::vector<std::size_t> all(state_.server.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    rehome(all, out);
    reallocate_power(out);
    const resilience::ActiveView view = state_.view();
    rebuild_backhaul(view, backhaul_inputs(view.plan, view.covered, view.active));
    run_verify(view, true);
    baseline_rs_ = active_rs_count();
    baseline_power_ = total_power();
}

void Session::maybe_trigger_resolve(EventOutcome& out) {
    if (resolve_pending_ || event_index_ < next_resolve_allowed_) return;
    const std::size_t active = active_rs_count();
    const double power = total_power();
    const bool drift_rs = active > baseline_rs_ + options_.drift_excess_rs;
    const bool drift_power =
        baseline_power_ > 0.0 &&
        power > baseline_power_ * options_.drift_power_ratio;
    const bool flagged = unserved_count() > 0;
    if (!(drift_rs || drift_power || flagged)) return;

    SAG_OBS_COUNT("serve.resolves.triggered");
    out.resolve_triggered = true;
    resolve_pending_ = true;
    adopt_at_ = event_index_ + std::max<std::size_t>(1, options_.resolve_horizon);
    resolve_injected_fail_ = options_.faults.resolve_times_out(event_index_);
    if (resolve_injected_fail_) {
        SAG_OBS_COUNT("serve.resolves.injected_timeout");
        return;  // the "solver timed out" path: nothing to compute
    }
    if (pool_) {
        // The snapshot rides a shared_ptr because ThreadPool::submit
        // requires a copyable closure.
        auto snap = std::make_shared<core::Scenario>(scenario_);
        pool_->submit([this, snap] {
            auto result = std::make_unique<core::SagResult>(
                core::solve_sag(*snap, options_.solve));
            exec::MutexLock lock(mutex_);
            pending_ = std::move(result);
        });
    } else {
        // Inline mode: solve now, adopt at the same horizon — identical
        // outcome stream, just paid for on the event thread.
        auto result = std::make_unique<core::SagResult>(
            core::solve_sag(scenario_, options_.solve));
        exec::MutexLock lock(mutex_);
        pending_ = std::move(result);
    }
}

EventOutcome Session::apply(const Event& event) {
    SAG_OBS_SPAN("serve.event");
    SAG_OBS_COUNT("serve.events");
    EventOutcome out;
    out.event_index = event_index_;

    // A pending re-solve lands at its horizon before the event is
    // processed, whatever the event turns out to be.
    if (resolve_pending_ && event_index_ >= adopt_at_) {
        adopt_or_fail_resolve(out);
    }

    const std::string reason = validate(event);
    if (!reason.empty()) {
        out.level = RepairLevel::Rejected;
        out.reject_reason = reason;
        SAG_OBS_COUNT("serve.rejected");
        out.verified = verified_;
        out.unserved = unserved_count();
        out.degraded = out.unserved > 0 || !verified_;
        out.rs_count = active_rs_count();
        out.total_power = total_power();
        ++event_index_;
        return out;
    }

    apply_mutation(event);
    state_.newly_assigned.assign(state_.server.size(), false);

    StageGate gate{exec::Deadline::after_seconds(options_.event_budget_seconds),
                   options_.faults.stage_timeout_mask(out.event_index)};
    if (gate.forced_mask != 0) SAG_OBS_COUNT("serve.injected_timeouts");

    // Repair candidates: every flagged SS plus every served SS whose
    // server can no longer possibly serve it (dead, out of reach, or
    // below rate/SNR even at the caps).
    std::vector<std::size_t> candidates;
    for (std::size_t k = 0; k < state_.server.size(); ++k) {
        std::size_t& server = state_.server[k];
        if (server != kUnserved && !state_.can_serve(server, k)) {
            server = kUnserved;
        }
        if (server == kUnserved) candidates.push_back(k);
    }

    // The degradation ladder. Each rung is strictly cheaper than the
    // one above; the bottom rung (shed to flagged-unserved) is O(1) per
    // SS and can always run.
    out.level = RepairLevel::Full;
    if (gate.expired(RepairStage::Rehome)) {
        out.shed += candidates.size();
        out.level = RepairLevel::Degraded;
    } else {
        rehome(candidates, out);
        if (state_.unserved_count() > 0 &&
            options_.max_new_relays_per_event > 0) {
            if (gate.expired(RepairStage::Patch)) {
                out.level = RepairLevel::RehomeOnly;
            } else {
                patch(out);
            }
        }
        if (out.level == RepairLevel::Full) {
            if (gate.expired(RepairStage::Power)) {
                out.level = RepairLevel::RehomeOnly;
            } else {
                reallocate_power(out);
            }
        }
    }
    switch (out.level) {
        case RepairLevel::Full:
            SAG_OBS_COUNT("serve.level.full");
            break;
        case RepairLevel::RehomeOnly:
            SAG_OBS_COUNT("serve.level.rehome_only");
            break;
        case RepairLevel::Degraded:
            SAG_OBS_COUNT("serve.level.degraded");
            break;
        case RepairLevel::Rejected:
            break;
    }

    // Backhaul: rebuild unless the view's stage-4 inputs are those the
    // kept backhaul was built from; a gated-off rebuild leaves them
    // differing, so the plan is explicitly degraded (stale backhaul),
    // never silently wrong. The ladder is done with the state, so one
    // view serves the backhaul and the verifiers.
    const resilience::ActiveView view = state_.view();
    const BackhaulInputs inputs = backhaul_inputs(view.plan, view.covered, view.active);
    if (conn_inputs_ != inputs && !gate.expired(RepairStage::Backhaul)) {
        rebuild_backhaul(view, inputs);
    }

    run_verify(view, conn_inputs_ == inputs);
    out.verified = verified_;
    out.unserved = unserved_count();
    out.degraded = out.unserved > 0 || !verified_;
    out.rs_count = active_rs_count();
    out.total_power = total_power();
    SAG_OBS_GAUGE("serve.unserved", out.unserved);

    maybe_trigger_resolve(out);
    ++event_index_;
    return out;
}

std::size_t Session::active_rs_count() const {
    std::vector<bool> loaded(state_.pool_size(), false);
    for (const std::size_t s : state_.server) {
        if (s != kUnserved) loaded[s] = true;
    }
    std::size_t n = 0;
    for (std::size_t r = 0; r < state_.pool_size(); ++r) {
        n += (loaded[r] && !state_.dead[r]) ? 1 : 0;
    }
    return n;
}

double Session::total_power() const {
    // Dead and unloaded slots hold alloc 0, so the sum is P_L exactly.
    double lower = 0.0;
    for (const double w : alloc_) lower += w;
    return lower + conn_.upper_tier_power();
}

Session::Snapshot Session::snapshot() const {
    resilience::ActiveView v = state_.view();
    Snapshot snap;
    snap.covered_scenario = std::move(v.covered_scenario);
    snap.covered_keys.reserve(v.covered.size());
    for (const std::size_t k : v.covered) {
        snap.covered_keys.push_back(slot_key_[k]);
    }
    snap.plan = std::move(v.plan);
    snap.powers.resize(v.active.size());
    for (std::size_t r = 0; r < v.active.size(); ++r) {
        snap.powers[r] = alloc_[v.active[r]];
    }
    snap.connectivity = conn_;
    snap.verified = verified_;
    snap.degraded = unserved_count() > 0 || !verified_;
    return snap;
}

}  // namespace sag::serve
