#pragma once

// Deterministic fault injection for the serve layer. The degradation
// ladder only counts as robustness if its lower rungs are *exercised*,
// so the soak harness corrupts its own inputs: a FaultPlan decides,
// purely from (seed, event index), which events carry an injected stage
// timeout (the gate reports expired without any clock read — see
// StageGate::forced_mask in serve/session.h) and which background
// re-solves "time out" and must retry with backoff. Because every
// decision is a hash of the seed and the index — never a clock or a
// shared RNG stream — a faulted run replays byte-identically across
// runs and thread counts.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sag/serve/event.h"

namespace sag::serve {

struct FaultOptions {
    /// Per-event, per-stage probability of an injected stage timeout.
    double stage_timeout_probability = 0.0;
    /// Probability that a triggered background re-solve times out
    /// (forcing the retry-with-backoff path).
    double resolve_timeout_probability = 0.0;
    /// Per-event probability of stream corruption in corrupt().
    double corrupt_probability = 0.0;
    std::uint64_t seed = 1;
};

/// A pure function of (options, event index): no state, no clock.
class FaultPlan {
public:
    /// No faults (the default for production sessions).
    FaultPlan() = default;
    explicit FaultPlan(const FaultOptions& options) : options_(options) {}

    /// Bitmask over RepairStage: bit s set means stage s's gate reports
    /// expired for this event (deterministically, without a clock read).
    unsigned stage_timeout_mask(std::size_t event_index) const;

    /// True when the re-solve triggered at this event index is injected
    /// to fail (as if the solver ran out of budget).
    bool resolve_times_out(std::size_t trigger_event) const;

    /// True when corrupt() will mangle the event at this stream index.
    /// Exposed so stream generators can keep their population model
    /// honest: a corrupted event is rejected by the Session, so e.g. a
    /// mangled ss_leave must not be counted as a departure — otherwise
    /// the leaked subscribers grow the population (and the per-event
    /// cost) without bound over a long soak.
    bool corrupts(std::size_t event_index) const;

    /// Seeded stream corruption: ~corrupt_probability of the events are
    /// mangled into invalid ones (unknown keys, out-of-range RS slots,
    /// non-finite coordinates, zero rates) that the Session must reject
    /// with a typed outcome. Deterministic per (options.seed, index).
    std::vector<Event> corrupt(std::vector<Event> events) const;

private:
    FaultOptions options_;
};

}  // namespace sag::serve
