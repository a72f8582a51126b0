#pragma once

// exec::Deadline — the repo's single "out of wall-clock budget" concept.
//
// Every time-budgeted search in the tree (opt::solve_set_cover_bnb, the
// ILPQC wrappers, the serve::Session event stages, the MILP cross-check
// in tests/oracles) used to hand-roll the same three lines of steady_clock
// arithmetic; auditing "what happens when the budget expires" meant
// reading each copy. A Deadline is that concept once: armed from a
// seconds budget (<= 0 keeps the repo-wide "0 disables" convention and
// yields an unlimited deadline) and polled with expired(). The serve
// layer's injected stage timeouts do not go through a Deadline: they set
// bits of serve::StageGate::forced_mask, which never reads the clock and
// therefore replays byte-identically across runs and thread counts.
//
// Copying a Deadline copies the absolute expiry instant, so one deadline
// threaded through nested stages gives every stage the same cutoff (the
// degradation-ladder contract of docs/SERVING.md).

#include <chrono>

namespace sag::exec {

class Deadline {
public:
    using Clock = std::chrono::steady_clock;

    /// Unlimited: expired() is always false.
    Deadline() = default;

    /// Expires `seconds` from now; <= 0 (and NaN) means unlimited,
    /// mirroring the `time_budget_seconds = 0 disables` convention of
    /// the solver option structs.
    static Deadline after_seconds(double seconds) {
        Deadline d;
        if (seconds > 0.0) {
            d.armed_ = true;
            d.at_ = Clock::now() +
                    std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        }
        return d;
    }

    /// One clock read per call (none when unlimited).
    bool expired() const { return armed_ && Clock::now() > at_; }

private:
    Clock::time_point at_{};
    bool armed_ = false;
};

}  // namespace sag::exec
