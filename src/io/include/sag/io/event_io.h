#pragma once

// JSONL churn-event streams (docs/SERVING.md, "Event schema"). One
// event per line, schema-strict: every line must be a JSON object with
// exactly the fields of its kind — unknown kinds, missing or extra
// fields, out-of-range ids, and non-finite coordinates are rejected
// with an EventFormatError naming the 1-based line.

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sag/io/json.h"
#include "sag/serve/event.h"

namespace sag::io {

/// Thrown by events_from_jsonl; carries the 1-based line number of the
/// offending event so stream producers can find it.
class EventFormatError : public std::runtime_error {
public:
    EventFormatError(std::size_t line, const std::string& what)
        : std::runtime_error("line " + std::to_string(line) + ": " + what),
          line_(line) {}
    std::size_t line() const { return line_; }

private:
    std::size_t line_;
};

/// Parse a JSONL event stream. Empty lines are skipped; everything else
/// must be a schema-exact event object.
std::vector<serve::Event> events_from_jsonl(std::string_view text);

/// Per-event outcome record for churn reports (docs/SERVING.md,
/// "Report format"). Latencies are deliberately excluded: this is the
/// byte-comparable replay fingerprint of a serve run.
Json event_outcome_to_json(const serve::EventOutcome& outcome);

}  // namespace sag::io
