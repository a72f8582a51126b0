#pragma once

#include <string>
#include <vector>

#include "sag/serve/event.h"

namespace sag::oracles {

/// The writer side of the JSONL churn-event schema (docs/SERVING.md,
/// "Event schema") that io::events_from_jsonl reads: one compact line per
/// event, each terminated by '\n'. Deterministic: a fixed event value
/// always produces the same bytes (sorted keys, fixed number formatting),
/// so parse(serialize(events)) == events and a re-serialized stream is
/// byte-identical to its source.
std::string events_to_jsonl(const std::vector<serve::Event>& events);

}  // namespace sag::oracles
