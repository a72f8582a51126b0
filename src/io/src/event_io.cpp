#include "sag/io/event_io.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

namespace sag::io {

namespace {

using serve::Event;
using serve::EventKind;

/// Fields each kind requires, beyond "kind" itself. Schema-strict: the
/// line must carry exactly these, no more.
std::vector<std::string> kind_fields(EventKind kind) {
    switch (kind) {
        case EventKind::SsJoin: return {"d", "key", "x", "y"};
        case EventKind::SsLeave: return {"key"};
        case EventKind::SsMove: return {"key", "x", "y"};
        case EventKind::SsRate: return {"d", "key"};
        case EventKind::RsFail: return {"rs"};
        case EventKind::RsDegrade: return {"factor", "rs"};
        case EventKind::RsRecover: return {"rs"};
    }
    return {};
}

double require_number(const Json& obj, const std::string& field,
                      std::size_t line) {
    const Json& v = obj.at(field);
    if (!v.is_number()) {
        throw EventFormatError(line, "field '" + field + "' must be a number");
    }
    return v.as_number();
}

/// Ids must be exact non-negative integers no larger than `max`;
/// anything else is out of range. Subscriber keys run up to 2^53,
/// double's exact-integer range.
std::uint64_t require_id(const Json& obj, const std::string& field,
                         std::size_t line, double max = 9007199254740992.0) {
    const double d = require_number(obj, field, line);
    if (!(std::isfinite(d) && d >= 0.0 && d == std::floor(d) && d <= max)) {
        throw EventFormatError(line, "out-of-range id in '" + field + "'");
    }
    return static_cast<std::uint64_t>(d);
}

/// An RS slot: below RsId::invalid(), the 32-bit sentinel, so the id
/// never truncates or aliases "no RS".
ids::RsId require_rs(const Json& obj, std::size_t line) {
    // SAG_RAW_OK: the sentinel's raw value bounds the parsed number.
    const double max = ids::RsId::invalid().value() - 1.0;
    return ids::RsId{require_id(obj, "rs", line, max)};
}

double require_coord(const Json& obj, const std::string& field,
                     std::size_t line) {
    const double d = require_number(obj, field, line);
    if (!std::isfinite(d)) {
        throw EventFormatError(line, "non-finite coordinate '" + field + "'");
    }
    return d;
}

Event event_from_json(const Json& json, std::size_t line) {
    if (!json.is_object()) {
        throw EventFormatError(line, "event must be a JSON object");
    }
    if (!json.contains("kind")) {
        throw EventFormatError(line, "missing field 'kind'");
    }
    if (!json.at("kind").is_string()) {
        throw EventFormatError(line, "field 'kind' must be a string");
    }
    const std::string& kind_str = json.at("kind").as_string();
    static const std::map<std::string, EventKind> kKinds = {
        {"ss_join", EventKind::SsJoin},   {"ss_leave", EventKind::SsLeave},
        {"ss_move", EventKind::SsMove},   {"ss_rate", EventKind::SsRate},
        {"rs_fail", EventKind::RsFail},   {"rs_degrade", EventKind::RsDegrade},
        {"rs_recover", EventKind::RsRecover},
    };
    const auto it = kKinds.find(kind_str);
    if (it == kKinds.end()) {
        throw EventFormatError(line, "unknown event kind '" + kind_str + "'");
    }

    Event e;
    e.kind = it->second;
    // Schema-strict field check: exactly {"kind"} + the kind's fields.
    const std::vector<std::string> required = kind_fields(e.kind);
    for (const std::string& field : required) {
        if (!json.contains(field)) {
            throw EventFormatError(line, "missing field '" + field + "'");
        }
    }
    if (json.as_object().size() != required.size() + 1) {
        for (const auto& [field, value] : json.as_object()) {
            if (field == "kind") continue;
            if (std::find(required.begin(), required.end(), field) ==
                required.end()) {
                throw EventFormatError(line, "unexpected field '" + field + "'");
            }
        }
    }

    switch (e.kind) {
        case EventKind::SsJoin:
            e.key = require_id(json, "key", line);
            e.pos = {require_coord(json, "x", line),
                     require_coord(json, "y", line)};
            e.distance_request = require_number(json, "d", line);
            break;
        case EventKind::SsLeave:
            e.key = require_id(json, "key", line);
            break;
        case EventKind::SsMove:
            e.key = require_id(json, "key", line);
            e.pos = {require_coord(json, "x", line),
                     require_coord(json, "y", line)};
            break;
        case EventKind::SsRate:
            e.key = require_id(json, "key", line);
            e.distance_request = require_number(json, "d", line);
            break;
        case EventKind::RsFail:
        case EventKind::RsRecover:
            e.rs = require_rs(json, line);
            break;
        case EventKind::RsDegrade:
            e.rs = require_rs(json, line);
            e.factor = require_number(json, "factor", line);
            break;
    }
    if (e.kind == EventKind::SsJoin || e.kind == EventKind::SsRate) {
        if (!(std::isfinite(e.distance_request) && e.distance_request > 0.0)) {
            throw EventFormatError(line, "non-positive distance request 'd'");
        }
    }
    if (e.kind == EventKind::RsDegrade) {
        if (!(std::isfinite(e.factor) && e.factor > 0.0 && e.factor <= 1.0)) {
            throw EventFormatError(line, "degradation factor outside (0, 1]");
        }
    }
    return e;
}

}  // namespace

std::vector<serve::Event> events_from_jsonl(std::string_view text) {
    std::vector<Event> events;
    std::size_t line_no = 0;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t end = std::min(text.find('\n', start), text.size());
        const std::string_view linetext = text.substr(start, end - start);
        ++line_no;
        start = end + 1;
        if (linetext.empty()) continue;
        Json parsed;
        try {
            parsed = Json::parse(linetext);
        } catch (const JsonParseError& e) {
            throw EventFormatError(line_no, std::string("malformed JSON: ") +
                                                e.what());
        }
        events.push_back(event_from_json(parsed, line_no));
    }
    return events;
}

Json event_outcome_to_json(const serve::EventOutcome& outcome) {
    Json json;
    json["event"] = outcome.event_index;
    json["level"] = serve::to_string(outcome.level);
    json["verified"] = outcome.verified;
    json["degraded"] = outcome.degraded;
    json["unserved"] = outcome.unserved;
    json["rs_count"] = outcome.rs_count;
    json["total_power"] = outcome.total_power;
    json["rehomed"] = outcome.rehomed;
    json["patched"] = outcome.patched;
    json["shed"] = outcome.shed;
    if (outcome.resolve_triggered) json["resolve_triggered"] = true;
    if (outcome.resolve_adopted) json["resolve_adopted"] = true;
    if (!outcome.reject_reason.empty()) json["reject"] = outcome.reject_reason;
    return json;
}

}  // namespace sag::io
