#include "oracles/event_io.h"

#include "sag/io/json.h"

namespace sag::oracles {

namespace {

using serve::EventKind;

const char* kind_name(EventKind kind) {
    switch (kind) {
        case EventKind::SsJoin: return "ss_join";
        case EventKind::SsLeave: return "ss_leave";
        case EventKind::SsMove: return "ss_move";
        case EventKind::SsRate: return "ss_rate";
        case EventKind::RsFail: return "rs_fail";
        case EventKind::RsDegrade: return "rs_degrade";
        case EventKind::RsRecover: return "rs_recover";
    }
    return "unknown";
}

io::Json event_to_json(const serve::Event& event) {
    io::Json json;
    json["kind"] = kind_name(event.kind);
    switch (event.kind) {
        case EventKind::SsJoin:
            json["key"] = static_cast<double>(event.key);
            json["x"] = event.pos.x;
            json["y"] = event.pos.y;
            json["d"] = event.distance_request;
            break;
        case EventKind::SsLeave:
            json["key"] = static_cast<double>(event.key);
            break;
        case EventKind::SsMove:
            json["key"] = static_cast<double>(event.key);
            json["x"] = event.pos.x;
            json["y"] = event.pos.y;
            break;
        case EventKind::SsRate:
            json["key"] = static_cast<double>(event.key);
            json["d"] = event.distance_request;
            break;
        case EventKind::RsFail:
        case EventKind::RsRecover:
            // SAG_RAW_OK: serializing the RS slot as a JSON number.
            json["rs"] = static_cast<double>(event.rs.value());
            break;
        case EventKind::RsDegrade:
            // SAG_RAW_OK: serializing the RS slot as a JSON number.
            json["rs"] = static_cast<double>(event.rs.value());
            json["factor"] = event.factor;
            break;
    }
    return json;
}

}  // namespace

std::string events_to_jsonl(const std::vector<serve::Event>& events) {
    std::string out;
    for (const serve::Event& event : events) {
        out += event_to_json(event).dump();
        out.push_back('\n');
    }
    return out;
}

}  // namespace sag::oracles
