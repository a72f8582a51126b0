// JSONL churn-event streams: schema-strict parsing with typed,
// line-numbered errors, and byte-deterministic serialization. The
// negative paths matter most here — a malformed stream must name its
// offending line, never crash or silently skip — and the round-trip
// byte-identity is what makes serve replays comparable.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sag/io/event_io.h"
#include "sag/serve/event.h"
#include "sag/serve/fault.h"

namespace sag::io {
namespace {

using serve::Event;
using serve::EventKind;

std::vector<Event> sample_events() {
    std::vector<Event> events;
    Event join;
    join.kind = EventKind::SsJoin;
    join.key = 7;
    join.pos = {12.5, -3.25};
    join.distance_request = 35.0;
    events.push_back(join);
    Event move;
    move.kind = EventKind::SsMove;
    move.key = 7;
    move.pos = {100.0, 250.0};
    events.push_back(move);
    Event rate;
    rate.kind = EventKind::SsRate;
    rate.key = 7;
    rate.distance_request = 30.0;
    events.push_back(rate);
    Event fail;
    fail.kind = EventKind::RsFail;
    fail.rs = ids::RsId{2};
    events.push_back(fail);
    Event degrade;
    degrade.kind = EventKind::RsDegrade;
    degrade.rs = ids::RsId{1};
    degrade.factor = 0.5;
    events.push_back(degrade);
    Event recover;
    recover.kind = EventKind::RsRecover;
    recover.rs = ids::RsId{2};
    events.push_back(recover);
    Event leave;
    leave.kind = EventKind::SsLeave;
    leave.key = 7;
    events.push_back(leave);
    return events;
}

// --- Round trips -----------------------------------------------------------

TEST(EventIoTest, RoundTripPreservesEveryKind) {
    const std::vector<Event> events = sample_events();
    const std::string text = events_to_jsonl(events);
    const std::vector<Event> parsed = events_from_jsonl(text);
    ASSERT_EQ(parsed.size(), events.size());
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(parsed[i], events[i]) << "event " << i;
    }
}

TEST(EventIoTest, SerializationIsByteDeterministic) {
    // parse(serialize(x)) == x is necessary but not sufficient: replay
    // comparison diffs bytes, so serialize(parse(serialize(x))) must be
    // byte-identical too.
    const std::string once = events_to_jsonl(sample_events());
    const std::string twice = events_to_jsonl(events_from_jsonl(once));
    EXPECT_EQ(once, twice);
}

TEST(EventIoTest, EmptyLinesAreSkipped) {
    const std::string text =
        "\n{\"key\":1,\"kind\":\"ss_leave\"}\n\n{\"kind\":\"rs_fail\",\"rs\":0}\n\n";
    const std::vector<Event> parsed = events_from_jsonl(text);
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].kind, EventKind::SsLeave);
    EXPECT_EQ(parsed[1].kind, EventKind::RsFail);
}

TEST(EventIoTest, EmptyStreamParsesToNothing) {
    EXPECT_TRUE(events_from_jsonl("").empty());
    EXPECT_TRUE(events_from_jsonl("\n\n").empty());
}

// --- Negative paths: every error is typed and names its line ----------------

/// Expects `text` to fail with an EventFormatError on `line` whose
/// message contains `needle`.
void expect_error(const std::string& text, std::size_t line,
                  const std::string& needle) {
    try {
        events_from_jsonl(text);
        FAIL() << "expected EventFormatError (" << needle << ") for: " << text;
    } catch (const EventFormatError& e) {
        EXPECT_EQ(e.line(), line) << e.what();
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
    }
}

TEST(EventIoTest, MalformedJsonNamesTheLine) {
    expect_error("{\"kind\":\"ss_leave\",\"key\":1}\n{oops\n", 2,
                 "malformed JSON");
    expect_error("not json at all\n", 1, "malformed JSON");
}

TEST(EventIoTest, NonObjectLineRejected) {
    expect_error("[1, 2, 3]\n", 1, "must be a JSON object");
    expect_error("42\n", 1, "must be a JSON object");
}

TEST(EventIoTest, UnknownKindRejected) {
    expect_error("{\"kind\":\"ss_teleport\",\"key\":1}\n", 1,
                 "unknown event kind 'ss_teleport'");
    expect_error("{\"kind\":7}\n", 1, "'kind' must be a string");
    expect_error("{\"key\":1}\n", 1, "missing field 'kind'");
}

TEST(EventIoTest, SchemaIsStrictPerKind) {
    // Missing required field.
    expect_error("{\"kind\":\"ss_join\",\"key\":1,\"x\":0,\"y\":0}\n", 1,
                 "missing field 'd'");
    // Extra field, even a plausible one.
    expect_error("{\"key\":1,\"kind\":\"ss_leave\",\"x\":0}\n", 1,
                 "unexpected field 'x'");
    expect_error("{\"factor\":0.5,\"kind\":\"rs_fail\",\"rs\":0}\n", 1,
                 "unexpected field 'factor'");
}

TEST(EventIoTest, OutOfRangeIdsRejected) {
    expect_error("{\"key\":-1,\"kind\":\"ss_leave\"}\n", 1,
                 "out-of-range id in 'key'");
    expect_error("{\"key\":1.5,\"kind\":\"ss_leave\"}\n", 1,
                 "out-of-range id in 'key'");
    // Beyond double's exact-integer range (2^53).
    expect_error("{\"key\":1e300,\"kind\":\"ss_leave\"}\n", 1,
                 "out-of-range id in 'key'");
    expect_error("{\"kind\":\"rs_fail\",\"rs\":-2}\n", 1,
                 "out-of-range id in 'rs'");
    expect_error("{\"key\":\"seven\",\"kind\":\"ss_leave\"}\n", 1,
                 "'key' must be a number");
}

// An RS slot is a 32-bit id below the invalid() sentinel: 2^32 would
// wrap to slot 0, 2^32 + 1 to slot 1, and 2^32 - 1 means "no RS".
TEST(EventIoTest, RsSlotsOutsideThe32BitIdRangeRejected) {
    for (const char* rs :
         {"4294967295", "4294967296", "4294967297", "9007199254740992"}) {
        expect_error(std::string("{\"kind\":\"rs_fail\",\"rs\":") + rs + "}\n", 1,
                     "out-of-range id in 'rs'");
    }
    expect_error("{\"kind\":\"rs_recover\",\"rs\":4294967296}\n", 1,
                 "out-of-range id in 'rs'");
    expect_error("{\"factor\":0.5,\"kind\":\"rs_degrade\",\"rs\":4294967297}\n", 1,
                 "out-of-range id in 'rs'");
    // The largest valid slot still parses.
    const auto events = events_from_jsonl("{\"kind\":\"rs_fail\",\"rs\":4294967294}\n");
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].rs, ids::RsId{4294967294u});
}

TEST(EventIoTest, NonFiniteCoordinatesRejected) {
    // JSON has no NaN/inf literals: an overflowing exponent dies in the
    // number parser, a stringly NaN in the type check, and a serialized
    // NaN coordinate (see the corruption test below) round-trips into a
    // token JSON cannot parse. All typed, all line-numbered.
    expect_error("{\"key\":1,\"kind\":\"ss_move\",\"x\":1e999,\"y\":0}\n", 1,
                 "malformed JSON");
    expect_error("{\"key\":1,\"kind\":\"ss_move\",\"x\":0,\"y\":\"nan\"}\n", 1,
                 "'y' must be a number");
}

TEST(EventIoTest, InvalidRatesAndFactorsRejected) {
    expect_error("{\"d\":0,\"key\":1,\"kind\":\"ss_rate\"}\n", 1,
                 "non-positive distance request 'd'");
    expect_error("{\"d\":-5,\"key\":9,\"kind\":\"ss_join\",\"x\":0,\"y\":0}\n",
                 1, "non-positive distance request 'd'");
    expect_error("{\"factor\":0,\"kind\":\"rs_degrade\",\"rs\":0}\n", 1,
                 "degradation factor outside (0, 1]");
    expect_error("{\"factor\":1.5,\"kind\":\"rs_degrade\",\"rs\":0}\n", 1,
                 "degradation factor outside (0, 1]");
}

TEST(EventIoTest, ErrorLineCountsSkippedEmptyLines) {
    expect_error("\n\n{\"kind\":\"nope\"}\n", 3, "unknown event kind");
}

// --- Outcome records ---------------------------------------------------------

TEST(EventIoTest, OutcomeJsonIsStableAndOmitsOptionalFields) {
    serve::EventOutcome out;
    out.event_index = 3;
    out.level = serve::RepairLevel::Full;
    out.verified = true;
    out.rs_count = 5;
    out.total_power = 2.5;
    const std::string dumped = event_outcome_to_json(out).dump();
    // No resolve/reject keys unless set: the replay fingerprint only
    // carries what happened.
    EXPECT_EQ(dumped.find("resolve"), std::string::npos);
    EXPECT_EQ(dumped.find("reject"), std::string::npos);
    EXPECT_NE(dumped.find("\"level\":\"full\""), std::string::npos);

    out.resolve_triggered = true;
    out.reject_reason = "bad";
    const std::string with = event_outcome_to_json(out).dump();
    EXPECT_NE(with.find("resolve_triggered"), std::string::npos);
    EXPECT_NE(with.find("\"reject\":\"bad\""), std::string::npos);
}

// --- Fault-plan corruption feeds the negative paths --------------------------

TEST(EventIoTest, CorruptedStreamsStillSerializeDeterministically) {
    serve::FaultOptions fopts;
    fopts.corrupt_probability = 0.5;
    fopts.seed = 11;
    const serve::FaultPlan plan(fopts);
    std::vector<Event> base;
    for (int i = 0; i < 40; ++i) {
        Event e;
        e.kind = EventKind::SsMove;
        e.key = static_cast<std::uint64_t>(i % 10);
        e.pos = {static_cast<double>(i), static_cast<double>(2 * i)};
        base.push_back(e);
    }
    const std::vector<Event> a = plan.corrupt(base);
    const std::vector<Event> b = plan.corrupt(base);
    ASSERT_EQ(a.size(), b.size());
    std::size_t changed = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        // Replay-safe: corruption is a pure function of (seed, index).
        // NaN coords break Event's default ==, so compare serialized
        // bytes where the value survives serialization.
        const bool a_nan = std::isnan(a[i].pos.x) || std::isnan(a[i].pos.y);
        const bool b_nan = std::isnan(b[i].pos.x) || std::isnan(b[i].pos.y);
        EXPECT_EQ(a_nan, b_nan) << "event " << i;
        if (!a_nan) {
            EXPECT_EQ(a[i], b[i]) << "event " << i;
        }
        if (a_nan || !(a[i] == base[i])) ++changed;
    }
    EXPECT_GT(changed, 0u);
    EXPECT_LT(changed, base.size());
}

TEST(EventIoTest, SerializedNaNCoordinateFailsToReparseWithLineNumber) {
    // A NaN-corrupted move event dumps as a token JSON cannot re-parse;
    // the wire therefore cannot smuggle non-finite coordinates past the
    // parser, and the error still names the offending line.
    std::vector<Event> events = sample_events();
    Event nan_move;
    nan_move.kind = EventKind::SsMove;
    nan_move.key = 1;
    nan_move.pos = {std::numeric_limits<double>::quiet_NaN(), 0.0};
    events.insert(events.begin() + 2, nan_move);
    expect_error(events_to_jsonl(events), 3, "malformed JSON");
}

}  // namespace
}  // namespace sag::io
