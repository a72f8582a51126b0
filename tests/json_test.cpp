#include <cstddef>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "sag/io/json.h"

namespace sag::io {
namespace {

TEST(JsonParseTest, Scalars) {
    EXPECT_TRUE(Json::parse("null").is_null());
    EXPECT_EQ(Json::parse("true").as_bool(), true);
    EXPECT_EQ(Json::parse("false").as_bool(), false);
    EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
    EXPECT_DOUBLE_EQ(Json::parse("-3.5e2").as_number(), -350.0);
    EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParseTest, Containers) {
    const Json arr = Json::parse("[1, 2, [3]]");
    ASSERT_TRUE(arr.is_array());
    EXPECT_EQ(arr.size(), 3u);
    EXPECT_DOUBLE_EQ(arr.at(std::size_t{2}).at(std::size_t{0}).as_number(), 3.0);

    const Json obj = Json::parse(R"({"a": 1, "b": {"c": [true]}})");
    EXPECT_DOUBLE_EQ(obj.at("a").as_number(), 1.0);
    EXPECT_TRUE(obj.at("b").at("c").at(std::size_t{0}).as_bool());
}

TEST(JsonParseTest, WhitespaceTolerant) {
    const Json v = Json::parse("  {\n\t\"k\" :\r [ 1 , 2 ]  }  ");
    EXPECT_EQ(v.at("k").size(), 2u);
}

TEST(JsonParseTest, StringEscapes) {
    EXPECT_EQ(Json::parse(R"("a\"b\\c\/d\n")").as_string(), "a\"b\\c/d\n");
    EXPECT_EQ(Json::parse(R"("Aé")").as_string(), "A\xc3\xa9");
    EXPECT_EQ(Json::parse(R"("€")").as_string(), "\xe2\x82\xac");  // euro sign
}

TEST(JsonParseTest, Errors) {
    EXPECT_THROW((void)Json::parse(""), JsonParseError);
    EXPECT_THROW((void)Json::parse("{"), JsonParseError);
    EXPECT_THROW((void)Json::parse("[1,]"), JsonParseError);
    EXPECT_THROW((void)Json::parse("tru"), JsonParseError);
    EXPECT_THROW((void)Json::parse("1 2"), JsonParseError);       // trailing
    EXPECT_THROW((void)Json::parse("\"abc"), JsonParseError);     // unterminated
    EXPECT_THROW((void)Json::parse("{\"a\" 1}"), JsonParseError); // missing colon
    EXPECT_THROW((void)Json::parse("nan"), JsonParseError);
    EXPECT_THROW((void)Json::parse("\"\x01\""), JsonParseError);  // raw control
}

TEST(JsonParseTest, ErrorCarriesOffset) {
    try {
        (void)Json::parse("[1, x]");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError& e) {
        EXPECT_TRUE(std::string_view(e.what()).ends_with(" at offset 4")) << e.what();
    }
}

/// `depth` nested arrays, or `depth` nested {"a": ...} objects, around 0.
std::string nested_arrays(std::size_t depth) {
    return std::string(depth, '[') + "0" + std::string(depth, ']');
}
std::string nested_objects(std::size_t depth) {
    std::string text;
    for (std::size_t i = 0; i < depth; ++i) text += "{\"a\":";
    return text + "0" + std::string(depth, '}');
}

void expect_error_at(const std::string& text, std::size_t offset) {
    try {
        (void)Json::parse(text);
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("nesting deeper than"), std::string::npos) << what;
        EXPECT_TRUE(what.ends_with(" at offset " + std::to_string(offset))) << what;
    }
}

// The parser recurses once per level: 100,000 levels used to overflow
// the stack (a segfault, not an error). Nesting is capped instead.
TEST(JsonParseTest, DeepNestingThrowsInsteadOfOverflowing) {
    EXPECT_THROW((void)Json::parse(nested_arrays(100'000)), JsonParseError);
    EXPECT_THROW((void)Json::parse(nested_objects(100'000)), JsonParseError);
}

// kMaxDepth levels parse; one more throws at the bracket that crosses
// the cap (each object level is the 5 bytes `{"a":`).
TEST(JsonParseTest, NestingCapIsExact) {
    const std::size_t cap = Json::kMaxDepth;
    EXPECT_TRUE(Json::parse(nested_arrays(cap)).is_array());
    EXPECT_TRUE(Json::parse(nested_objects(cap)).is_object());
    expect_error_at(nested_arrays(cap + 1), cap);
    expect_error_at(nested_objects(cap + 1), 5 * cap);
}

TEST(JsonDumpTest, CompactAndPretty) {
    Json j;
    j["b"] = Json(2);
    j["a"] = Json(Json::Array{Json(1), Json("x")});
    EXPECT_EQ(j.dump(), R"({"a":[1,"x"],"b":2})");  // keys sorted
    const std::string pretty = j.dump(2);
    EXPECT_NE(pretty.find("\n  \"a\": [\n"), std::string::npos);
}

TEST(JsonDumpTest, NumbersIntegralAndReal) {
    EXPECT_EQ(Json(5.0).dump(), "5");
    EXPECT_EQ(Json(-17.0).dump(), "-17");
    EXPECT_EQ(Json(0.5).dump(), "0.5");
}

TEST(JsonDumpTest, StringEscaping) {
    EXPECT_EQ(Json("a\"b\\c\n\t").dump(), R"("a\"b\\c\n\t")");
}

TEST(JsonRoundTripTest, ParseDumpParseIsIdentity) {
    const char* docs[] = {
        "null",
        "[]",
        "{}",
        R"({"nested":{"arr":[1,2.5,"s",true,null],"empty":[]}})",
        R"([{"x":-1e-3},{"y":"ü"}])",
    };
    for (const char* doc : docs) {
        const Json first = Json::parse(doc);
        const Json second = Json::parse(first.dump());
        EXPECT_EQ(first, second) << doc;
        EXPECT_EQ(first.dump(), second.dump()) << doc;
    }
}

TEST(JsonAccessTest, TypeMismatchThrows) {
    const Json j = Json::parse("[1]");
    EXPECT_THROW((void)j.as_object(), std::runtime_error);
    EXPECT_THROW((void)j.as_string(), std::runtime_error);
    EXPECT_THROW((void)j.at("k"), std::runtime_error);
    EXPECT_THROW((void)j.at(std::size_t{5}), std::runtime_error);
    EXPECT_THROW((void)Json(true).size(), std::runtime_error);
}

TEST(JsonAccessTest, GetNumberFallback) {
    const Json j = Json::parse(R"({"x": 7})");
    EXPECT_DOUBLE_EQ(j.get_number("x", 0.0), 7.0);
    EXPECT_DOUBLE_EQ(j.get_number("missing", -1.0), -1.0);
    EXPECT_FALSE(j.contains("missing"));
}

TEST(JsonAccessTest, SubscriptBuildsObjects) {
    Json j;  // null
    j["a"]["b"] = Json(1);
    EXPECT_DOUBLE_EQ(j.at("a").at("b").as_number(), 1.0);
}

}  // namespace
}  // namespace sag::io
