#pragma once

#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace sag::io {

/// Error thrown by Json::parse on malformed input; what() ends with the
/// byte offset of the failure ("... at offset N").
class JsonParseError : public std::runtime_error {
public:
    JsonParseError(const std::string& what, std::size_t offset)
        : std::runtime_error(what + " at offset " + std::to_string(offset)) {}
};

/// A small dependency-free JSON value: null, bool, number (double),
/// string, array, object. Supports parsing (strict, UTF-8 passthrough)
/// and serialization with optional pretty-printing. Object keys keep
/// sorted order (std::map) so serialization is deterministic — important
/// for golden-file tests and reproducible experiment manifests.
class Json {
public:
    using Array = std::vector<Json>;
    using Object = std::map<std::string, Json>;

    Json() : value_(nullptr) {}
    Json(std::nullptr_t) : value_(nullptr) {}
    Json(bool b) : value_(b) {}
    Json(double d) : value_(d) {}
    Json(int i) : value_(static_cast<double>(i)) {}
    Json(std::size_t n) : value_(static_cast<double>(n)) {}
    Json(const char* s) : value_(std::string(s)) {}
    Json(std::string s) : value_(std::move(s)) {}
    Json(Array a) : value_(std::move(a)) {}
    Json(Object o) : value_(std::move(o)) {}

    bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
    bool is_bool() const { return std::holds_alternative<bool>(value_); }
    bool is_number() const { return std::holds_alternative<double>(value_); }
    bool is_string() const { return std::holds_alternative<std::string>(value_); }
    bool is_array() const { return std::holds_alternative<Array>(value_); }
    bool is_object() const { return std::holds_alternative<Object>(value_); }

    /// Typed accessors; throw std::runtime_error on type mismatch.
    bool as_bool() const;
    double as_number() const;
    const std::string& as_string() const;
    const Array& as_array() const;
    const Object& as_object() const;
    Array& as_array();
    Object& as_object();

    /// Object field access; `at` throws when missing, `get` returns a
    /// fallback, `contains` probes.
    const Json& at(const std::string& key) const;
    bool contains(const std::string& key) const;
    double get_number(const std::string& key, double fallback) const;

    /// Array element access with bounds checking.
    const Json& at(std::size_t index) const;
    std::size_t size() const;

    /// Object field assignment (creates the object if this is null).
    Json& operator[](const std::string& key);

    bool operator==(const Json& other) const = default;

    /// Serialize; indent < 0 -> compact single line, otherwise
    /// pretty-print with that many spaces per level.
    std::string dump(int indent = -1) const;

    /// Strict parser; throws JsonParseError. Rejects trailing content,
    /// and arrays and objects nested deeper than kMaxDepth: the parser
    /// recurses once per level, so the cap bounds its stack (scenario
    /// files nest 4 levels deep).
    static Json parse(std::string_view text);
    static constexpr std::size_t kMaxDepth = 512;

private:
    std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;
};

}  // namespace sag::io
