#include "sag/io/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <sstream>

namespace sag::io {

namespace {

/// Recursive-descent JSON parser over a string_view with offset tracking.
class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json parse_document() {
        skip_ws();
        Json value = parse_value();
        skip_ws();
        if (pos_ != text_.size()) fail("trailing content after JSON value");
        return value;
    }

private:
    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;  // arrays and objects open at pos_

    [[noreturn]] void fail(const std::string& what) const {
        throw JsonParseError(what, pos_);
    }

    char peek() const {
        if (pos_ >= text_.size()) throw JsonParseError("unexpected end of input", pos_);
        return text_[pos_];
    }
    char take() {
        const char c = peek();
        ++pos_;
        return c;
    }
    void expect(char c) {
        if (take() != c) {
            --pos_;
            fail(std::string("expected '") + c + "'");
        }
    }
    void skip_ws() {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
                text_[pos_] == '\r')) {
            ++pos_;
        }
    }
    bool consume_keyword(std::string_view kw) {
        if (text_.substr(pos_, kw.size()) == kw) {
            pos_ += kw.size();
            return true;
        }
        return false;
    }

    Json parse_value() {
        skip_ws();
        const char c = peek();
        switch (c) {
            case '{':
            case '[': {
                if (++depth_ > Json::kMaxDepth) {
                    fail("nesting deeper than " + std::to_string(Json::kMaxDepth) +
                         " levels");
                }
                Json nested = c == '{' ? parse_object() : parse_array();
                --depth_;
                return nested;
            }
            case '"': return Json(parse_string());
            case 't':
                if (consume_keyword("true")) return Json(true);
                fail("invalid literal");
            case 'f':
                if (consume_keyword("false")) return Json(false);
                fail("invalid literal");
            case 'n':
                if (consume_keyword("null")) return Json(nullptr);
                fail("invalid literal");
            default: return parse_number();
        }
    }

    Json parse_object() {
        expect('{');
        Json::Object obj;
        skip_ws();
        if (peek() == '}') {
            take();
            return Json(std::move(obj));
        }
        while (true) {
            skip_ws();
            std::string key = parse_string();
            skip_ws();
            expect(':');
            obj[std::move(key)] = parse_value();
            skip_ws();
            const char sep = take();
            if (sep == '}') break;
            if (sep != ',') {
                --pos_;
                fail("expected ',' or '}' in object");
            }
        }
        return Json(std::move(obj));
    }

    Json parse_array() {
        expect('[');
        Json::Array arr;
        skip_ws();
        if (peek() == ']') {
            take();
            return Json(std::move(arr));
        }
        while (true) {
            arr.push_back(parse_value());
            skip_ws();
            const char sep = take();
            if (sep == ']') break;
            if (sep != ',') {
                --pos_;
                fail("expected ',' or ']' in array");
            }
        }
        return Json(std::move(arr));
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            const char c = take();
            if (c == '"') break;
            if (c == '\\') {
                const char esc = take();
                switch (esc) {
                    case '"': out.push_back('"'); break;
                    case '\\': out.push_back('\\'); break;
                    case '/': out.push_back('/'); break;
                    case 'b': out.push_back('\b'); break;
                    case 'f': out.push_back('\f'); break;
                    case 'n': out.push_back('\n'); break;
                    case 'r': out.push_back('\r'); break;
                    case 't': out.push_back('\t'); break;
                    case 'u': {
                        unsigned code = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = take();
                            code <<= 4;
                            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                            else {
                                --pos_;
                                fail("invalid \\u escape");
                            }
                        }
                        // Encode the code point as UTF-8 (BMP only; no
                        // surrogate-pair recombination — enough for config files).
                        if (code < 0x80) {
                            out.push_back(static_cast<char>(code));
                        } else if (code < 0x800) {
                            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
                            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                        } else {
                            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
                            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
                            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
                        }
                        break;
                    }
                    default:
                        --pos_;
                        fail("invalid escape sequence");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("unescaped control character in string");
            } else {
                out.push_back(c);
            }
        }
        return out;
    }

    Json parse_number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
                text_[pos_] == '+' || text_[pos_] == '-')) {
            ++pos_;
        }
        double value = 0.0;
        const auto first = text_.data() + start;
        const auto last = text_.data() + pos_;
        const auto [ptr, ec] = std::from_chars(first, last, value);
        if (ec != std::errc{} || ptr != last || start == pos_) {
            pos_ = start;
            fail("invalid number");
        }
        return Json(value);
    }
};

void dump_string(const std::string& s, std::string& out) {
    out.push_back('"');
    for (const char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out.push_back(c);
                }
        }
    }
    out.push_back('"');
}

void dump_number(double d, std::string& out) {
    if (std::isfinite(d) && d == std::floor(d) && std::abs(d) < 1e15) {
        // Integral values print without a fractional tail.
        out += std::to_string(static_cast<long long>(d));
        return;
    }
    std::ostringstream os;
    os.precision(17);
    os << d;
    out += os.str();
}

void dump_value(const Json& v, std::string& out, int indent, int depth);

void newline_indent(std::string& out, int indent, int depth) {
    if (indent >= 0) {
        out.push_back('\n');
        out.append(static_cast<std::size_t>(indent * depth), ' ');
    }
}

void dump_value(const Json& v, std::string& out, int indent, int depth) {
    if (v.is_null()) {
        out += "null";
    } else if (v.is_bool()) {
        out += v.as_bool() ? "true" : "false";
    } else if (v.is_number()) {
        dump_number(v.as_number(), out);
    } else if (v.is_string()) {
        dump_string(v.as_string(), out);
    } else if (v.is_array()) {
        const auto& arr = v.as_array();
        if (arr.empty()) {
            out += "[]";
            return;
        }
        out.push_back('[');
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i > 0) out.push_back(',');
            newline_indent(out, indent, depth + 1);
            dump_value(arr[i], out, indent, depth + 1);
        }
        newline_indent(out, indent, depth);
        out.push_back(']');
    } else {
        const auto& obj = v.as_object();
        if (obj.empty()) {
            out += "{}";
            return;
        }
        out.push_back('{');
        bool first = true;
        for (const auto& [key, value] : obj) {
            if (!first) out.push_back(',');
            first = false;
            newline_indent(out, indent, depth + 1);
            dump_string(key, out);
            out.push_back(':');
            if (indent >= 0) out.push_back(' ');
            dump_value(value, out, indent, depth + 1);
        }
        newline_indent(out, indent, depth);
        out.push_back('}');
    }
}

}  // namespace

bool Json::as_bool() const {
    if (!is_bool()) throw std::runtime_error("JSON value is not a bool");
    return std::get<bool>(value_);
}
double Json::as_number() const {
    if (!is_number()) throw std::runtime_error("JSON value is not a number");
    return std::get<double>(value_);
}
const std::string& Json::as_string() const {
    if (!is_string()) throw std::runtime_error("JSON value is not a string");
    return std::get<std::string>(value_);
}
const Json::Array& Json::as_array() const {
    if (!is_array()) throw std::runtime_error("JSON value is not an array");
    return std::get<Array>(value_);
}
const Json::Object& Json::as_object() const {
    if (!is_object()) throw std::runtime_error("JSON value is not an object");
    return std::get<Object>(value_);
}
Json::Array& Json::as_array() {
    if (!is_array()) throw std::runtime_error("JSON value is not an array");
    return std::get<Array>(value_);
}
Json::Object& Json::as_object() {
    if (!is_object()) throw std::runtime_error("JSON value is not an object");
    return std::get<Object>(value_);
}

const Json& Json::at(const std::string& key) const {
    const auto& obj = as_object();
    const auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing JSON key: " + key);
    return it->second;
}

bool Json::contains(const std::string& key) const {
    return is_object() && as_object().count(key) > 0;
}

double Json::get_number(const std::string& key, double fallback) const {
    return contains(key) ? at(key).as_number() : fallback;
}

const Json& Json::at(std::size_t index) const {
    const auto& arr = as_array();
    if (index >= arr.size()) throw std::runtime_error("JSON array index out of range");
    return arr[index];
}

std::size_t Json::size() const {
    if (is_array()) return as_array().size();
    if (is_object()) return as_object().size();
    throw std::runtime_error("JSON value has no size");
}

Json& Json::operator[](const std::string& key) {
    if (is_null()) value_ = Object{};
    return as_object()[key];
}

std::string Json::dump(int indent) const {
    std::string out;
    dump_value(*this, out, indent, 0);
    return out;
}

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

}  // namespace sag::io
