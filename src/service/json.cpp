#include "service/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "support/ensure.hpp"

namespace hyperrec::service {

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

void JsonReader::fail(const std::string& what) const {
  HYPERREC_ENSURE(false,
                  "malformed JSON: " + what + " at byte " +
                      std::to_string(pos_));
  std::abort();  // unreachable; HYPERREC_ENSURE(false, ...) throws
}

char JsonReader::take() {
  if (pos_ >= text_.size()) fail("unexpected end of input");
  return text_[pos_++];
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size()) {
    const char c = text_[pos_];
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

void JsonReader::expect(char c) {
  if (take() != c) {
    --pos_;
    fail(std::string("expected '") + c + "'");
  }
}

void JsonReader::literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
  pos_ += word.size();
}

void JsonReader::enter_container() {
  if (++depth_ > kMaxDepth) {
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  }
}

JsonValue::Kind JsonReader::peek() {
  skip_ws();
  switch (peek_char()) {
    case '{': return JsonValue::Kind::kObject;
    case '[': return JsonValue::Kind::kArray;
    case '"': return JsonValue::Kind::kString;
    case 't':
    case 'f': return JsonValue::Kind::kBool;
    case 'n': return JsonValue::Kind::kNull;
    default: return JsonValue::Kind::kInt;
  }
}

void JsonReader::begin_object() {
  skip_ws();
  expect('{');
  enter_container();
  object_keys_.push_back(keys_.size());
  first_ = true;
}

void JsonReader::begin_array() {
  skip_ws();
  expect('[');
  enter_container();
  first_ = true;
}

bool JsonReader::next(char close, const char* message) {
  skip_ws();
  if (first_) {
    first_ = false;
    if (peek_char() != close) return true;
    ++pos_;
  } else {
    const char c = take();
    if (c == ',') return true;
    if (c != close) {
      --pos_;
      fail(message);
    }
  }
  --depth_;
  return false;
}

bool JsonReader::next_member(std::string& key) {
  if (!next('}', "expected ',' or '}' in object")) {
    close_object();
    return false;
  }
  skip_ws();
  key.clear();
  read_string(&key);
  keys_.emplace_back(key_bytes_.size(), key.size());
  key_bytes_ += key;
  skip_ws();
  expect(':');
  return true;
}

bool JsonReader::next_element() {
  return next(']', "expected ',' or ']' in array");
}

void JsonReader::close_object() {
  const auto first = keys_.begin() + static_cast<std::ptrdiff_t>(
                                         object_keys_.back());
  object_keys_.pop_back();
  if (first == keys_.end()) return;
  const std::size_t bytes_begin = first->first;
  if (keys_.end() - first > 1) {
    // One sort per object at its '}' — O(k log k) — rather than a scan of
    // the earlier keys per key: a line can hold a million keys.
    const std::string_view bytes(key_bytes_);
    const auto view = [bytes](const std::pair<std::size_t, std::size_t>& key) {
      return bytes.substr(key.first, key.second);
    };
    std::sort(first, keys_.end(), [&](const auto& a, const auto& b) {
      return view(a) < view(b);
    });
    const auto duplicate = std::adjacent_find(
        first, keys_.end(),
        [&](const auto& a, const auto& b) { return view(a) == view(b); });
    if (duplicate != keys_.end()) {
      fail("duplicate key \"" + std::string(view(*duplicate)) + "\"");
    }
  }
  keys_.erase(first, keys_.end());
  key_bytes_.resize(bytes_begin);
}

void JsonReader::read_string(std::string* out) {
  expect('"');
  while (true) {
    // Copy the run of plain bytes in one go.
    const std::size_t begin = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        break;
      }
      ++pos_;
    }
    if (out != nullptr) out->append(text_.substr(begin, pos_ - begin));
    const char c = take();
    if (c == '"') return;
    if (c != '\\') {
      --pos_;
      fail("unescaped control character in string");
    }
    const char esc = take();
    char plain = 0;
    switch (esc) {
      case '"': plain = '"'; break;
      case '\\': plain = '\\'; break;
      case '/': plain = '/'; break;
      case 'b': plain = '\b'; break;
      case 'f': plain = '\f'; break;
      case 'n': plain = '\n'; break;
      case 'r': plain = '\r'; break;
      case 't': plain = '\t'; break;
      case 'u': read_unicode_escape(out); continue;
      default:
        --pos_;
        fail("invalid escape sequence");
    }
    if (out != nullptr) out->push_back(plain);
  }
}

void JsonReader::read_unicode_escape(std::string* out) {
  // \uXXXX → UTF-8.  Surrogate pairs are rejected (the protocol is plain
  // ASCII plus UTF-8 payloads that never need them); lone BMP code points
  // encode directly.
  std::uint32_t code = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = take();
    code <<= 4;
    if (c >= '0' && c <= '9') {
      code |= static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      code |= static_cast<std::uint32_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      code |= static_cast<std::uint32_t>(c - 'A' + 10);
    } else {
      --pos_;
      fail("invalid \\u escape");
    }
  }
  if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escape");
  if (out == nullptr) return;
  if (code < 0x80) {
    out->push_back(static_cast<char>(code));
  } else if (code < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (code >> 6)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xE0 | (code >> 12)));
    out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
  }
}

JsonNumber JsonReader::read_number() {
  skip_ws();
  const std::size_t begin = pos_;
  if (peek_char() == '-') ++pos_;
  if (!is_digit(peek_char())) fail("invalid number");
  // RFC 8259: the integer part is 0 or starts with 1-9.
  if (peek_char() == '0' && pos_ + 1 < text_.size() &&
      is_digit(text_[pos_ + 1])) {
    ++pos_;
    fail("leading zero in number");
  }
  JsonNumber number;
  number.integral = true;
  while (is_digit(peek_char())) ++pos_;
  if (peek_char() == '.') {
    number.integral = false;
    ++pos_;
    if (!is_digit(peek_char())) fail("invalid number");
    while (is_digit(peek_char())) ++pos_;
  }
  if (peek_char() == 'e' || peek_char() == 'E') {
    number.integral = false;
    ++pos_;
    if (peek_char() == '+' || peek_char() == '-') ++pos_;
    if (!is_digit(peek_char())) fail("invalid number");
    while (is_digit(peek_char())) ++pos_;
  }
  const char* first = text_.data() + begin;
  const char* last = text_.data() + pos_;
  if (number.integral) {
    const auto [ptr, ec] = std::from_chars(first, last, number.int_value);
    if (ec == std::errc{} && ptr == last) return number;
    number.integral = false;  // out of int64 range: read it as a double
  }
  // strtod wants a terminated token; doubles are rare on this protocol.
  const std::string token(first, last);
  number.double_value = std::strtod(token.c_str(), nullptr);
  if (!std::isfinite(number.double_value)) fail("non-finite number");
  return number;
}

JsonValue JsonReader::read_value() {
  std::string key;
  switch (peek()) {
    case JsonValue::Kind::kObject: {
      JsonObject object;
      begin_object();
      while (next_member(key)) object.emplace(key, read_value());
      return JsonValue(std::move(object));
    }
    case JsonValue::Kind::kArray: {
      JsonArray array;
      begin_array();
      while (next_element()) array.push_back(read_value());
      return JsonValue(std::move(array));
    }
    case JsonValue::Kind::kString:
      read_string(&key);
      return JsonValue(std::move(key));
    case JsonValue::Kind::kBool:
      if (peek_char() == 't') {
        literal("true");
        return JsonValue(true);
      }
      literal("false");
      return JsonValue(false);
    case JsonValue::Kind::kNull:
      literal("null");
      return JsonValue();
    default: {
      const JsonNumber number = read_number();
      return number.integral ? JsonValue(number.int_value)
                             : JsonValue(number.double_value);
    }
  }
}

std::string_view JsonReader::skip() {
  std::string key;
  const JsonValue::Kind kind = peek();
  const std::size_t begin = pos_;
  switch (kind) {
    case JsonValue::Kind::kObject:
      begin_object();
      while (next_member(key)) skip();
      break;
    case JsonValue::Kind::kArray:
      begin_array();
      while (next_element()) skip();
      break;
    case JsonValue::Kind::kString: read_string(nullptr); break;
    case JsonValue::Kind::kBool:
      literal(peek_char() == 't' ? "true" : "false");
      break;
    case JsonValue::Kind::kNull: literal("null"); break;
    default: (void)read_number();
  }
  return text_.substr(begin, pos_ - begin);
}

void JsonReader::finish() {
  skip_ws();
  HYPERREC_ENSURE(pos_ == text_.size(),
                  "trailing content after JSON document at byte " +
                      std::to_string(pos_));
}

bool JsonValue::as_bool() const {
  HYPERREC_ENSURE(kind_ == Kind::kBool, "JSON value is not a boolean");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  HYPERREC_ENSURE(kind_ == Kind::kInt, "JSON value is not an integer");
  return int_;
}

std::uint64_t JsonValue::as_uint() const {
  const std::int64_t value = as_int();
  HYPERREC_ENSURE(value >= 0, "JSON value is negative");
  return static_cast<std::uint64_t>(value);
}

double JsonValue::as_double() const {
  if (kind_ == Kind::kInt) return static_cast<double>(int_);
  HYPERREC_ENSURE(kind_ == Kind::kDouble, "JSON value is not a number");
  return double_;
}

const std::string& JsonValue::as_string() const {
  HYPERREC_ENSURE(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

const JsonArray& JsonValue::as_array() const {
  HYPERREC_ENSURE(kind_ == Kind::kArray, "JSON value is not an array");
  return array_;
}

const JsonObject& JsonValue::as_object() const {
  HYPERREC_ENSURE(kind_ == Kind::kObject, "JSON value is not an object");
  return *object_;
}

const JsonValue* JsonValue::get(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  const auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

JsonValue parse_json(const std::string& text) {
  JsonReader reader(text);
  JsonValue value = reader.read_value();
  reader.finish();
  return value;
}

}  // namespace hyperrec::service
