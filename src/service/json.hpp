// Minimal JSON reader for the solve daemon's wire protocol.
//
// The daemon speaks line-delimited JSON over a local socket.  JsonReader is
// a strict pull reader over the RFC 8259 grammar — no dependencies, no
// comments, no leading zeros, no trailing garbage.  The caller walks the
// document token by token (peek, begin_object/next_member,
// begin_array/next_element, read_number, skip), so a request's bulk arrays
// go straight into their final form without a value tree in between:
// protocol.cpp streams inline trace bits into bitsets this way.
// JsonValue is the DOM built on the same reader (read_value, parse_json)
// for small documents and scalar members.
//
// Malformed input throws PreconditionError with a byte offset: a daemon
// must answer a broken request with a precise error line, never by
// guessing.  skip() validates what it discards, so a member nobody reads
// still rejects the line when it is malformed.  Duplicate keys are an
// error at every object level; each object's keys are checked once, sorted,
// when it closes.
//
// Numbers keep the integer/double distinction: a token without '.'/'e' that
// fits std::int64_t parses as an integer (the protocol's counts, seeds and
// ids are all integral, and the result_json writer guarantees integer
// output), everything else as a double.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hyperrec::service {

class JsonValue;
using JsonArray = std::vector<JsonValue>;
/// Insertion order is irrelevant for requests; a sorted map keeps lookups
/// simple.
using JsonObject = std::map<std::string, JsonValue>;

class JsonValue {
 public:
  enum class Kind : std::uint8_t {
    kNull,
    kBool,
    kInt,
    kDouble,
    kString,
    kArray,
    kObject,
  };

  JsonValue() = default;
  explicit JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  explicit JsonValue(std::int64_t value) : kind_(Kind::kInt), int_(value) {}
  explicit JsonValue(double value) : kind_(Kind::kDouble), double_(value) {}
  explicit JsonValue(std::string value)
      : kind_(Kind::kString), string_(std::move(value)) {}
  explicit JsonValue(JsonArray value)
      : kind_(Kind::kArray), array_(std::move(value)) {}
  explicit JsonValue(JsonObject value)
      : kind_(Kind::kObject),
        object_(std::make_shared<JsonObject>(std::move(value))) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }

  // Typed accessors; the wrong kind throws PreconditionError (the daemon
  // turns that into an error response naming the field).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  /// as_int plus a non-negative check — sizes, seeds and counts.
  [[nodiscard]] std::uint64_t as_uint() const;
  /// Accepts both integer and double tokens.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object member lookup; nullptr when absent (or when this is not an
  /// object — absent and wrong-shape read the same to an optional field).
  [[nodiscard]] const JsonValue* get(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  JsonArray array_;
  /// shared_ptr breaks the JsonValue→JsonObject→JsonValue size recursion.
  std::shared_ptr<JsonObject> object_;
};

/// A number token: integral when it has no fraction or exponent and fits
/// std::int64_t (JsonValue's kInt), a finite double otherwise.
struct JsonNumber {
  bool integral = false;
  std::int64_t int_value = 0;
  double double_value = 0.0;
};

/// Strict pull reader over one JSON document held by the caller.
///
/// Containers are walked with begin_object + next_member until it returns
/// false (the '}' is consumed), or begin_array + next_element likewise;
/// after next_member/next_element return true, exactly one value must be
/// read (read_value, read_number, skip, or a nested container).
class JsonReader {
 public:
  /// Containers deeper than this are rejected.  The DOM builder and skip()
  /// recurse per nesting level and read untrusted socket input, so without
  /// a ceiling a '[[[[…' line turns into a stack overflow that kills the
  /// daemon.
  static constexpr int kMaxDepth = 64;

  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Kind of the next value, judged by its first byte; nothing is consumed.
  /// Anything that is not an object, array, string, literal or null reads
  /// as kInt — read_number() then rejects it if it is no number either.
  [[nodiscard]] JsonValue::Kind peek();

  void begin_object();
  /// Decodes the next member's key into `key`; false once the object ends.
  bool next_member(std::string& key);
  void begin_array();
  /// True while the array has another element.
  bool next_element();

  JsonNumber read_number();
  /// Reads the next value of any kind into a DOM.
  JsonValue read_value();
  /// Validates the next value and skips it; returns its text.
  std::string_view skip();

  /// Requires that only whitespace is left.
  void finish();

 private:
  [[noreturn]] void fail(const std::string& what) const;
  [[nodiscard]] char peek_char() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  char take();
  void skip_ws();
  void expect(char c);
  void literal(std::string_view word);
  void enter_container();
  bool next(char close, const char* message);
  void close_object();
  /// Decodes a string token into `out`, or validates it when out is null.
  void read_string(std::string* out);
  void read_unicode_escape(std::string* out);

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  /// The next next_member/next_element call is the container's first.
  bool first_ = false;
  /// Keys of every open object, concatenated; `keys_` holds (offset,
  /// length) per key and `object_keys_` where each open object's keys
  /// start, so the duplicate check at '}' sorts only that object's keys.
  std::string key_bytes_;
  std::vector<std::pair<std::size_t, std::size_t>> keys_;
  std::vector<std::size_t> object_keys_;
};

/// Parses exactly one JSON document; trailing non-whitespace throws.
[[nodiscard]] JsonValue parse_json(const std::string& text);

}  // namespace hyperrec::service
