// Minimal JSON for the serving surface: a recursive-descent parser for
// request bodies and escape-correct string writing for responses.
//
// Scope is deliberately small — the /match and /dedupe bodies are flat
// objects of strings and numbers — but the parser accepts the full JSON
// grammar (nested objects/arrays, escapes, exponents) with a depth cap, so
// a hostile body is answered with a clean InvalidArgument instead of a
// stack overflow. Numbers are doubles (JSON's own number model); object
// keys keep last-wins semantics on duplicates.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/status.h"

namespace emba {
namespace serve {
namespace json {

class Value;
using Object = std::map<std::string, Value>;
using Array = std::vector<Value>;

class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null
  explicit Value(bool b) : type_(Type::kBool), bool_(b) {}
  explicit Value(double d) : type_(Type::kNumber), number_(d) {}
  explicit Value(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  explicit Value(Array a)
      : type_(Type::kArray), array_(std::make_shared<Array>(std::move(a))) {}
  explicit Value(Object o)
      : type_(Type::kObject), object_(std::make_shared<Object>(std::move(o))) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_object() const { return type_ == Type::kObject; }
  bool is_array() const { return type_ == Type::kArray; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return *array_; }
  const Object& AsObject() const { return *object_; }

  /// Object member lookup; nullptr when this is not an object or the key
  /// is absent.
  const Value* Find(const std::string& key) const {
    if (type_ != Type::kObject) return nullptr;
    auto it = object_->find(key);
    return it == object_->end() ? nullptr : &it->second;
  }

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<Array> array_;
  std::shared_ptr<Object> object_;
};

/// Parses `text` as one JSON value (trailing garbage is an error).
/// InvalidArgument with a byte offset on malformed input.
Result<Value> Parse(const std::string& text);

/// `s` with JSON string escaping applied (quotes not included); the rules
/// are AppendJsonEscaped's (util/strings.h).
std::string Escape(const std::string& s);

/// Double formatted with enough digits to round-trip bit-exactly through
/// decimal (max_digits10) — the serving layer's score-fidelity contract.
std::string NumberToString(double d);

}  // namespace json
}  // namespace serve
}  // namespace emba
