// Minimal JSON reader.
//
// The observability layer *emits* JSON (metrics snapshots, Chrome trace
// timelines); tests must parse it back to prove the output is well formed
// rather than merely string-matching.  This is a small strict RFC 8259
// reader — objects keep insertion order, numbers are doubles — and is not
// meant as a general-purpose library.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace exs::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Value> array_items;
  std::vector<std::pair<std::string, Value>> object_items;

  bool IsObject() const { return type == Type::kObject; }
  bool IsArray() const { return type == Type::kArray; }
  bool IsNumber() const { return type == Type::kNumber; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* Find(const std::string& key) const;
};

/// Parse `text` into `*out`.  On failure returns false and describes the
/// problem (with offset) in `*error` when non-null.  Trailing garbage
/// after the top-level value is an error.
bool Parse(const std::string& text, Value* out, std::string* error = nullptr);

}  // namespace exs::json
