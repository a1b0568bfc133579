#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace tkmc::telemetry {

/// Escapes a string for embedding inside JSON double quotes.
std::string escapeJson(const std::string& s);

/// Publishes `json` plus a trailing newline at `path` through
/// publishAtomic() (temp file, then rename), so a fault mid-dump never
/// leaves a torn file under the final name. Throws IoError on any
/// failure. The fault point "telemetry.write_tear" (see
/// common/fault_injection.hpp) simulates a crash after a partial temp
/// write.
void publishJson(const std::string& path, const std::string& json);

/// Minimal JSON document model, enough to round-trip the telemetry
/// outputs (metrics snapshots, Chrome trace files) in tests and tools.
/// Not a general-purpose library: numbers are doubles, object key order
/// is preserved, duplicate keys are kept as-is.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool isNull() const { return type == Type::kNull; }
  bool isNumber() const { return type == Type::kNumber; }
  bool isString() const { return type == Type::kString; }
  bool isArray() const { return type == Type::kArray; }
  bool isObject() const { return type == Type::kObject; }

  /// First value under `key`, or nullptr when absent / not an object.
  const JsonValue* find(const std::string& key) const;

  /// Parses a complete JSON document; trailing non-whitespace or any
  /// syntax error throws tkmc::Error with the byte offset.
  static JsonValue parse(const std::string& text);
};

}  // namespace tkmc::telemetry
