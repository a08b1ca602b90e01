#pragma once

#include <cmath>
#include <cstdio>
#include <string>

namespace moteur {

// Pieces of the hand-written JSON documents (flight dumps, critical-path
// reports, failure reports, telemetry frames, Chrome traces).

/// Escape for use inside a double-quoted JSON string.
inline std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Six decimals, always; non-finite values become 0.
inline std::string json_fixed(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6f", value);
  return buf;
}

/// Integers without a fraction, anything else with ten significant digits;
/// non-finite values become 0.
inline std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[32];
  if (value == static_cast<double>(static_cast<long long>(value)) &&
      std::abs(value) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  } else {
    std::snprintf(buf, sizeof(buf), "%.10g", value);
  }
  return buf;
}

}  // namespace moteur
