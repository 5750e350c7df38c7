// Minimal JSON emission helpers shared by the built-in modules' exports.
//
// The repo deliberately has no JSON library (telemetry/export.cpp hand-rolls
// its documents the same way); these helpers keep the modules' hand-rolled
// output consistent: escaped strings, locale-independent numbers, and no
// NaN/Inf leakage (JSON has no spelling for them).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <locale>
#include <sstream>
#include <string>
#include <string_view>

namespace disco::modules::json {

/// Escapes a string for use inside a JSON string literal (quotes excluded).
inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A finite double as a JSON number (NaN/Inf map to 0 -- exports must stay
/// parseable even if a module's math goes degenerate).
inline std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream out;
  out.imbue(std::locale::classic());
  out.precision(12);
  out << v;
  return out.str();
}

/// Dotted-quad rendering of a host-order IPv4 address ("10.1.2.3").
inline std::string ipv4(std::uint32_t ip) {
  std::ostringstream out;
  out << ((ip >> 24) & 0xff) << '.' << ((ip >> 16) & 0xff) << '.'
      << ((ip >> 8) & 0xff) << '.' << (ip & 0xff);
  return out.str();
}

}  // namespace disco::modules::json
