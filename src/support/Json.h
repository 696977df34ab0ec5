//===- support/Json.h - Minimal JSON emission helpers ----------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny hand-rolled JSON writer used by the structured diagnostics
/// renderer (`gntc --audit-json`). No external dependencies: the output
/// vocabulary is small (objects, arrays, strings, integers, booleans), so
/// a streaming writer with explicit escaping is all we need.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_JSON_H
#define GNT_SUPPORT_JSON_H

#include "support/Support.h"

#include <cstdio>
#include <string>
#include <string_view>

namespace gnt {

/// Appends \p S to \p Out, escaped for inclusion inside a double-quoted
/// JSON string.
inline void appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

/// Escapes \p S for inclusion inside a double-quoted JSON string.
inline std::string jsonEscape(std::string_view S) {
  std::string R;
  R.reserve(S.size());
  appendJsonEscaped(R, S);
  return R;
}

/// Streaming writer for a flat mix of objects and arrays. The caller is
/// responsible for well-formedness (balanced begin/end calls); the writer
/// tracks comma placement only.
class JsonWriter {
public:
  const std::string &str() const { return Out; }

  JsonWriter &beginObject() {
    sep();
    Out += '{';
    First = true;
    return *this;
  }
  JsonWriter &endObject() {
    Out += '}';
    First = false;
    return *this;
  }
  JsonWriter &beginArray(std::string_view Key = {}) {
    sep();
    if (!Key.empty())
      quoted(Key) += ':';
    Out += '[';
    First = true;
    return *this;
  }
  JsonWriter &endArray() {
    Out += ']';
    First = false;
    return *this;
  }

  JsonWriter &key(std::string_view K) {
    sep();
    quoted(K) += ':';
    First = true; // The value that follows needs no comma.
    return *this;
  }
  JsonWriter &value(std::string_view V) {
    sep();
    quoted(V);
    return *this;
  }
  JsonWriter &value(const char *V) { return value(std::string_view(V)); }
  JsonWriter &value(long long V) {
    sep();
    appendInt(Out, V);
    return *this;
  }
  JsonWriter &value(unsigned V) { return value(static_cast<long long>(V)); }
  JsonWriter &value(bool V) {
    sep();
    Out += V ? "true" : "false";
    return *this;
  }
  /// Emits \p Token verbatim as a value: a pre-rendered number (doubles
  /// have no value() overload) or an embedded pre-rendered document.
  /// The caller guarantees the token is valid JSON.
  JsonWriter &raw(std::string_view Token) {
    sep();
    Out += Token;
    return *this;
  }

private:
  void sep() {
    if (!First)
      Out += ',';
    First = false;
  }

  std::string &quoted(std::string_view S) {
    Out += '"';
    appendJsonEscaped(Out, S);
    Out += '"';
    return Out;
  }

  std::string Out;
  bool First = true;
};

} // namespace gnt

#endif // GNT_SUPPORT_JSON_H
