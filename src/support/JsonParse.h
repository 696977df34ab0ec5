//===- support/JsonParse.h - Minimal JSON parser ---------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON reader, the input-side counterpart of
/// Json.h's writer. The compilation service (`gntd`) reads one request
/// object per line and the tests round-trip its responses and metrics,
/// so the vocabulary is objects, arrays, strings, numbers, booleans and
/// null — a self-contained parser beats an external dependency.
/// Integral numbers are kept exactly (long long); numbers with a
/// fraction or exponent are kept as double.
///
/// The input comes from remote clients, so the parser never throws and
/// never recurses without bound: numbers that do not fit their type and
/// containers nested deeper than JsonMaxDepth are ordinary parse errors.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_JSONPARSE_H
#define GNT_SUPPORT_JSONPARSE_H

#include <charconv>
#include <map>
#include <memory>
#include <string>
#include <system_error>
#include <vector>

namespace gnt {

/// A parsed JSON value. Object keys are kept in a sorted map: request
/// canonicalization relies on key order being content-determined.
struct JsonValue {
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Kind K = Kind::Null;
  bool B = false;
  long long I = 0;
  double D = 0;
  std::string S;
  std::vector<JsonValue> Elems;
  std::map<std::string, JsonValue> Fields;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isInt() const { return K == Kind::Int; }
  bool isNumber() const { return K == Kind::Int || K == Kind::Double; }

  /// Numeric value regardless of integral/fractional representation.
  double asDouble() const { return K == Kind::Int ? static_cast<double>(I) : D; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Field lookup on objects; nullptr when absent or not an object.
  const JsonValue *field(const std::string &Name) const {
    if (K != Kind::Object)
      return nullptr;
    auto It = Fields.find(Name);
    return It == Fields.end() ? nullptr : &It->second;
  }
};

/// Outcome of a parse: a value, or an error with a byte offset.
struct JsonParseResult {
  JsonValue Value;
  std::string Error;
  size_t ErrorOffset = 0;

  bool success() const { return Error.empty(); }
};

/// Deepest array/object nesting the parser accepts. Service requests
/// nest three levels; the limit bounds the recursion of the descent.
inline constexpr unsigned JsonMaxDepth = 64;

namespace detail {

class JsonParser {
public:
  explicit JsonParser(const std::string &Text) : Text(Text) {}

  JsonParseResult run() {
    JsonParseResult R;
    R.Value = parseValue(R);
    if (!R.success())
      return R;
    skipSpace();
    if (Pos != Text.size())
      fail(R, "trailing characters after JSON value");
    return R;
  }

private:
  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  void fail(JsonParseResult &R, const std::string &Msg) {
    if (R.Error.empty()) {
      R.Error = Msg;
      R.ErrorOffset = Pos;
    }
  }

  bool literal(const char *Word) {
    size_t Len = std::char_traits<char>::length(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  JsonValue parseValue(JsonParseResult &R) {
    skipSpace();
    JsonValue V;
    if (Pos >= Text.size()) {
      fail(R, "unexpected end of input");
      return V;
    }
    char C = Text[Pos];
    if (C == '{' || C == '[') {
      if (Depth == JsonMaxDepth) {
        fail(R, "nesting deeper than " + std::to_string(JsonMaxDepth) +
                    " levels");
        return V;
      }
      ++Depth;
      JsonValue Nested = C == '{' ? parseObject(R) : parseArray(R);
      --Depth;
      return Nested;
    }
    if (C == '"') {
      V.K = JsonValue::Kind::String;
      V.S = parseString(R);
      return V;
    }
    if (C == 't' && literal("true")) {
      V.K = JsonValue::Kind::Bool;
      V.B = true;
      return V;
    }
    if (C == 'f' && literal("false")) {
      V.K = JsonValue::Kind::Bool;
      V.B = false;
      return V;
    }
    if (C == 'n' && literal("null"))
      return V;
    if (C == '-' || (C >= '0' && C <= '9'))
      return parseNumber(R);
    fail(R, std::string("unexpected character '") + C + "'");
    return V;
  }

  JsonValue parseNumber(JsonParseResult &R) {
    JsonValue V;
    V.K = JsonValue::Kind::Int;
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    size_t DigitsStart = Pos;
    while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
      ++Pos;
    if (Pos == DigitsStart) {
      fail(R, "malformed number");
      return V;
    }
    bool Fractional = false;
    if (Pos < Text.size() && Text[Pos] == '.') {
      Fractional = true;
      ++Pos;
      size_t FracStart = Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
      if (Pos == FracStart) {
        fail(R, "malformed number");
        return V;
      }
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      Fractional = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      size_t ExpStart = Pos;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9')
        ++Pos;
      if (Pos == ExpStart) {
        fail(R, "malformed number");
        return V;
      }
    }
    const char *First = Text.data() + Start;
    const char *Last = Text.data() + Pos;
    std::from_chars_result Res;
    if (Fractional) {
      V.K = JsonValue::Kind::Double;
      Res = std::from_chars(First, Last, V.D);
    } else {
      Res = std::from_chars(First, Last, V.I);
    }
    if (Res.ec != std::errc() || Res.ptr != Last) {
      Pos = Start;
      fail(R, "number out of range");
    }
    return V;
  }

  std::string parseString(JsonParseResult &R) {
    std::string Out;
    ++Pos; // opening quote
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return Out;
      if (C == '\\') {
        if (Pos >= Text.size())
          break;
        char E = Text[Pos++];
        switch (E) {
        case '"':
          Out += '"';
          break;
        case '\\':
          Out += '\\';
          break;
        case '/':
          Out += '/';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'u': {
          if (Pos + 4 > Text.size()) {
            fail(R, "truncated \\u escape");
            return Out;
          }
          unsigned Code = 0;
          for (int I = 0; I < 4; ++I) {
            char H = Text[Pos++];
            Code <<= 4;
            if (H >= '0' && H <= '9')
              Code |= static_cast<unsigned>(H - '0');
            else if (H >= 'a' && H <= 'f')
              Code |= static_cast<unsigned>(H - 'a' + 10);
            else if (H >= 'A' && H <= 'F')
              Code |= static_cast<unsigned>(H - 'A' + 10);
            else {
              fail(R, "bad hex digit in \\u escape");
              return Out;
            }
          }
          // UTF-8 encode the code point (no surrogate pairing; the
          // writer only emits \u00xx control escapes).
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          fail(R, std::string("unknown escape \\") + E);
          return Out;
        }
      } else {
        Out += C;
      }
    }
    fail(R, "unterminated string");
    return Out;
  }

  JsonValue parseObject(JsonParseResult &R) {
    JsonValue V;
    V.K = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return V;
    }
    while (true) {
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != '"') {
        fail(R, "expected object key");
        return V;
      }
      std::string Key = parseString(R);
      if (!R.success())
        return V;
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != ':') {
        fail(R, "expected ':' after object key");
        return V;
      }
      ++Pos;
      V.Fields[Key] = parseValue(R);
      if (!R.success())
        return V;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Pos < Text.size() && Text[Pos] == '}') {
        ++Pos;
        return V;
      }
      fail(R, "expected ',' or '}' in object");
      return V;
    }
  }

  JsonValue parseArray(JsonParseResult &R) {
    JsonValue V;
    V.K = JsonValue::Kind::Array;
    ++Pos; // '['
    skipSpace();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return V;
    }
    while (true) {
      V.Elems.push_back(parseValue(R));
      if (!R.success())
        return V;
      skipSpace();
      if (Pos < Text.size() && Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Pos < Text.size() && Text[Pos] == ']') {
        ++Pos;
        return V;
      }
      fail(R, "expected ',' or ']' in array");
      return V;
    }
  }

  const std::string &Text;
  size_t Pos = 0;
  unsigned Depth = 0; ///< Containers currently open.
};

} // namespace detail

/// Parses \p Text as one JSON value.
inline JsonParseResult parseJson(const std::string &Text) {
  return detail::JsonParser(Text).run();
}

} // namespace gnt

#endif // GNT_SUPPORT_JSONPARSE_H
