//===- support/Support.h - Misc small utilities ----------------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small utilities shared across the library: unreachable marker, string
/// joining, and integer formatting used by the various printers.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_SUPPORT_H
#define GNT_SUPPORT_SUPPORT_H

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace gnt {

/// Marks a point in the code that must never be reached; aborts with a
/// message if it is.
[[noreturn]] inline void gntUnreachable(const char *Msg) {
  std::fprintf(stderr, "UNREACHABLE executed: %s\n", Msg);
  std::abort();
}

/// Joins the elements of \p Parts with \p Sep.
inline std::string join(const std::vector<std::string> &Parts,
                        const std::string &Sep) {
  std::string R;
  for (size_t I = 0; I < Parts.size(); ++I) {
    if (I)
      R += Sep;
    R += Parts[I];
  }
  return R;
}

/// Appends the decimal form of \p V to \p Out. Independent of the
/// global locale, so cache keys and JSON numbers never depend on it.
inline void appendInt(std::string &Out, long long V) {
  char Buf[24];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), V).ptr;
  Out.append(Buf, End);
}

/// Formats a signed integer as a compact string.
inline std::string itostr(long long V) {
  std::string R;
  appendInt(R, V);
  return R;
}

} // namespace gnt

#endif // GNT_SUPPORT_SUPPORT_H
