//===- frontend/Parser.h - FMini recursive descent parser ------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses FMini source into a Program. The grammar:
///
/// \code
///   program  := line*
///   line     := [LABEL] stmt NEWLINE
///   stmt     := 'distribute' ident (',' ident)*
///             | 'array' ident (',' ident)*
///             | 'do' ident '=' expr ',' expr NEWLINE line* 'enddo'
///             | 'if' '(' expr ')' 'then' NEWLINE line*
///                   ['else' NEWLINE line*] 'endif'
///             | 'if' '(' expr ')' 'goto' NUMBER
///             | 'goto' NUMBER
///             | 'continue'
///             | lvalue '=' expr
/// \endcode
///
/// Names become ArrayRefExpr when declared via `array`/`distribute` or
/// first used subscripted on an assignment left-hand side; undeclared
/// parenthesized names in expressions are opaque intrinsic calls (e.g.
/// `test(i)` in the paper's Figure 11).
///
//===----------------------------------------------------------------------===//

#ifndef GNT_FRONTEND_PARSER_H
#define GNT_FRONTEND_PARSER_H

#include "ir/Ast.h"

#include <string>
#include <vector>

namespace gnt {

/// Result of a parse: the program plus any diagnostics.
struct ParseResult {
  Program Prog;
  std::vector<std::string> Errors;

  bool success() const { return Errors.empty(); }
};

/// Deepest nesting parseProgram accepts. A statement's level is the
/// number of do/if bodies around it; within a statement, every unary
/// minus, parenthesized group (grouping, call arguments, subscript) and
/// binary operator adds a level above its operands, so a
/// left-associative chain `1+1+...` nests one level per operator.
/// Deeper input gets one "nesting deeper than" error, which keeps every
/// recursive walk over the AST far from the stack limit.
constexpr unsigned MaxNestingDepth = 256;

/// Parses FMini \p Source.
ParseResult parseProgram(const std::string &Source);

} // namespace gnt

#endif // GNT_FRONTEND_PARSER_H
