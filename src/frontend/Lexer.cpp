//===- frontend/Lexer.cpp - FMini lexer ------------------------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include "support/Support.h"

#include <cctype>

using namespace gnt;

static Token::Kind keywordKind(const std::string &S) {
  if (S == "do")
    return Token::Kind::KwDo;
  if (S == "enddo")
    return Token::Kind::KwEnddo;
  if (S == "if")
    return Token::Kind::KwIf;
  if (S == "then")
    return Token::Kind::KwThen;
  if (S == "else")
    return Token::Kind::KwElse;
  if (S == "endif")
    return Token::Kind::KwEndif;
  if (S == "goto")
    return Token::Kind::KwGoto;
  if (S == "continue")
    return Token::Kind::KwContinue;
  if (S == "distribute")
    return Token::Kind::KwDistribute;
  if (S == "array")
    return Token::Kind::KwArray;
  return Token::Kind::Ident;
}

std::vector<Token> gnt::lex(const std::string &Source,
                            std::vector<std::string> &Errors) {
  std::vector<Token> Toks;
  unsigned Line = 1, Col = 1;
  bool LineStart = true;
  size_t I = 0, E = Source.size();

  auto push = [&](Token::Kind K, unsigned TokCol) {
    Token T;
    T.TheKind = K;
    T.Loc = {Line, TokCol};
    T.AtLineStart = LineStart;
    LineStart = false;
    Toks.push_back(T);
    return &Toks.back();
  };

  while (I < E) {
    char C = Source[I];
    unsigned TokCol = Col;

    if (C == '\n') {
      // Collapse runs of blank lines into a single Newline token.
      if (!Toks.empty() && Toks.back().TheKind != Token::Kind::Newline)
        push(Token::Kind::Newline, TokCol);
      ++I;
      ++Line;
      Col = 1;
      LineStart = true;
      continue;
    }
    if (C == ' ' || C == '\t' || C == '\r') {
      ++I;
      ++Col;
      continue;
    }
    if (C == '!') {
      while (I < E && Source[I] != '\n')
        ++I;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      long long V = 0;
      bool InRange = true;
      size_t Start = I;
      while (I < E && std::isdigit(static_cast<unsigned char>(Source[I]))) {
        InRange = InRange && !__builtin_mul_overflow(V, 10, &V) &&
                  !__builtin_add_overflow(V, Source[I] - '0', &V);
        ++I;
      }
      if (!InRange) {
        Errors.push_back("line " + itostr(Line) +
                         ": integer literal out of range");
        V = 0; // Parsing goes on over a placeholder without new errors.
      }
      Col += static_cast<unsigned>(I - Start);
      push(Token::Kind::Number, TokCol)->Value = V;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < E && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        ++I;
      std::string Text = Source.substr(Start, I - Start);
      Col += static_cast<unsigned>(I - Start);
      Token *T = push(keywordKind(Text), TokCol);
      T->Text = Text;
      continue;
    }

    auto twoChar = [&](char Next, Token::Kind K2, Token::Kind K1) {
      if (I + 1 < E && Source[I + 1] == Next) {
        push(K2, TokCol);
        I += 2;
        Col += 2;
      } else {
        push(K1, TokCol);
        ++I;
        ++Col;
      }
    };

    switch (C) {
    case '(':
      push(Token::Kind::LParen, TokCol);
      ++I;
      ++Col;
      break;
    case ')':
      push(Token::Kind::RParen, TokCol);
      ++I;
      ++Col;
      break;
    case ',':
      push(Token::Kind::Comma, TokCol);
      ++I;
      ++Col;
      break;
    case '+':
      push(Token::Kind::Plus, TokCol);
      ++I;
      ++Col;
      break;
    case '-':
      push(Token::Kind::Minus, TokCol);
      ++I;
      ++Col;
      break;
    case '*':
      push(Token::Kind::Star, TokCol);
      ++I;
      ++Col;
      break;
    case '/':
      // Fortran-style `/=` is "not equal"; a bare `/` is division.
      twoChar('=', Token::Kind::Ne, Token::Kind::Slash);
      break;
    case '<':
      twoChar('=', Token::Kind::Le, Token::Kind::Lt);
      break;
    case '>':
      twoChar('=', Token::Kind::Ge, Token::Kind::Gt);
      break;
    case '=':
      twoChar('=', Token::Kind::EqEq, Token::Kind::Assign);
      break;
    default:
      Errors.push_back("line " + itostr(Line) + ": unexpected character '" +
                       std::string(1, C) + "'");
      ++I;
      ++Col;
      break;
    }
  }

  if (!Toks.empty() && Toks.back().TheKind != Token::Kind::Newline) {
    Token T;
    T.TheKind = Token::Kind::Newline;
    T.Loc = {Line, Col};
    Toks.push_back(T);
  }
  Token Eof;
  Eof.TheKind = Token::Kind::Eof;
  Eof.Loc = {Line, Col};
  Toks.push_back(Eof);
  return Toks;
}
