//===- analysis/SpecLang.cpp - User-specified analysis specs ----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/SpecLang.h"

#include "support/Support.h"

#include <algorithm>
#include <cctype>

using namespace gnt;

const char *gnt::specUniverseName(SpecUniverse U) {
  switch (U) {
  case SpecUniverse::Items:
    return "items";
  case SpecUniverse::Exprs:
    return "exprs";
  case SpecUniverse::Defs:
    return "defs";
  }
  gntUnreachable("covered switch");
}

BitVector gnt::evalSetExpr(const SpecSetExpr &E, unsigned U,
                           const BitVector &In, const BitVector &Take,
                           const BitVector &Give, const BitVector &Steal) {
  switch (E.K) {
  case SpecSetExpr::Kind::Atom:
    switch (E.Atom) {
    case SpecAtom::In:
      return In;
    case SpecAtom::Take:
      return Take;
    case SpecAtom::Give:
      return Give;
    case SpecAtom::Steal:
      return Steal;
    case SpecAtom::Empty:
      return BitVector(U);
    case SpecAtom::All:
      return BitVector(U, true);
    }
    gntUnreachable("covered switch");
  case SpecSetExpr::Kind::Complement: {
    BitVector V = evalSetExpr(*E.LHS, U, In, Take, Give, Steal);
    V.flip();
    return V;
  }
  case SpecSetExpr::Kind::Union: {
    BitVector V = evalSetExpr(*E.LHS, U, In, Take, Give, Steal);
    V |= evalSetExpr(*E.RHS, U, In, Take, Give, Steal);
    return V;
  }
  case SpecSetExpr::Kind::Intersect: {
    BitVector V = evalSetExpr(*E.LHS, U, In, Take, Give, Steal);
    V &= evalSetExpr(*E.RHS, U, In, Take, Give, Steal);
    return V;
  }
  case SpecSetExpr::Kind::Difference: {
    BitVector V = evalSetExpr(*E.LHS, U, In, Take, Give, Steal);
    V.reset(evalSetExpr(*E.RHS, U, In, Take, Give, Steal));
    return V;
  }
  }
  gntUnreachable("covered switch");
}

//===----------------------------------------------------------------------===//
// Set-expression parsing
//===----------------------------------------------------------------------===//

namespace {

/// Recursive-descent parser over one set expression. Grammar:
///   union     := intersect (('|' | '-') intersect)*   (left assoc)
///   intersect := unary ('&' unary)*
///   unary     := '~' unary | '(' union ')' | atom
/// Each routine may use \p Budget nesting levels and reports in
/// \p Height how many the expression it returns takes: 0 for an atom,
/// one more than the highest operand for an operator or parenthesized
/// group. An operand is parsed with one level less than its operator.
struct ExprParser {
  const std::string &S;
  size_t Pos = 0;
  std::string Error;

  explicit ExprParser(const std::string &S) : S(S) {}

  void skipWs() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool eat(char C) {
    skipWs();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  char peek() {
    skipWs();
    return Pos < S.size() ? S[Pos] : '\0';
  }

  std::unique_ptr<SpecSetExpr> fail(std::string Msg) {
    if (Error.empty())
      Error = std::move(Msg);
    return nullptr;
  }

  std::unique_ptr<SpecSetExpr> tooDeep() {
    return fail("nesting deeper than " + itostr(MaxSpecExprDepth) +
                " levels");
  }

  std::unique_ptr<SpecSetExpr> atom(SpecAtom A) {
    auto E = std::make_unique<SpecSetExpr>();
    E->K = SpecSetExpr::Kind::Atom;
    E->Atom = A;
    return E;
  }

  std::unique_ptr<SpecSetExpr> binary(SpecSetExpr::Kind K,
                                      std::unique_ptr<SpecSetExpr> L,
                                      std::unique_ptr<SpecSetExpr> R) {
    auto E = std::make_unique<SpecSetExpr>();
    E->K = K;
    E->LHS = std::move(L);
    E->RHS = std::move(R);
    return E;
  }

  std::unique_ptr<SpecSetExpr> parseUnary(unsigned Budget, unsigned &Height) {
    Height = 0;
    if (eat('~')) {
      if (Budget == 0)
        return tooDeep();
      auto Sub = parseUnary(Budget - 1, Height);
      if (!Sub)
        return nullptr;
      ++Height;
      auto E = std::make_unique<SpecSetExpr>();
      E->K = SpecSetExpr::Kind::Complement;
      E->LHS = std::move(Sub);
      return E;
    }
    if (eat('(')) {
      if (Budget == 0)
        return tooDeep();
      auto Sub = parseUnion(Budget - 1, Height);
      if (!Sub)
        return nullptr;
      if (!eat(')'))
        return fail("missing `)`");
      ++Height;
      return Sub;
    }
    skipWs();
    size_t Start = Pos;
    while (Pos < S.size() &&
           std::isalpha(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    std::string Word = S.substr(Start, Pos - Start);
    if (Word == "in")
      return atom(SpecAtom::In);
    if (Word == "take")
      return atom(SpecAtom::Take);
    if (Word == "give")
      return atom(SpecAtom::Give);
    if (Word == "steal")
      return atom(SpecAtom::Steal);
    if (Word == "empty")
      return atom(SpecAtom::Empty);
    if (Word == "all")
      return atom(SpecAtom::All);
    if (Word.empty())
      return fail(Pos < S.size()
                      ? "unexpected `" + std::string(1, S[Pos]) + "`"
                      : "expression ends early");
    return fail("unknown atom `" + Word +
                "` (expected in/take/give/steal/empty/all)");
  }

  std::unique_ptr<SpecSetExpr> parseIntersect(unsigned Budget,
                                              unsigned &Height) {
    auto L = parseUnary(Budget, Height);
    while (L && peek() == '&') {
      // The chain so far becomes the left operand of a new node.
      if (Height >= Budget)
        return tooDeep();
      eat('&');
      unsigned RHeight = 0;
      auto R = parseUnary(Budget - 1, RHeight);
      if (!R)
        return nullptr;
      Height = std::max(Height, RHeight) + 1;
      L = binary(SpecSetExpr::Kind::Intersect, std::move(L), std::move(R));
    }
    return L;
  }

  std::unique_ptr<SpecSetExpr> parseUnion(unsigned Budget, unsigned &Height) {
    auto L = parseIntersect(Budget, Height);
    while (L) {
      char C = peek();
      if (C != '|' && C != '-')
        break;
      if (Height >= Budget)
        return tooDeep();
      eat(C);
      unsigned RHeight = 0;
      auto R = parseIntersect(Budget - 1, RHeight);
      if (!R)
        return nullptr;
      Height = std::max(Height, RHeight) + 1;
      L = binary(C == '|' ? SpecSetExpr::Kind::Union
                          : SpecSetExpr::Kind::Difference,
                 std::move(L), std::move(R));
    }
    return L;
  }

  /// Parses the whole string; trailing garbage is an error.
  std::unique_ptr<SpecSetExpr> parseAll() {
    unsigned Height = 0;
    auto E = parseUnion(MaxSpecExprDepth, Height);
    if (!E)
      return nullptr;
    skipWs();
    if (Pos != S.size())
      return fail("trailing `" + S.substr(Pos) + "`");
    return E;
  }
};

/// True when \p E mentions the `in` atom (illegal in gen/kill sugar).
bool mentionsIn(const SpecSetExpr &E) {
  if (E.K == SpecSetExpr::Kind::Atom)
    return E.Atom == SpecAtom::In;
  if (E.LHS && mentionsIn(*E.LHS))
    return true;
  return E.RHS && mentionsIn(*E.RHS);
}

Diagnostic specError(std::string Message, std::string FixHint = {}) {
  Diagnostic D;
  D.Severity = DiagSeverity::Error;
  D.Check = CheckId::Spec;
  D.Message = std::move(Message);
  D.FixHint = std::move(FixHint);
  return D;
}

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\r");
  if (B == std::string::npos)
    return std::string();
  size_t E = S.find_last_not_of(" \t\r");
  return S.substr(B, E - B + 1);
}

} // namespace

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

SpecParseResult gnt::parseAnalysisSpec(const std::string &Text) {
  SpecParseResult R;
  AnalysisSpec Spec;
  Spec.Text = Text;

  std::vector<std::string> Seen;
  auto SeenBefore = [&](const std::string &Key) {
    for (const std::string &K : Seen)
      if (K == Key)
        return true;
    Seen.push_back(Key);
    return false;
  };

  size_t LineNo = 0, Pos = 0;
  bool Bad = false;
  auto Err = [&](std::string Message, std::string FixHint = {}) {
    R.Diags.add(specError("line " + itostr(static_cast<long long>(LineNo)) +
                              ": " + std::move(Message),
                          std::move(FixHint)));
    Bad = true;
  };

  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    ++LineNo;
    size_t Hash = Line.find('#');
    if (Hash != std::string::npos)
      Line = Line.substr(0, Hash);
    Line = trim(Line);
    if (Line.empty()) {
      if (End == Text.size())
        break;
      continue;
    }

    size_t Sp = Line.find_first_of(" \t");
    std::string Key = Sp == std::string::npos ? Line : Line.substr(0, Sp);
    std::string Value =
        Sp == std::string::npos ? std::string() : trim(Line.substr(Sp + 1));

    auto ParseExpr = [&](const char *What) -> std::unique_ptr<SpecSetExpr> {
      ExprParser P(Value);
      auto E = P.parseAll();
      if (!E)
        Err("transfer-syntax: bad " + std::string(What) + " expression: " +
                P.Error,
            "atoms are in/take/give/steal/empty/all; operators ~ & | -");
      return E;
    };

    if (Key == "analysis") {
      if (SeenBefore(Key)) {
        Err("duplicate-key: `analysis` stated twice");
        continue;
      }
      bool Ok = !Value.empty();
      for (char C : Value)
        Ok &= std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
              C == '-';
      if (!Ok) {
        Err("bad-value: analysis name `" + Value +
            "` (use letters, digits, `_`, `-`)");
        continue;
      }
      Spec.Name = Value;
    } else if (Key == "universe") {
      if (SeenBefore(Key)) {
        Err("duplicate-key: `universe` stated twice");
        continue;
      }
      if (Value == "items")
        Spec.Universe = SpecUniverse::Items;
      else if (Value == "exprs")
        Spec.Universe = SpecUniverse::Exprs;
      else if (Value == "defs")
        Spec.Universe = SpecUniverse::Defs;
      else
        Err("unknown-universe: `" + Value + "`",
            "universe must be items, exprs or defs");
    } else if (Key == "direction") {
      if (SeenBefore(Key)) {
        Err("duplicate-key: `direction` stated twice");
        continue;
      }
      if (Value == "forward")
        Spec.Direction = FlowDirection::Forward;
      else if (Value == "backward")
        Spec.Direction = FlowDirection::Backward;
      else
        Err("bad-value: direction `" + Value + "` (forward or backward)");
    } else if (Key == "confluence") {
      if (SeenBefore(Key)) {
        Err("duplicate-key: `confluence` stated twice");
        continue;
      }
      if (Value == "any")
        Spec.Meet = Confluence::Any;
      else if (Value == "all")
        Spec.Meet = Confluence::All;
      else
        Err("bad-value: confluence `" + Value + "` (any or all)");
    } else if (Key == "boundary") {
      if (SeenBefore(Key)) {
        Err("duplicate-key: `boundary` stated twice");
        continue;
      }
      if (Value == "empty")
        Spec.BoundaryAll = false;
      else if (Value == "all")
        Spec.BoundaryAll = true;
      else {
        Err("bad-value: boundary `" + Value + "` (empty or all)");
        continue;
      }
      Spec.BoundarySet = true;
    } else if (Key == "edges") {
      if (SeenBefore(Key)) {
        Err("duplicate-key: `edges` stated twice");
        continue;
      }
      if (Value == "real")
        Spec.IncludeSyntheticEdges = false;
      else if (Value == "all")
        Spec.IncludeSyntheticEdges = true;
      else
        Err("bad-value: edges `" + Value + "` (real or all)");
    } else if (Key == "start") {
      if (SeenBefore(Key)) {
        Err("duplicate-key: `start` stated twice");
        continue;
      }
      if (Value == "entry")
        Spec.Start = AnalysisSpec::StartAnchor::Entry;
      else if (Value == "exit")
        Spec.Start = AnalysisSpec::StartAnchor::Exit;
      else
        Err("bad-value: start `" + Value + "` (entry or exit)");
    } else if (Key == "gen" || Key == "kill") {
      if (SeenBefore(Key)) {
        Err("duplicate-key: `" + Key + "` stated twice");
        continue;
      }
      if (Spec.Transfer) {
        Err("duplicate-key: `" + Key +
            "` conflicts with an explicit `transfer` line");
        continue;
      }
      auto E = ParseExpr(Key.c_str());
      if (!E)
        continue;
      if (mentionsIn(*E)) {
        Err("transfer-syntax: `in` is not allowed in " + Key + " sugar",
            "use `transfer out = ...` for templates that read `in`");
        continue;
      }
      (Key == "gen" ? Spec.GenExpr : Spec.KillExpr) = std::move(E);
    } else if (Key == "transfer") {
      if (SeenBefore(Key)) {
        Err("duplicate-key: `transfer` stated twice");
        continue;
      }
      if (Spec.GenExpr || Spec.KillExpr) {
        Err("duplicate-key: `transfer` conflicts with gen/kill sugar");
        continue;
      }
      // Expect `out = EXPR`.
      size_t Eq = Value.find('=');
      std::string Head =
          Eq == std::string::npos ? Value : trim(Value.substr(0, Eq));
      if (Eq == std::string::npos || Head != "out") {
        Err("transfer-syntax: expected `transfer out = <set expression>`");
        continue;
      }
      Value = trim(Value.substr(Eq + 1));
      auto E = ParseExpr("transfer");
      if (E)
        Spec.Transfer = std::move(E);
    } else {
      Err("unknown-key: `" + Key + "`",
          "keys are analysis, universe, direction, confluence, gen, kill, "
          "transfer, boundary, edges, start");
    }
    if (End == Text.size())
      break;
  }

  if (!Spec.Transfer && !Spec.GenExpr && !Spec.KillExpr) {
    R.Diags.add(specError(
        "missing-transfer: spec has no transfer function",
        "add `gen <expr>`/`kill <expr>` or `transfer out = <expr>`"));
    Bad = true;
  }

  if (!Bad)
    R.Spec = std::move(Spec);
  return R;
}

//===----------------------------------------------------------------------===//
// Linting
//===----------------------------------------------------------------------===//

namespace {

/// Evaluates the spec's effective transfer on a 1-bit universe.
bool eval1(const AnalysisSpec &Spec, bool In, bool Take, bool Give,
           bool Steal) {
  BitVector VIn(1, In), VTake(1, Take), VGive(1, Give), VSteal(1, Steal);
  if (Spec.Transfer)
    return evalSetExpr(*Spec.Transfer, 1, VIn, VTake, VGive, VSteal).test(0);
  // Sugar: Out = (In - Kill) | Gen, with absent sides empty.
  bool Kill = Spec.KillExpr &&
              evalSetExpr(*Spec.KillExpr, 1, VIn, VTake, VGive, VSteal)
                  .test(0);
  bool Gen = Spec.GenExpr &&
             evalSetExpr(*Spec.GenExpr, 1, VIn, VTake, VGive, VSteal)
                 .test(0);
  return (In && !Kill) || Gen;
}

} // namespace

DiagnosticSet gnt::lintAnalysisSpec(const AnalysisSpec &Spec) {
  DiagnosticSet Diags;

  // The transfer template is lane-wise over four boolean atoms, so
  // monotonicity is decidable by exhaustion: for each of the eight
  // (take, give, steal) corners, raising `in` must never lower the
  // output. Gen/kill sugar cannot mention `in` and is monotone by
  // construction, but is checked anyway — it is eight cheap
  // evaluations, and the uniformity keeps this lint oblivious to how
  // the transfer was written.
  for (unsigned Corner = 0; Corner != 8; ++Corner) {
    bool Take = Corner & 1, Give = Corner & 2, Steal = Corner & 4;
    bool AtBottom = eval1(Spec, false, Take, Give, Steal);
    bool AtTop = eval1(Spec, true, Take, Give, Steal);
    if (AtBottom && !AtTop) {
      Diags.add(specError(
          std::string("non-monotone: transfer maps in=0 to 1 but in=1 to 0 "
                      "at take=") +
              (Take ? "1" : "0") + " give=" + (Give ? "1" : "0") +
              " steal=" + (Steal ? "1" : "0"),
          "a monotone template never drops a fact because more arrived; "
          "remove the `~in`-style negation"));
      break;
    }
  }

  if (Spec.Meet == Confluence::All && !Spec.BoundarySet)
    Diags.add(specError(
        "all-confluence-no-boundary: all-paths confluence without an "
        "explicit boundary",
        "state `boundary empty` or `boundary all`: interior nodes start "
        "at top, so the boundary decides everything reachable from it"));

  if (Spec.Start == AnalysisSpec::StartAnchor::Entry &&
      Spec.Direction == FlowDirection::Backward)
    Diags.add(specError(
        "start-direction-mismatch: `start entry` with backward flow",
        "backward problems anchor their boundary at the exit"));
  if (Spec.Start == AnalysisSpec::StartAnchor::Exit &&
      Spec.Direction == FlowDirection::Forward)
    Diags.add(specError(
        "start-direction-mismatch: `start exit` with forward flow",
        "forward problems anchor their boundary at the entry"));

  return Diags;
}

SpecParseResult gnt::parseAndLintAnalysisSpec(const std::string &Text) {
  SpecParseResult R = parseAnalysisSpec(Text);
  if (R.Spec)
    R.Diags.append(lintAnalysisSpec(*R.Spec));
  return R;
}

//===----------------------------------------------------------------------===//
// Built-in specs
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &
gnt::builtinAnalysisSpecs() {
  static const std::vector<std::pair<std::string, std::string>> Builtins = {
      {"liveness",
       "# An item is live where it is consumed downstream before being\n"
       "# produced for free or invalidated.\n"
       "analysis liveness\n"
       "universe items\n"
       "direction backward\n"
       "confluence any\n"
       "gen take\n"
       "kill give | steal\n"
       "boundary empty\n"
       "start exit\n"},
      {"availability",
       "# An item is available where it was produced for free on every\n"
       "# path and not invalidated since.\n"
       "analysis availability\n"
       "universe items\n"
       "direction forward\n"
       "confluence all\n"
       "gen give\n"
       "kill steal\n"
       "boundary empty\n"
       "start entry\n"},
      {"very-busy",
       "# An expression is very busy where every path evaluates it\n"
       "# before any operand changes.\n"
       "analysis very-busy\n"
       "universe exprs\n"
       "direction backward\n"
       "confluence all\n"
       "gen take\n"
       "kill steal\n"
       "boundary empty\n"
       "start exit\n"},
      {"reaching",
       "# A definition site reaches the nodes downstream of it until the\n"
       "# item is redefined elsewhere.\n"
       "analysis reaching\n"
       "universe defs\n"
       "direction forward\n"
       "confluence any\n"
       "gen give\n"
       "kill steal\n"
       "boundary empty\n"
       "start entry\n"},
  };
  return Builtins;
}

const char *gnt::builtinAnalysisSpecText(const std::string &Name) {
  for (const auto &[BName, Text] : builtinAnalysisSpecs())
    if (BName == Name)
      return Text.c_str();
  return nullptr;
}
