#include "rules.h"

namespace cyqr_lint {

namespace {

class DiscardedStatusRule : public Rule {
 public:
  const char* name() const override { return "discarded-status"; }

  void Check(const ParsedFile& file, const LintContext& ctx,
             std::vector<Diagnostic>* out) const override {
    const std::vector<Token>& toks = file.lex.tokens;
    std::vector<bool> value_use;
    MarkValueUseContexts(toks, &value_use);

    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      if (ctx.status_functions.count(toks[i].text) == 0) continue;
      if (!IsPunct(toks, i + 1, "(")) continue;
      if (value_use[i]) continue;  // Condition or return expression.
      // Exclude declarations/definitions: `Status Save(...)` has a type
      // name directly before the function name, which breaks the "chain
      // then statement boundary" shape below only if the type itself
      // looks like a chain — so explicitly skip when the close paren is
      // followed by anything other than ';' (e.g. '{' of a body).
      const size_t close = MatchForward(toks, i + 1, "(", ")");
      if (close >= toks.size()) continue;

      // The call's result is discarded only when the full statement is
      // nothing but a qualifier chain ending in this call. The chain must
      // strictly alternate separator/identifier (obj.member, ns::Func):
      // an identifier directly before the name means this is a
      // declaration (`Status Save(...)`), not a call.
      size_t s = i;
      while (s >= 2 && toks[s - 1].kind == TokKind::kPunct &&
             (toks[s - 1].text == "::" || toks[s - 1].text == "." ||
              toks[s - 1].text == "->") &&
             toks[s - 2].kind == TokKind::kIdent) {
        s -= 2;
      }
      if (s >= 1 &&
          (IsPunct(toks, s - 1, "?") || IsTernaryColon(toks, s - 1))) {
        // A whole branch of `c ? F() : G()`: discarded only when the
        // conditional itself is an expression statement.
        if (!IsPunct(toks, close + 1, ":") && !IsPunct(toks, close + 1, ";")) {
          continue;
        }
        if (!ConditionalIsStatement(toks, s - 1)) continue;
      } else if (!IsPunct(toks, close + 1, ";") ||
                 !AtStatementBoundary(toks, s)) {
        continue;
      }

      Diagnostic d;
      d.file = file.lex.path;
      d.line = toks[i].line;
      d.rule = name();
      d.message = "result of Status/Result-returning '" + toks[i].text +
                  "' is discarded; check it, propagate it, or cast to "
                  "(void) with justification";
      out->push_back(std::move(d));
    }
  }

 private:
  /// True when the ':' at `c` belongs to a conditional expression: a '?'
  /// precedes it in the same bracket group and statement. Labels, access
  /// specifiers, range-for and initializer lists have none.
  static bool IsTernaryColon(const std::vector<Token>& toks, size_t c) {
    if (!IsPunct(toks, c, ":")) return false;
    int depth = 0;
    int colons = 0;
    for (size_t j = c; j-- > 0;) {
      const Token& t = toks[j];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == ")" || t.text == "]") {
        ++depth;
      } else if (t.text == "(" || t.text == "[") {
        if (depth-- == 0) return false;
      } else if (depth > 0) {
        continue;
      } else if (t.text == ";" || t.text == "{" || t.text == "}") {
        return false;
      } else if (t.text == ":") {
        ++colons;
      } else if (t.text == "?" && colons-- == 0) {
        return true;
      }
    }
    return false;
  }

  /// True when the conditional expression holding the '?' or ':' at `q`
  /// is a statement of its own, so its value (either branch) is dropped.
  /// Any assignment, comma, return, enclosing bracket or braced
  /// initializer before it means the value is used.
  static bool ConditionalIsStatement(const std::vector<Token>& toks,
                                     size_t q) {
    int depth = 0;
    for (size_t j = q; j-- > 0;) {
      const Token& t = toks[j];
      if (t.kind == TokKind::kIdent) {
        if (depth == 0 && (t.text == "return" || t.text == "co_return" ||
                           t.text == "throw" || t.text == "case")) {
          return false;
        }
        continue;
      }
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == ")" || t.text == "]") {
        ++depth;
      } else if (t.text == "(" || t.text == "[") {
        if (depth-- == 0) return false;
      } else if (depth > 0) {
        continue;
      } else if (t.text == ";" || t.text == "}") {
        return true;
      } else if (t.text == "{") {
        // A block opens here unless the brace is an initializer.
        return !(j >= 1 && (IsPunct(toks, j - 1, "=") ||
                            IsPunct(toks, j - 1, ",") ||
                            (toks[j - 1].kind == TokKind::kIdent &&
                             toks[j - 1].text != "else" &&
                             toks[j - 1].text != "do")));
      } else if (t.text == "," ||
                 (t.text.back() == '=' && t.text != "==" && t.text != "!=" &&
                  t.text != "<=" && t.text != ">=")) {
        // Comma, assignment or compound assignment; the comparisons
        // belong to the condition.
        return false;
      }
    }
    return true;
  }

  /// True when a statement can begin at token index `s`.
  static bool AtStatementBoundary(const std::vector<Token>& toks,
                                  size_t s) {
    if (s == 0) return true;
    const Token& prev = toks[s - 1];
    if (prev.kind == TokKind::kDirective) return true;
    if (prev.kind == TokKind::kIdent) {
      return prev.text == "else" || prev.text == "do";
    }
    if (prev.kind != TokKind::kPunct) return false;
    if (prev.text == ";" || prev.text == "{" || prev.text == "}" ||
        prev.text == ":") {
      return true;
    }
    if (prev.text == ")") {
      // A braceless `if (...) Foo();` body: the paren group must be the
      // condition of a control-flow keyword. Anything else — a (void)
      // cast, a C-style cast, a macro call — is not treated as a
      // discard site.
      int depth = 0;
      for (size_t j = s - 1; j > 0; --j) {
        if (IsPunct(toks, j, ")")) ++depth;
        if (IsPunct(toks, j, "(")) {
          if (--depth == 0) {
            const Token& before = toks[j - 1];
            return before.kind == TokKind::kIdent &&
                   (before.text == "if" || before.text == "while" ||
                    before.text == "for");
          }
        }
      }
      return false;
    }
    return false;
  }
};

}  // namespace

void CollectStatusFunctions(const LexedFile& file,
                            std::set<std::string>* names) {
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kIdent) continue;
    size_t after_type = 0;
    if (toks[i].text == "Status") {
      // Optionally qualified: cyqr::Status. A following "::" means this
      // is a qualified call (Status::OK), not a return type.
      after_type = i + 1;
      if (IsPunct(toks, after_type, "::")) continue;
    } else if (toks[i].text == "Result" && IsPunct(toks, i + 1, "<")) {
      // Result<...>: match the template argument list by bracket count
      // (the lexer never fuses ">>", so nesting counts cleanly).
      const size_t close = MatchForward(toks, i + 1, "<", ">");
      if (close >= toks.size()) continue;
      after_type = close + 1;
    } else {
      continue;
    }
    // `Status Name(` / `Result<T> Name(` declares/defines Name.
    if (after_type < toks.size() &&
        toks[after_type].kind == TokKind::kIdent &&
        toks[after_type].text != "operator" &&
        IsPunct(toks, after_type + 1, "(")) {
      names->insert(toks[after_type].text);
    }
  }
}

std::unique_ptr<Rule> MakeDiscardedStatusRule() {
  return std::make_unique<DiscardedStatusRule>();
}

}  // namespace cyqr_lint
