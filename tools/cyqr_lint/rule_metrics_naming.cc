#include <algorithm>

#include "rules.h"

namespace cyqr_lint {

namespace {

/// Known unit suffixes; mirrors kUnitSuffixes in src/obs/metrics.cc (the
/// linter is standalone and cannot link cyqr_obs). "per_sec" is handled
/// separately because it spans two segments.
const char* const kUnits[] = {
    "total", "millis", "micros", "seconds", "bytes", "tokens",
    "ratio", "count",  "state",  "norm",    "value",
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Mirror of cyqr::IsValidMetricName: cyqr_<layer>_<name>_<unit>,
/// lowercase [a-z0-9_], at least four segments, known unit suffix.
bool ValidName(const std::string& name) {
  if (name.rfind("cyqr_", 0) != 0) return false;
  if (name.back() == '_' || name.find("__") != std::string::npos) {
    return false;
  }
  for (char c : name) {
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  if (std::count(name.begin(), name.end(), '_') < 3) return false;
  if (EndsWith(name, "_per_sec")) return true;
  const size_t last = name.rfind('_');
  const std::string unit = name.substr(last + 1);
  for (const char* known : kUnits) {
    if (unit == known) return true;
  }
  return false;
}

/// Mirror of cyqr::IsValidFlightEventName: `<layer>.<event>` — lowercase
/// [a-z0-9_] segments, at least two, separated by single dots.
bool ValidFlightEventName(const std::string& name) {
  if (name.empty()) return false;
  int segments = 1;
  size_t segment_len = 0;
  for (const char c : name) {
    if (c == '.') {
      if (segment_len == 0) return false;  // Leading or doubled dot.
      ++segments;
      segment_len = 0;
    } else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
               c == '_') {
      ++segment_len;
    } else {
      return false;
    }
  }
  return segment_len > 0 && segments >= 2;
}

/// Enforces the instrument naming convention (DESIGN.md "Observability")
/// at MetricsRegistry call sites — the first argument of GetCounter /
/// GetGauge / GetHistogram, when it is a string literal, must be a valid
/// `cyqr_<layer>_<name>_<unit>` name — and the flight-recorder convention
/// at InternName call sites, whose literal must be a `<layer>.<event>`
/// dotted name. Names built at runtime, including a literal concatenated
/// with `+`, are invisible to the lexer and are left to the registry's /
/// recorder's own CYQR_CHECK.
class MetricsNamingRule : public Rule {
 public:
  const char* name() const override { return "metrics-naming"; }

  void Check(const ParsedFile& file, const LintContext& /*ctx*/,
             std::vector<Diagnostic>* out) const override {
    const std::vector<Token>& toks = file.lex.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != TokKind::kIdent) continue;
      const std::string& t = toks[i].text;
      const bool is_metric =
          t == "GetCounter" || t == "GetGauge" || t == "GetHistogram";
      const bool is_flight = t == "InternName";
      if (!is_metric && !is_flight) continue;
      // Member call only (`registry.Get*` / `recorder.InternName`): a free
      // function that happens to share the name is not a registry.
      if (!(i >= 1 &&
            (IsPunct(toks, i - 1, ".") || IsPunct(toks, i - 1, "->")))) {
        continue;
      }
      if (!IsPunct(toks, i + 1, "(") || i + 2 >= toks.size() ||
          toks[i + 2].kind != TokKind::kString) {
        continue;
      }
      // `"cyqr_serving_rung_" + outcome + "_total"`: the literal is only
      // a prefix of a name built at runtime.
      if (IsPunct(toks, i + 3, "+")) continue;
      const std::string& literal = toks[i + 2].aux;
      if (is_metric ? ValidName(literal) : ValidFlightEventName(literal)) {
        continue;
      }
      Diagnostic d;
      d.file = file.lex.path;
      d.line = toks[i + 2].line;
      d.rule = name();
      d.message =
          is_metric
              ? "metric name \"" + literal + "\" violates the " +
                    "cyqr_<layer>_<name>_<unit> convention (lowercase " +
                    "[a-z0-9_], >= 4 segments, known unit suffix)"
              : "flight event name \"" + literal + "\" violates the " +
                    "<layer>.<event> convention (lowercase [a-z0-9_] " +
                    "segments, >= 2, separated by single dots)";
      out->push_back(std::move(d));
    }
  }
};

}  // namespace

std::unique_ptr<Rule> MakeMetricsNamingRule() {
  return std::make_unique<MetricsNamingRule>();
}

}  // namespace cyqr_lint
