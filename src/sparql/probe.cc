#include "sparql/probe.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace lusail::sparql {

std::string AskQueryText(const TriplePattern& tp) {
  return "ASK { " + tp.ToString() + " . }";
}

uint64_t ParseCountLiteral(const rdf::Term& term) {
  const std::string& lex = term.lexical();
  // Fast path: a plain decimal integer (optionally '+'-signed), which is
  // what COUNT(*) yields everywhere. strtoull keeps all 64 bits where a
  // double round-trip would round above 2^53.
  size_t start = (!lex.empty() && lex[0] == '+') ? 1 : 0;
  bool all_digits = lex.size() > start;
  for (size_t i = start; i < lex.size(); ++i) {
    if (lex[i] < '0' || lex[i] > '9') {
      all_digits = false;
      break;
    }
  }
  if (all_digits) {
    errno = 0;
    char* end = nullptr;
    unsigned long long value = std::strtoull(lex.c_str() + start, &end, 10);
    if (errno == ERANGE) return std::numeric_limits<uint64_t>::max();
    if (end == lex.c_str() + lex.size()) return static_cast<uint64_t>(value);
  }
  // Fallback: scientific/decimal forms ("1.2e3") via double, saturating
  // instead of invoking the undefined negative/overflow casts.
  double d = term.AsDouble();
  if (!(d > 0.0)) return 0;  // NaN and negatives count as zero rows.
  if (d >= 18446744073709551615.0) return std::numeric_limits<uint64_t>::max();
  return static_cast<uint64_t>(d);
}

bool IsCountLiteral(const rdf::Term& term) {
  if (!term.is_literal()) return false;
  const std::string& lex = term.lexical();
  // strtod would skip leading blanks and accept a sign.
  if (lex.empty() || lex[0] == '-' ||
      std::isspace(static_cast<unsigned char>(lex[0]))) {
    return false;
  }
  char* end = nullptr;
  double value = std::strtod(lex.c_str(), &end);
  return end == lex.c_str() + lex.size() && std::isfinite(value);
}

}  // namespace lusail::sparql
