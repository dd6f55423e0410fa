#ifndef LUSAIL_SPARQL_PROBE_H_
#define LUSAIL_SPARQL_PROBE_H_

#include <cstdint>
#include <string>

#include "rdf/term.h"
#include "sparql/ast.h"

namespace lusail::sparql {

/// Renders `ASK { s p o . }` for one triple pattern: the probe text of
/// source selection and of a sharded endpoint's routing. The text is
/// also the verdict cache key, so every prober must render it here for
/// verdicts to flow between them.
std::string AskQueryText(const TriplePattern& tp);

/// Parses a COUNT-probe literal as an exact unsigned integer. Plain
/// decimal digit strings (optionally '+'-signed; the form every real
/// endpoint returns) are parsed directly so counts above 2^53 keep full
/// 64-bit precision — going through double would silently round them.
/// Non-integral numeric literals ("1.2e3") fall back to AsDouble with
/// saturation at uint64 max; negative and non-numeric literals parse
/// as 0.
uint64_t ParseCountLiteral(const rdf::Term& term);

/// True when `term` is a literal whose whole lexical form is a finite,
/// unsigned or '+'-signed number ("7", "+7", "1.2e3"): a COUNT cell
/// ParseCountLiteral reads as written. An answer must reject any other
/// cell; an estimate may count it as 0.
bool IsCountLiteral(const rdf::Term& term);

}  // namespace lusail::sparql

#endif  // LUSAIL_SPARQL_PROBE_H_
