#ifndef LUSAIL_CORE_SOLUTION_MODIFIERS_H_
#define LUSAIL_CORE_SOLUTION_MODIFIERS_H_

#include <cstdint>
#include <optional>

#include "core/dictionary.h"
#include "core/id_table.h"
#include "sparql/ast.h"

namespace lusail::core {

struct GroupTail;  // core/group_pattern.h

/// Applies `query`'s solution modifiers to the joined solutions `rows`,
/// in id space. Every federated path finishes through this one function
/// (the Lusail engine, the FedX / SPLENDID / ANAPSID baselines and the
/// sharded endpoint's gather); sparql::Evaluator keeps its own copy as
/// the independent oracle they are all tested against.
///
///  - ASK: a zero-column table with one row when `rows` is non-empty,
///    no rows otherwise.
///  - COUNT(*) counts rows; COUNT(?v) and COUNT(DISTINCT ?v) count the
///    bound (distinct) cells of ?v. The count literal is interned into
///    `dict` and returned as one cell named by the alias.
///  - SELECT: projection onto EffectiveProjection(), then DISTINCT, then
///    ORDER BY, then the OFFSET/LIMIT window. Without DISTINCT, ORDER BY
///    keys outside the SELECT list ride as hidden trailing columns and
///    are dropped after the window. Under DISTINCT they are not carried
///    (widening the dedup set would change the answer), so such a key
///    orders nothing.
///  - ORDER BY sorts row indices, reading terms by reference from `dict`
///    (no row is decoded). The input position breaks ties, so a bounded
///    top offset+limit sort returns exactly the rows a stable sort plus
///    the window would.
///
/// Callers decode only the returned window.
IdTable FinishSolutions(IdTable rows, const sparql::Query& query,
                        TermDictionary* dict);

/// The number of pattern solutions upstream operators may stop at:
/// offset+limit for a SELECT with LIMIT and no DISTINCT, aggregate or
/// ORDER BY, because then any offset+limit solutions finish to a correct
/// answer. nullopt when every solution is needed. OFFSET itself is never
/// pushed; FinishSolutions applies it once, after the gather.
std::optional<uint64_t> LimitPushdownBound(const sparql::Query& query);

/// Whether a LimitPushdownBound may cap the BGP of a group whose
/// remaining blocks are `tail`: only when none of them can drop a BGP
/// solution. VALUES blocks and UNION chains join, residual FILTERs and
/// EXISTS filter; an OPTIONAL left join keeps every row, so it does not
/// block. (Whether the BGP itself may stop early is the BGP strategy's
/// own rule.)
bool LimitCrossesBgp(const GroupTail& tail);

}  // namespace lusail::core

#endif  // LUSAIL_CORE_SOLUTION_MODIFIERS_H_
