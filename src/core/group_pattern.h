#ifndef LUSAIL_CORE_GROUP_PATTERN_H_
#define LUSAIL_CORE_GROUP_PATTERN_H_

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/dictionary.h"
#include "core/id_table.h"
#include "sparql/ast.h"

namespace lusail::core {

/// The blocks of one group graph pattern that run at the federator after
/// the group's BGP: whatever the caller's BGP strategy did not apply
/// itself. Pointers into the parsed query, which must outlive the tail.
struct GroupTail {
  std::vector<const sparql::ValuesClause*> values;
  std::vector<const std::vector<sparql::GraphPattern>*> unions;
  std::vector<const sparql::GraphPattern*> optionals;
  std::vector<const sparql::Expr*> filters;
  std::vector<const sparql::ExistsFilter*> exists;

  /// SPARQL's LeftJoin(rows, body, condition) for an OPTIONAL whose
  /// FILTERs read a variable its triples do not bind, such as
  /// `OPTIONAL { ?x :mail ?e FILTER(?e != ?n) }` over an enclosing ?n:
  /// those FILTERs are the condition, checked on each joined pair, and
  /// `body` is the OPTIONAL without them, evaluated on its own.
  struct LeftJoin {
    sparql::GraphPattern body;
    std::vector<const sparql::Expr*> condition;
  };
  /// Keyed by the OPTIONAL in `optionals`; an OPTIONAL whose FILTERs all
  /// read triple-bound variables has no entry. Shared, so a body's
  /// address survives copies and moves of the tail.
  std::map<const sparql::GraphPattern*, std::shared_ptr<const LeftJoin>>
      left_joins;

  /// Every block of `group` after its triples, every filter residual.
  /// Callers drop what their BGP strategy pushed down.
  static GroupTail Of(const sparql::GraphPattern& group);

  /// The group `nested` evaluates for the OPTIONAL `opt`: `opt` itself,
  /// or its left-join body.
  const sparql::GraphPattern& OptionalBody(
      const sparql::GraphPattern& opt) const;

  bool empty() const {
    return values.empty() && unions.empty() && optionals.empty() &&
           filters.empty() && exists.empty();
  }
};

/// Evaluates one nested group (a UNION alternative, an OPTIONAL body, an
/// EXISTS body) on the caller's own BGP strategy, recursing into the
/// combiner for the nested group's tail.
using NestedGroupEval =
    std::function<Result<IdTable>(const sparql::GraphPattern& block)>;

/// Applies `tail` to the group's BGP solutions `bgp`, in the order
/// sparql::Evaluator evaluates a group: VALUES joins, UNION chains
/// (joined with the union of their alternatives), OPTIONAL left joins
/// (under their GroupTail::LeftJoin condition, if any), residual
/// FILTERs, then FILTER [NOT] EXISTS as an (anti-)semi-join. A
/// group with no triples passes UnitTable() as `bgp`. Every join (VALUES,
/// UNION, OPTIONAL) runs core::JoinIds over `pool` and `partitions`, so
/// it is range-partitioned when `pool` is non-null and the join is large;
/// `cancel`, when non-null, is polled inside each join and checked after
/// it.
///
/// Nested groups are evaluated once, on their own, through `nested`, and
/// then joined; the oracle instead evaluates them once per solution,
/// seeded with its bindings. The two agree unless the nested group reads
/// a variable of the solutions that it does not bind itself (a
/// correlated FILTER of a UNION alternative or EXISTS body, or a nested
/// OPTIONAL / EXISTS over such a variable); an OPTIONAL's FILTERs are
/// its left-join condition instead. Those nested groups are refused with
/// kUnsupported rather than answered wrong. Once the solutions are empty
/// no nested group is evaluated.
Result<IdTable> CombineGroup(IdTable bgp, const GroupTail& tail,
                             const NestedGroupEval& nested,
                             TermDictionary* dict, ThreadPool* pool = nullptr,
                             size_t partitions = 1,
                             const CancelToken* cancel = nullptr);

/// The unit table: one solution binding nothing, the BGP of a group with
/// no triples.
IdTable UnitTable();

}  // namespace lusail::core

#endif  // LUSAIL_CORE_GROUP_PATTERN_H_
