#ifndef LUSAIL_FEDERATION_BINDING_TABLE_H_
#define LUSAIL_FEDERATION_BINDING_TABLE_H_

#include "core/dictionary.h"
#include "core/id_table.h"

namespace lusail::fed {

/// The federation-level binding table is the columnar core::IdTable, and
/// the shared dictionary is the sharded, engine-owned core::TermDictionary
/// — ID-space execution replaced the old row-major table and the
/// single-mutex per-query dictionary. Table operators are called as
/// core:: functions (EncodeResultTable, JoinIds, AppendUnionIds, ...).
using SharedDictionary = core::TermDictionary;
using BindingTable = core::IdTable;

/// Natural inner join on all shared variables (cartesian product when the
/// tables share none). Rows with an unbound shared variable use SPARQL
/// compatibility semantics: unbound is compatible with any value. Builds
/// the hash on the smaller side; column order of the result follows the
/// build side, so align by name, not position.
inline BindingTable HashJoin(const BindingTable& left,
                             const BindingTable& right) {
  if (right.NumRows() > left.NumRows()) {
    return core::JoinIds(right, left, /*left_outer=*/false);
  }
  return core::JoinIds(left, right, /*left_outer=*/false);
}

}  // namespace lusail::fed

#endif  // LUSAIL_FEDERATION_BINDING_TABLE_H_
