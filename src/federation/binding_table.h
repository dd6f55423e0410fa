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

}  // namespace lusail::fed

#endif  // LUSAIL_FEDERATION_BINDING_TABLE_H_
