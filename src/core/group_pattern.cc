#include "core/group_pattern.h"

#include <set>
#include <string>

#include "core/hash_join.h"

namespace lusail::core {

namespace {

/// Variables `block` reads where its own solutions may leave them
/// unbound: those of its FILTERs, OPTIONAL and EXISTS bodies and
/// (recursively) UNION alternatives, minus the variables of its triples.
/// Evaluated seeded with an enclosing solution, such a variable takes
/// that solution's value; evaluated on its own it does not.
std::set<std::string> OpenVars(const sparql::GraphPattern& block) {
  std::set<std::string> open;
  for (const sparql::Expr& f : block.filters) f.CollectVariables(&open);
  for (const sparql::GraphPattern& opt : block.optionals) {
    opt.CollectVariables(&open);
  }
  for (const sparql::ExistsFilter& ef : block.exists_filters) {
    ef.pattern.CollectVariables(&open);
  }
  for (const auto& chain : block.unions) {
    for (const sparql::GraphPattern& alt : chain) {
      std::set<std::string> inner = OpenVars(alt);
      open.insert(inner.begin(), inner.end());
    }
  }
  for (const sparql::TriplePattern& tp : block.triples) {
    for (const std::string& v : tp.VariableNames()) open.erase(v);
  }
  return open;
}

/// A VALUES data block interned into `dict`; UNDEF cells are unbound.
IdTable ValuesTable(const sparql::ValuesClause& values, TermDictionary* dict) {
  IdTable table;
  for (const sparql::Variable& v : values.vars) table.vars.push_back(v.name);
  std::vector<rdf::TermId> ids;
  for (const auto& row : values.rows) {
    ids.clear();
    for (const auto& cell : row) {
      ids.push_back(cell.has_value() ? dict->Intern(*cell)
                                     : rdf::kInvalidTermId);
    }
    table.AppendRow(ids);
  }
  return table;
}

}  // namespace

GroupTail GroupTail::Of(const sparql::GraphPattern& group) {
  GroupTail tail;
  for (const auto& vc : group.values) tail.values.push_back(&vc);
  for (const auto& chain : group.unions) tail.unions.push_back(&chain);
  for (const auto& opt : group.optionals) tail.optionals.push_back(&opt);
  for (const auto& f : group.filters) tail.filters.push_back(&f);
  for (const auto& ef : group.exists_filters) tail.exists.push_back(&ef);
  return tail;
}

Result<IdTable> CombineGroup(IdTable bgp, const GroupTail& tail,
                             const NestedGroupEval& nested,
                             TermDictionary* dict, ThreadPool* pool,
                             size_t partitions, const CancelToken* cancel) {
  IdTable rows = std::move(bgp);
  auto inner_join = [&](const IdTable& right) -> Status {
    rows = ParallelHashJoin(rows, right, pool, partitions, cancel);
    if (cancel != nullptr && cancel->Cancelled()) {
      return cancel->StatusAt("group join");
    }
    return Status::OK();
  };
  auto evaluate = [&](const sparql::GraphPattern& block) -> Result<IdTable> {
    for (const std::string& v : OpenVars(block)) {
      if (rows.VarIndex(v) >= 0) {
        return Status::Unsupported(
            "a nested group reads ?" + v +
            " from its enclosing group (correlated FILTER, OPTIONAL or "
            "EXISTS); the federator evaluates nested groups on their own");
      }
    }
    return nested(block);
  };

  for (const sparql::ValuesClause* vc : tail.values) {
    LUSAIL_RETURN_NOT_OK(inner_join(ValuesTable(*vc, dict)));
  }
  for (const std::vector<sparql::GraphPattern>* chain : tail.unions) {
    if (rows.NumRows() == 0) return rows;
    IdTable unioned;
    for (const sparql::GraphPattern& alt : *chain) {
      LUSAIL_ASSIGN_OR_RETURN(IdTable branch, evaluate(alt));
      AppendUnionIds(&unioned, branch);
    }
    LUSAIL_RETURN_NOT_OK(inner_join(unioned));
  }
  for (const sparql::GraphPattern* opt : tail.optionals) {
    if (rows.NumRows() == 0) return rows;
    LUSAIL_ASSIGN_OR_RETURN(IdTable right, evaluate(*opt));
    rows = JoinIds(rows, right, /*left_outer=*/true);
  }
  for (const sparql::Expr* f : tail.filters) FilterIds(&rows, *f, *dict);
  for (const sparql::ExistsFilter* ef : tail.exists) {
    if (rows.NumRows() == 0) return rows;
    LUSAIL_ASSIGN_OR_RETURN(IdTable body, evaluate(ef->pattern));
    rows = SemiJoinIds(rows, body, ef->negated);
  }
  return rows;
}

IdTable UnitTable() {
  IdTable unit;
  unit.AddEmptyRows(1);
  return unit;
}

}  // namespace lusail::core
