#include "core/group_pattern.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>

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

/// SPARQL's LeftJoin(rows, right, condition): each row of `rows` with
/// its compatible rows of `right` whose joined pair passes every
/// `condition` filter, or alone, right-only variables unbound, when no
/// pair does. The passing pairs come first, then the rows left alone.
/// Once `cancel` fires the result is empty; the caller checks the token.
IdTable LeftJoinIf(const IdTable& rows, const IdTable& right,
                   const std::vector<const sparql::Expr*>& condition,
                   const TermDictionary& dict, ThreadPool* pool,
                   size_t partitions, const CancelToken* cancel) {
  // Each left row carries its index in a column no SPARQL variable can
  // name, so the pairs that pass tell which left rows matched.
  constexpr char kRowTag[] = " row";
  std::vector<std::string> vars = rows.vars;
  vars.push_back(kRowTag);
  std::vector<std::vector<rdf::TermId>> cols;
  for (size_t c = 0; c < rows.NumVars(); ++c) cols.push_back(rows.Column(c));
  cols.emplace_back(rows.NumRows());
  std::iota(cols.back().begin(), cols.back().end(), rdf::TermId{0});
  IdTable tagged =
      IdTable::FromColumns(std::move(vars), std::move(cols), rows.NumRows());

  IdTable pairs = JoinIds(tagged, right, /*left_outer=*/false, pool,
                          partitions, cancel);
  if (cancel != nullptr && cancel->Cancelled()) return IdTable();
  for (const sparql::Expr* f : condition) FilterIds(&pairs, *f, dict);
  std::vector<bool> matched(rows.NumRows(), false);
  const size_t tag = rows.NumVars();  // Left variables come first.
  for (rdf::TermId row : pairs.Column(tag)) matched[row] = true;

  std::vector<std::string> out_vars = pairs.vars;
  out_vars.erase(out_vars.begin() + static_cast<std::ptrdiff_t>(tag));
  IdTable out = ProjectIds(pairs, out_vars, /*distinct=*/false);
  std::vector<uint32_t> unmatched;
  for (size_t r = 0; r < matched.size(); ++r) {
    if (!matched[r]) unmatched.push_back(static_cast<uint32_t>(r));
  }
  AppendUnionIds(&out, rows.SelectRows(unmatched));
  return out;
}

}  // namespace

GroupTail GroupTail::Of(const sparql::GraphPattern& group) {
  GroupTail tail;
  for (const auto& vc : group.values) tail.values.push_back(&vc);
  for (const auto& chain : group.unions) tail.unions.push_back(&chain);
  for (const auto& opt : group.optionals) {
    tail.optionals.push_back(&opt);
    if (opt.filters.empty()) continue;
    std::set<std::string> bound;
    for (const sparql::TriplePattern& tp : opt.triples) {
      for (const std::string& v : tp.VariableNames()) bound.insert(v);
    }
    std::vector<const sparql::Expr*> condition;
    for (const sparql::Expr& f : opt.filters) {
      std::set<std::string> vars;
      f.CollectVariables(&vars);
      if (!std::includes(bound.begin(), bound.end(), vars.begin(),
                         vars.end())) {
        condition.push_back(&f);
      }
    }
    if (condition.empty()) continue;
    auto left_join = std::make_shared<LeftJoin>();
    left_join->body = opt;
    left_join->body.filters.clear();
    for (const sparql::Expr& f : opt.filters) {
      if (std::find(condition.begin(), condition.end(), &f) ==
          condition.end()) {
        left_join->body.filters.push_back(f);
      }
    }
    left_join->condition = std::move(condition);
    tail.left_joins.emplace(&opt, std::move(left_join));
  }
  for (const auto& f : group.filters) tail.filters.push_back(&f);
  for (const auto& ef : group.exists_filters) tail.exists.push_back(&ef);
  return tail;
}

const sparql::GraphPattern& GroupTail::OptionalBody(
    const sparql::GraphPattern& opt) const {
  auto it = left_joins.find(&opt);
  return it == left_joins.end() ? opt : it->second->body;
}

Result<IdTable> CombineGroup(IdTable bgp, const GroupTail& tail,
                             const NestedGroupEval& nested,
                             TermDictionary* dict, ThreadPool* pool,
                             size_t partitions, const CancelToken* cancel) {
  IdTable rows = std::move(bgp);
  auto join = [&](const IdTable& right, bool left_outer) -> Status {
    rows = JoinIds(rows, right, left_outer, pool, partitions, cancel);
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
    LUSAIL_RETURN_NOT_OK(join(ValuesTable(*vc, dict), /*left_outer=*/false));
  }
  for (const std::vector<sparql::GraphPattern>* chain : tail.unions) {
    if (rows.NumRows() == 0) return rows;
    IdTable unioned;
    for (const sparql::GraphPattern& alt : *chain) {
      LUSAIL_ASSIGN_OR_RETURN(IdTable branch, evaluate(alt));
      AppendUnionIds(&unioned, branch);
    }
    LUSAIL_RETURN_NOT_OK(join(unioned, /*left_outer=*/false));
  }
  for (const sparql::GraphPattern* opt : tail.optionals) {
    if (rows.NumRows() == 0) return rows;
    LUSAIL_ASSIGN_OR_RETURN(IdTable right, evaluate(tail.OptionalBody(*opt)));
    auto left_join = tail.left_joins.find(opt);
    if (left_join == tail.left_joins.end()) {
      LUSAIL_RETURN_NOT_OK(join(right, /*left_outer=*/true));
      continue;
    }
    rows = LeftJoinIf(rows, right, left_join->second->condition, *dict, pool,
                      partitions, cancel);
    if (cancel != nullptr && cancel->Cancelled()) {
      return cancel->StatusAt("group join");
    }
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
