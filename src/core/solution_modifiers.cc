#include "core/solution_modifiers.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/group_pattern.h"
#include "sparql/expr_eval.h"

namespace lusail::core {

namespace {

uint64_t CountSolutions(const IdTable& rows,
                        const sparql::CountAggregate& agg) {
  if (!agg.var.has_value()) return rows.NumRows();
  int idx = rows.VarIndex(agg.var->name);
  if (idx < 0) return 0;
  uint64_t count = 0;
  std::unordered_set<rdf::TermId> seen;
  for (rdf::TermId id : rows.Column(static_cast<size_t>(idx))) {
    if (id == rdf::kInvalidTermId) continue;
    if (agg.distinct) {
      seen.insert(id);
    } else {
      ++count;
    }
  }
  return agg.distinct ? seen.size() : count;
}

/// One ORDER BY key resolved to its column's terms (nullptr = unbound).
struct SortKey {
  std::vector<const rdf::Term*> terms;
  bool descending = false;
};

}  // namespace

IdTable FinishSolutions(IdTable rows, const sparql::Query& query,
                        TermDictionary* dict) {
  if (query.form == sparql::QueryForm::kAsk) {
    IdTable verdict;
    if (rows.NumRows() > 0) verdict.AddEmptyRows(1);
    return verdict;
  }
  if (query.aggregate.has_value()) {
    uint64_t count = CountSolutions(rows, *query.aggregate);
    IdTable out({query.aggregate->alias.name});
    out.AppendRow(
        {dict->Intern(rdf::Term::Integer(static_cast<int64_t>(count)))});
    return out;
  }

  std::vector<std::string> names;
  for (const sparql::Variable& v : query.EffectiveProjection()) {
    names.push_back(v.name);
  }
  const size_t visible = names.size();
  if (!query.distinct) {
    for (const sparql::OrderKey& key : query.order_by) {
      if (std::find(names.begin(), names.end(), key.var.name) == names.end()) {
        names.push_back(key.var.name);
      }
    }
  }
  IdTable table = ProjectIds(rows, names, query.distinct);

  const size_t n = table.NumRows();
  const size_t begin =
      static_cast<size_t>(std::min<uint64_t>(query.offset.value_or(0), n));
  size_t end = n;
  if (query.limit.has_value() && *query.limit < n - begin) {
    end = begin + static_cast<size_t>(*query.limit);
  }

  // Keys naming a column the table lacks order nothing, as in the
  // evaluator.
  std::vector<SortKey> keys;
  for (const sparql::OrderKey& key : query.order_by) {
    int col = table.VarIndex(key.var.name);
    if (col < 0) continue;
    SortKey sort_key;
    sort_key.descending = key.descending;
    sort_key.terms.assign(n, nullptr);
    const std::vector<rdf::TermId>& ids =
        table.Column(static_cast<size_t>(col));
    for (size_t r = 0; r < ids.size(); ++r) {
      if (ids[r] != rdf::kInvalidTermId) {
        sort_key.terms[r] = &dict->term(ids[r]);
      }
    }
    keys.push_back(std::move(sort_key));
  }

  if (keys.empty()) {
    if (begin != 0 || end != n) table = table.Slice(begin, end);
  } else {
    std::vector<uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    auto before = [&keys](uint32_t a, uint32_t b) {
      for (const SortKey& key : keys) {
        const rdf::Term* x = key.terms[a];
        const rdf::Term* y = key.terms[b];
        if (x == y) continue;  // Same id, same term.
        int c = sparql::CompareTermsForOrder(x, y);
        if (c != 0) return key.descending ? c > 0 : c < 0;
      }
      return a < b;
    };
    if (end < n) {
      std::partial_sort(order.begin(), order.begin() + end, order.end(),
                        before);
    } else {
      std::sort(order.begin(), order.end(), before);
    }
    table = table.SelectRows(
        std::vector<uint32_t>(order.begin() + begin, order.begin() + end));
  }

  if (table.NumVars() != visible) {
    names.resize(visible);
    table = ProjectIds(table, names, /*distinct=*/false);
  }
  return table;
}

std::optional<uint64_t> LimitPushdownBound(const sparql::Query& query) {
  if (query.form != sparql::QueryForm::kSelect || query.distinct ||
      query.aggregate.has_value() || !query.order_by.empty() ||
      !query.limit.has_value()) {
    return std::nullopt;
  }
  const uint64_t offset = query.offset.value_or(0);
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  return *query.limit > max - offset ? max : offset + *query.limit;
}

bool LimitCrossesBgp(const GroupTail& tail) {
  return tail.values.empty() && tail.unions.empty() && tail.filters.empty() &&
         tail.exists.empty();
}

}  // namespace lusail::core
