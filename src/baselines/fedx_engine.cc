#include "baselines/fedx_engine.h"

#include <algorithm>
#include <future>
#include <map>
#include <set>
#include <unordered_set>

#include "core/group_pattern.h"
#include "core/solution_modifiers.h"
#include "sparql/serializer.h"

namespace lusail::baselines {

namespace {

using fed::BindingTable;
using sparql::TriplePattern;

std::vector<std::string> OperandVars(
    const std::vector<TriplePattern>& triples) {
  std::vector<std::string> out;
  for (const TriplePattern& tp : triples) {
    for (const std::string& v : tp.VariableNames()) {
      if (std::find(out.begin(), out.end(), v) == out.end()) out.push_back(v);
    }
  }
  return out;
}

std::string OperandSparql(const std::vector<TriplePattern>& triples,
                          const std::vector<sparql::Expr>& filters,
                          const std::vector<std::string>& projection,
                          const sparql::ValuesClause* values) {
  sparql::Query q;
  q.form = sparql::QueryForm::kSelect;
  for (const std::string& v : projection) {
    q.projection.push_back(sparql::Variable{v});
  }
  if (q.projection.empty()) q.select_all = true;
  q.where.triples = triples;
  q.where.filters = filters;
  if (values != nullptr) q.where.values.push_back(*values);
  return sparql::QueryToString(q);
}

}  // namespace

FedXEngine::FedXEngine(const fed::Federation* federation, FedXOptions options)
    : federation_(federation),
      options_(options) {}

std::string FedXEngine::name() const {
  return provider_ == nullptr ? "FedX" : "FedX+" + provider_->name();
}

Result<std::vector<std::vector<int>>> FedXEngine::SelectSources(
    const std::vector<TriplePattern>& triples, fed::MetricsCollector* metrics,
    const Deadline& deadline) {
  std::vector<std::vector<int>> sources(triples.size());
  std::vector<TriplePattern> need_ask;
  std::vector<size_t> need_ask_index;
  for (size_t i = 0; i < triples.size(); ++i) {
    std::optional<std::vector<int>> from_index;
    if (provider_ != nullptr) from_index = provider_->Sources(triples[i]);
    if (from_index.has_value()) {
      sources[i] = std::move(*from_index);
    } else {
      need_ask.push_back(triples[i]);
      need_ask_index.push_back(i);
    }
  }
  if (!need_ask.empty()) {
    fed::SourceSelector selector(federation_, &ask_cache_);
    LUSAIL_ASSIGN_OR_RETURN(
        std::vector<std::vector<int>> asked,
        selector.SelectSources(need_ask, metrics, deadline,
                               options_.use_cache, Retry()));
    for (size_t k = 0; k < need_ask.size(); ++k) {
      sources[need_ask_index[k]] = std::move(asked[k]);
    }
  }
  if (provider_ != nullptr) {
    provider_->PruneJointSources(triples, &sources);
  }
  return sources;
}

std::vector<FedXEngine::Operand> FedXEngine::BuildOperands(
    const std::vector<TriplePattern>& triples,
    const std::vector<std::vector<int>>& sources,
    const std::vector<sparql::Expr>& filters,
    std::vector<const sparql::Expr*>* residual_filters) {
  std::vector<Operand> ops;
  // Exclusive groups: patterns whose single relevant source matches.
  std::map<int, Operand> exclusive;
  for (size_t i = 0; i < triples.size(); ++i) {
    if (sources[i].size() == 1) {
      Operand& op = exclusive[sources[i][0]];
      op.triples.push_back(triples[i]);
      op.sources = sources[i];
      op.exclusive = true;
    } else {
      Operand op;
      op.triples.push_back(triples[i]);
      op.sources = sources[i];
      ops.push_back(std::move(op));
    }
  }
  for (auto& [ep, op] : exclusive) ops.push_back(std::move(op));

  // Push filters into the first operand covering their variables.
  for (const sparql::Expr& f : filters) {
    std::set<std::string> fvars;
    f.CollectVariables(&fvars);
    bool pushed = false;
    for (Operand& op : ops) {
      std::vector<std::string> ov = OperandVars(op.triples);
      bool covered =
          std::all_of(fvars.begin(), fvars.end(), [&](const auto& v) {
            return std::find(ov.begin(), ov.end(), v) != ov.end();
          });
      if (covered) {
        op.filters.push_back(f);
        pushed = true;
        break;
      }
    }
    if (!pushed) residual_filters->push_back(&f);
  }
  return ops;
}

std::vector<size_t> FedXEngine::OrderOperands(const std::vector<Operand>& ops) {
  // FedX's variable-counting heuristic: repeatedly pick the operand with
  // the fewest free (still unbound) variables; exclusive groups win ties.
  std::vector<size_t> order;
  std::vector<bool> used(ops.size(), false);
  std::set<std::string> bound;
  for (size_t n = 0; n < ops.size(); ++n) {
    size_t best = ops.size();
    int best_free = 0;
    bool best_exclusive = false;
    bool best_connected = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      if (used[i]) continue;
      std::vector<std::string> vars = OperandVars(ops[i].triples);
      int free_vars = 0;
      bool connected = bound.empty();
      for (const std::string& v : vars) {
        if (bound.count(v)) {
          connected = true;
        } else {
          ++free_vars;
        }
      }
      bool better;
      if (best == ops.size()) {
        better = true;
      } else if (connected != best_connected) {
        better = connected;
      } else if (free_vars != best_free) {
        better = free_vars < best_free;
      } else {
        better = ops[i].exclusive && !best_exclusive;
      }
      if (better) {
        best = i;
        best_free = free_vars;
        best_exclusive = ops[i].exclusive;
        best_connected = connected;
      }
    }
    order.push_back(best);
    used[best] = true;
    for (const std::string& v : OperandVars(ops[best].triples)) {
      bound.insert(v);
    }
  }
  return order;
}

Result<BindingTable> FedXEngine::BoundJoinStep(
    const Operand& op, BindingTable table,
    std::optional<uint64_t> result_cap, fed::SharedDictionary* dict,
    fed::MetricsCollector* metrics, const Deadline& deadline) {
  std::vector<std::string> op_vars = OperandVars(op.triples);
  std::vector<std::string> shared;
  for (const std::string& v : op_vars) {
    if (table.VarIndex(v) >= 0) shared.push_back(v);
  }

  auto fetch_all = [&]() -> Result<BindingTable> {
    // No bindings to ship: fetch the operand fully from all its sources.
    std::string text = OperandSparql(op.triples, op.filters, op_vars, nullptr);
    BindingTable fetched;
    fetched.vars = op_vars;
    for (int ep : op.sources) {
      LUSAIL_ASSIGN_OR_RETURN(
          sparql::ResultTable part,
          federation_->Execute(static_cast<size_t>(ep), text,
                               fed::RequestKind::kFetch, metrics, deadline,
                               Retry()));
      core::AppendUnionIds(&fetched, core::EncodeResultTable(part, dict));
    }
    return fetched;
  };

  if (table.vars.empty() && table.NumRows() == 0) {
    // First operand.
    return fetch_all();
  }
  if (shared.empty()) {
    LUSAIL_ASSIGN_OR_RETURN(BindingTable fetched, fetch_all());
    return core::JoinIds(table, fetched, /*left_outer=*/false);
  }

  // Distinct binding tuples of the shared variables.
  std::vector<int> shared_idx;
  for (const std::string& v : shared) shared_idx.push_back(table.VarIndex(v));
  std::vector<std::vector<rdf::TermId>> distinct;
  {
    std::set<std::vector<rdf::TermId>> seen;
    for (size_t r = 0; r < table.NumRows(); ++r) {
      std::vector<rdf::TermId> key;
      key.reserve(shared_idx.size());
      bool bound_key = true;
      for (int idx : shared_idx) {
        rdf::TermId id = table.At(r, static_cast<size_t>(idx));
        if (id == rdf::kInvalidTermId) {
          bound_key = false;
          break;
        }
        key.push_back(id);
      }
      if (bound_key && seen.insert(key).second) distinct.push_back(key);
    }
  }
  if (distinct.empty()) {
    LUSAIL_ASSIGN_OR_RETURN(BindingTable fetched, fetch_all());
    return core::JoinIds(table, fetched, /*left_outer=*/false);
  }

  // Ship the bindings block by block to every relevant source,
  // sequentially — FedX processes the query one join step at a time.
  BindingTable fetched;
  fetched.vars = op_vars;
  for (const std::string& v : shared) {
    if (std::find(fetched.vars.begin(), fetched.vars.end(), v) ==
        fetched.vars.end()) {
      fetched.vars.push_back(v);
    }
  }
  const size_t block = std::max<size_t>(1, options_.bound_join_block_size);
  for (size_t start = 0; start < distinct.size(); start += block) {
    if (deadline.Expired()) {
      return Status::Timeout("deadline expired in FedX bound join");
    }
    sparql::ValuesClause values;
    for (const std::string& v : shared) {
      values.vars.push_back(sparql::Variable{v});
    }
    size_t end = std::min(distinct.size(), start + block);
    for (size_t i = start; i < end; ++i) {
      std::vector<std::optional<rdf::Term>> row;
      row.reserve(distinct[i].size());
      for (rdf::TermId id : distinct[i]) row.push_back(dict->term(id));
      values.rows.push_back(std::move(row));
    }
    std::string text = OperandSparql(op.triples, op.filters, fetched.vars,
                                     &values);
    for (int ep : op.sources) {
      LUSAIL_ASSIGN_OR_RETURN(
          sparql::ResultTable part,
          federation_->Execute(static_cast<size_t>(ep), text,
                               fed::RequestKind::kFetch, metrics, deadline,
                               Retry()));
      core::AppendUnionIds(&fetched, core::EncodeResultTable(part, dict));
    }
    if (result_cap.has_value()) {
      // LIMIT shortcut: stop shipping blocks once enough joined results
      // exist (FedX's first-N termination; see the paper's C4 discussion).
      BindingTable probe =
          core::JoinIds(table, fetched, /*left_outer=*/false);
      if (probe.NumRows() >= *result_cap) return probe;
    }
  }
  return core::JoinIds(table, fetched, /*left_outer=*/false);
}

Result<BindingTable> FedXEngine::ExecutePattern(
    const sparql::GraphPattern& pattern, std::optional<uint64_t> result_cap,
    fed::SharedDictionary* dict, fed::MetricsCollector* metrics,
    const Deadline& deadline, fed::ExecutionProfile* profile) {
  core::GroupTail tail = core::GroupTail::Of(pattern);
  Stopwatch timer;
  auto combine = [&](BindingTable bgp) {
    Result<BindingTable> out = core::CombineGroup(
        std::move(bgp), tail,
        [&](const sparql::GraphPattern& block) {
          return ExecutePattern(block, std::nullopt, dict, metrics, deadline,
                                profile);
        },
        dict);
    profile->execution_ms += timer.ElapsedMillis();
    return out;
  };
  if (pattern.triples.empty()) return combine(core::UnitTable());

  fed::PhaseSpan source_span(metrics, "source selection");
  LUSAIL_ASSIGN_OR_RETURN(
      std::vector<std::vector<int>> sources,
      SelectSources(pattern.triples, metrics, deadline));
  source_span.End();
  profile->source_selection_ms += timer.ElapsedMillis();

  timer.Restart();
  fed::PhaseSpan exec_span(metrics, "bound-join execution");
  for (size_t i = 0; i < pattern.triples.size(); ++i) {
    if (sources[i].empty()) {
      BindingTable empty;
      std::set<std::string> vars;
      pattern.CollectVariables(&vars);
      empty.vars.assign(vars.begin(), vars.end());
      return empty;
    }
  }

  tail.filters.clear();
  std::vector<Operand> ops =
      BuildOperands(pattern.triples, sources, pattern.filters, &tail.filters);
  std::vector<size_t> order = OrderOperands(ops);
  const bool cap_bgp = core::LimitCrossesBgp(tail);

  BindingTable table;
  for (size_t k = 0; k < order.size(); ++k) {
    bool last = k + 1 == order.size() && cap_bgp;
    LUSAIL_ASSIGN_OR_RETURN(
        table, BoundJoinStep(ops[order[k]], std::move(table),
                             last ? result_cap : std::nullopt, dict, metrics,
                             deadline));
    profile->peak_intermediate_rows = std::max(
        profile->peak_intermediate_rows,
        static_cast<uint64_t>(table.NumRows()));
    if (table.NumRows() == 0 && !table.vars.empty() && k + 1 < order.size()) {
      // Join already empty; later operands cannot add rows.
      break;
    }
  }

  return combine(std::move(table));
}

Result<fed::FederatedResult> FedXEngine::Execute(
    const std::string& sparql_text, const Deadline& deadline) {
  Stopwatch total_timer;
  LUSAIL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql_text));

  fed::FederatedResult result;
  fed::MetricsCollector metrics;
  fed::QueryTrace trace(options_.trace, name(), &metrics);
  fed::SharedDictionary dict;

  std::optional<uint64_t> cap = core::LimitPushdownBound(query);

  Result<BindingTable> table_or =
      ExecutePattern(query.where, cap, &dict, &metrics, deadline,
                     &result.profile);
  if (!table_or.ok()) {
    metrics.FillCounters(&result.profile);
    trace.Attach(&result.profile);
    return table_or.status();
  }

  result.table = core::DecodeIdTable(
      core::FinishSolutions(std::move(table_or).value(), query, &dict), dict);

  metrics.FillCounters(&result.profile);
  result.profile.total_ms = total_timer.ElapsedMillis();
  trace.Attach(&result.profile);
  return result;
}

}  // namespace lusail::baselines
