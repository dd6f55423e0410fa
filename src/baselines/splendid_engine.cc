#include "baselines/splendid_engine.h"

#include <algorithm>
#include <set>

#include "common/stopwatch.h"
#include "core/group_pattern.h"
#include "core/solution_modifiers.h"
#include "net/sparql_endpoint.h"
#include "sparql/serializer.h"

namespace lusail::baselines {

namespace {

using fed::BindingTable;
using sparql::TriplePattern;

std::string PatternSparql(const TriplePattern& tp,
                          const std::vector<std::string>& projection,
                          const sparql::ValuesClause* values) {
  sparql::Query q;
  q.form = sparql::QueryForm::kSelect;
  for (const std::string& v : projection) {
    q.projection.push_back(sparql::Variable{v});
  }
  if (q.projection.empty()) q.select_all = true;
  q.where.triples.push_back(tp);
  if (values != nullptr) q.where.values.push_back(*values);
  return sparql::QueryToString(q);
}

}  // namespace

SplendidEngine::SplendidEngine(const fed::Federation* federation,
                               SplendidOptions options)
    : federation_(federation),
      options_(options) {}

void SplendidEngine::BuildIndex() {
  Stopwatch timer;
  index_.assign(federation_->size(), VoidStats());
  for (size_t e = 0; e < federation_->size(); ++e) {
    auto* endpoint =
        dynamic_cast<const net::SparqlEndpoint*>(federation_->endpoint(e));
    if (endpoint == nullptr) continue;
    const store::TripleStore& store = endpoint->store();
    VoidStats& stats = index_[e];
    stats.total_triples = store.size();
    for (rdf::TermId p : store.Predicates()) {
      const std::string& pred = store.dict().term(p).lexical();
      stats.predicate_counts[pred] = store.StatsFor(p).triples;
      if (pred == rdf::kRdfType) {
        for (const store::EncodedTriple& t :
             store.Match(std::nullopt, p, std::nullopt)) {
          ++stats.class_counts[store.dict().term(t.o).lexical()];
        }
      }
    }
  }
  index_build_millis_ = timer.ElapsedMillis();
}

Result<std::vector<int>> SplendidEngine::SourcesFor(
    const TriplePattern& tp, fed::MetricsCollector* metrics,
    const Deadline& deadline) {
  if (!index_.empty() && tp.p.is_term() && tp.p.term().is_iri()) {
    const std::string& pred = tp.p.term().lexical();
    bool is_type = pred == rdf::kRdfType;
    std::vector<int> out;
    for (size_t e = 0; e < index_.size(); ++e) {
      if (is_type && tp.o.is_term()) {
        if (index_[e].class_counts.count(tp.o.term().lexical())) {
          out.push_back(static_cast<int>(e));
        }
      } else if (index_[e].predicate_counts.count(pred)) {
        out.push_back(static_cast<int>(e));
      }
    }
    return out;
  }
  // Variable predicate (or no index): ASK probes, SPLENDID-style.
  fed::SourceSelector selector(federation_, &ask_cache_);
  LUSAIL_ASSIGN_OR_RETURN(
      std::vector<std::vector<int>> sources,
      selector.SelectSources({tp}, metrics, deadline, /*use_cache=*/true));
  return sources[0];
}

double SplendidEngine::EstimateCardinality(
    const TriplePattern& tp, const std::vector<int>& sources) const {
  double total = 0.0;
  for (int e : sources) {
    if (index_.empty()) {
      total += 1000.0;
      continue;
    }
    const VoidStats& stats = index_[e];
    double est;
    if (tp.p.is_term() && tp.p.term().is_iri()) {
      const std::string& pred = tp.p.term().lexical();
      if (pred == rdf::kRdfType && tp.o.is_term()) {
        auto it = stats.class_counts.find(tp.o.term().lexical());
        est = it == stats.class_counts.end() ? 0.0
                                             : static_cast<double>(it->second);
      } else {
        auto it = stats.predicate_counts.find(pred);
        est = it == stats.predicate_counts.end()
                  ? 0.0
                  : static_cast<double>(it->second);
        // Constant subject/object: SPLENDID divides by distinct counts;
        // we approximate with a fixed selectivity factor.
        if (tp.s.is_term()) est /= 100.0;
        if (tp.o.is_term()) est /= 100.0;
      }
    } else {
      est = static_cast<double>(stats.total_triples);
    }
    total += est;
  }
  return total;
}

Result<BindingTable> SplendidEngine::ExecutePattern(
    const sparql::GraphPattern& pattern, fed::SharedDictionary* dict,
    fed::MetricsCollector* metrics, const Deadline& deadline,
    fed::ExecutionProfile* profile) {
  Stopwatch timer;
  // SPLENDID pushes no filter into its requests: every filter is in the
  // tail.
  auto combine = [&](BindingTable bgp) {
    Result<BindingTable> out = core::CombineGroup(
        std::move(bgp), core::GroupTail::Of(pattern),
        [&](const sparql::GraphPattern& block) {
          return ExecutePattern(block, dict, metrics, deadline, profile);
        },
        dict);
    profile->execution_ms += timer.ElapsedMillis();
    return out;
  };
  if (pattern.triples.empty()) return combine(core::UnitTable());

  fed::PhaseSpan source_span(metrics, "source selection");
  std::vector<std::vector<int>> sources(pattern.triples.size());
  for (size_t i = 0; i < pattern.triples.size(); ++i) {
    LUSAIL_ASSIGN_OR_RETURN(sources[i],
                            SourcesFor(pattern.triples[i], metrics, deadline));
    if (sources[i].empty()) {
      BindingTable empty;
      std::set<std::string> vars;
      pattern.CollectVariables(&vars);
      empty.vars.assign(vars.begin(), vars.end());
      return empty;
    }
  }
  source_span.End();
  profile->source_selection_ms += timer.ElapsedMillis();

  timer.Restart();
  fed::PhaseSpan exec_span(metrics, "sequential execution");
  // Order patterns by estimated cardinality (connected patterns first
  // once execution starts).
  std::vector<size_t> order;
  std::vector<bool> used(pattern.triples.size(), false);
  std::set<std::string> bound;
  for (size_t n = 0; n < pattern.triples.size(); ++n) {
    size_t best = pattern.triples.size();
    double best_est = 0.0;
    bool best_connected = false;
    for (size_t i = 0; i < pattern.triples.size(); ++i) {
      if (used[i]) continue;
      double est = EstimateCardinality(pattern.triples[i], sources[i]);
      bool connected = bound.empty();
      for (const std::string& v : pattern.triples[i].VariableNames()) {
        if (bound.count(v)) connected = true;
      }
      bool better;
      if (best == pattern.triples.size()) {
        better = true;
      } else if (connected != best_connected) {
        better = connected;
      } else {
        better = est < best_est;
      }
      if (better) {
        best = i;
        best_est = est;
        best_connected = connected;
      }
    }
    order.push_back(best);
    used[best] = true;
    for (const std::string& v : pattern.triples[best].VariableNames()) {
      bound.insert(v);
    }
  }

  BindingTable table;
  bool first = true;
  for (size_t k : order) {
    if (deadline.Expired()) {
      return Status::Timeout("deadline expired in SPLENDID execution");
    }
    const TriplePattern& tp = pattern.triples[k];
    std::vector<std::string> tp_vars = tp.VariableNames();
    std::vector<std::string> shared;
    for (const std::string& v : tp_vars) {
      if (!first && table.VarIndex(v) >= 0) shared.push_back(v);
    }

    BindingTable fetched;
    fetched.vars = tp_vars;
    if (!first && !shared.empty() &&
        table.NumRows() <= options_.bind_join_threshold) {
      // Bind join: ship current bindings of the first shared variable.
      const std::string& bv = shared[0];
      int idx = table.VarIndex(bv);
      std::set<rdf::TermId> distinct;
      for (rdf::TermId id : table.Column(static_cast<size_t>(idx))) {
        if (id != rdf::kInvalidTermId) distinct.insert(id);
      }
      std::vector<rdf::TermId> values(distinct.begin(), distinct.end());
      const size_t block = std::max<size_t>(1, options_.bind_join_block_size);
      for (size_t start = 0; start < values.size(); start += block) {
        sparql::ValuesClause vc;
        vc.vars.push_back(sparql::Variable{bv});
        size_t end = std::min(values.size(), start + block);
        for (size_t i = start; i < end; ++i) {
          vc.rows.push_back({dict->term(values[i])});
        }
        std::string text = PatternSparql(tp, tp_vars, &vc);
        for (int ep : sources[k]) {
          LUSAIL_ASSIGN_OR_RETURN(
              sparql::ResultTable part,
              federation_->Execute(static_cast<size_t>(ep), text,
                                   fed::RequestKind::kFetch, metrics,
                                   deadline));
          core::AppendUnionIds(&fetched, core::EncodeResultTable(part, dict));
        }
      }
    } else {
      // Fetch the pattern's full extension and hash join.
      std::string text = PatternSparql(tp, tp_vars, nullptr);
      for (int ep : sources[k]) {
        LUSAIL_ASSIGN_OR_RETURN(
            sparql::ResultTable part,
            federation_->Execute(static_cast<size_t>(ep), text,
                                 fed::RequestKind::kFetch, metrics,
                                 deadline));
        core::AppendUnionIds(&fetched, core::EncodeResultTable(part, dict));
      }
    }
    // Memory-footprint proxy: the running result plus the freshly
    // fetched extension coexist at join time (matches what SAPE and
    // FedX report, so the engines' peaks are comparable).
    profile->peak_intermediate_rows = std::max(
        profile->peak_intermediate_rows,
        static_cast<uint64_t>(table.NumRows() + fetched.NumRows()));
    table = first ? std::move(fetched)
                  : core::JoinIds(table, fetched, /*left_outer=*/false);
    profile->peak_intermediate_rows = std::max(
        profile->peak_intermediate_rows,
        static_cast<uint64_t>(table.NumRows()));
    first = false;
  }

  return combine(std::move(table));
}

Result<fed::FederatedResult> SplendidEngine::Execute(
    const std::string& sparql_text, const Deadline& deadline) {
  Stopwatch total_timer;
  LUSAIL_ASSIGN_OR_RETURN(sparql::Query query, sparql::ParseQuery(sparql_text));

  fed::FederatedResult result;
  fed::MetricsCollector metrics;
  fed::QueryTrace trace(options_.trace, name(), &metrics);
  fed::SharedDictionary dict;

  Result<BindingTable> table_or =
      ExecutePattern(query.where, &dict, &metrics, deadline, &result.profile);
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
