#include "core/sape.h"

#include <algorithm>
#include <future>
#include <map>
#include <set>
#include <unordered_set>

#include "cache/federation_cache.h"
#include "core/join_optimizer.h"

namespace lusail::core {

namespace {

using fed::BindingTable;
using sparql::TriplePattern;

/// Distinct bound values of a column (one contiguous scan — this is the
/// columnar layout's home turf).
std::vector<rdf::TermId> DistinctColumn(const BindingTable& table,
                                        const std::string& var) {
  std::vector<rdf::TermId> out;
  int idx = table.VarIndex(var);
  if (idx < 0) return out;
  std::unordered_set<rdf::TermId> seen;
  for (rdf::TermId id : table.Column(static_cast<size_t>(idx))) {
    if (id != rdf::kInvalidTermId && seen.insert(id).second) {
      out.push_back(id);
    }
  }
  return out;
}

/// The engine's retry policy, or null when retries are disabled (the
/// federation then uses the plain fail-stop request path).
const net::RetryPolicy* RetryOf(const LusailOptions* options) {
  return options->retry_policy.enabled() ? &options->retry_policy : nullptr;
}

/// One failed endpoint request: which endpoint, and why.
struct EndpointFailure {
  int endpoint;
  Status status;
};

/// Builds one Status describing *all* endpoint failures of a phase, not
/// just the first: count, the distinct endpoint ids, and up to four
/// per-endpoint messages. Debugging a multi-endpoint outage needs the
/// full picture, not a single truncated message.
Status AggregateFailures(const fed::Federation* federation, const char* phase,
                         const std::vector<EndpointFailure>& failures,
                         size_t total_requests) {
  std::vector<std::string> ids;
  for (const EndpointFailure& f : failures) {
    std::string id = federation->id(static_cast<size_t>(f.endpoint));
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      ids.push_back(std::move(id));
    }
  }
  std::string msg = std::to_string(failures.size()) + " of " +
                    std::to_string(total_requests) +
                    " endpoint requests failed in " + phase +
                    " (endpoints: ";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) msg += ", ";
    msg += ids[i];
  }
  msg += ")";
  const size_t kMaxDetailed = 4;
  for (size_t i = 0; i < failures.size() && i < kMaxDetailed; ++i) {
    msg += "; " +
           federation->id(static_cast<size_t>(failures[i].endpoint)) + ": " +
           failures[i].status.ToString();
  }
  if (failures.size() > kMaxDetailed) msg += "; ...";
  return Status(failures.front().status.code(), std::move(msg));
}

/// Joins every group of tables that (transitively) share variables into
/// one table per group, ordering each group's joins with the DP join
/// optimizer; disjoint groups remain separate (the delayed phase refines
/// against them, and only the final cartesian step may merge them).
std::vector<BindingTable> JoinConnected(std::vector<BindingTable> tables,
                                        ThreadPool* pool, size_t partitions,
                                        const CancelToken* cancel = nullptr) {
  if (tables.size() <= 1) return tables;

  // Connected components of the shares-a-variable graph (BFS).
  std::vector<int> component(tables.size(), -1);
  int num_components = 0;
  for (size_t seed = 0; seed < tables.size(); ++seed) {
    if (component[seed] >= 0) continue;
    std::vector<size_t> frontier{seed};
    component[seed] = num_components;
    while (!frontier.empty()) {
      size_t i = frontier.back();
      frontier.pop_back();
      for (size_t j = 0; j < tables.size(); ++j) {
        if (component[j] >= 0) continue;
        if (BindingTable::SharedVars(tables[i], tables[j]).empty()) continue;
        component[j] = num_components;
        frontier.push_back(j);
      }
    }
    ++num_components;
  }

  std::vector<BindingTable> out;
  out.reserve(static_cast<size_t>(num_components));
  for (int c = 0; c < num_components; ++c) {
    std::vector<size_t> members;
    for (size_t i = 0; i < tables.size(); ++i) {
      if (component[i] == c) members.push_back(i);
    }
    if (members.size() == 1) {
      out.push_back(std::move(tables[members[0]]));
      continue;
    }
    // DP join order over the group's true cardinalities, then a
    // left-deep chain of hash joins, range-partitioned over the pool.
    std::vector<double> sizes;
    std::vector<std::set<std::string>> vars;
    for (size_t i : members) {
      sizes.push_back(static_cast<double>(tables[i].NumRows()));
      vars.emplace_back(tables[i].vars.begin(), tables[i].vars.end());
    }
    std::vector<int> order =
        JoinOptimizer::OptimalOrder(sizes, vars, std::max<size_t>(1,
                                                                  partitions));
    BindingTable joined = std::move(tables[members[order[0]]]);
    for (size_t k = 1; k < order.size(); ++k) {
      if (cancel != nullptr && cancel->Cancelled()) break;
      joined = JoinIds(joined, tables[members[order[k]]],
                       /*left_outer=*/false, pool, partitions, cancel);
    }
    out.push_back(std::move(joined));
  }
  return out;
}

}  // namespace

Result<BindingTable> SapeExecutor::FetchEndpoint(
    int ep, const std::string& text, const std::string& cache_key,
    bool cacheable, fed::SharedDictionary* dict,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    const net::RetryPolicy* retry, obs::SpanId trace_parent) {
  // Queued fetches whose token already fired bail before touching the
  // wire — crucial when many (subquery, endpoint) tasks are backed up
  // behind a cancelled query in the request pool.
  if (cancel.Cancelled()) return cancel.StatusAt("endpoint fetch");
  cache::FederationCache* shared =
      (cacheable && options_->use_cache && options_->result_cache)
          ? federation_->query_cache()
          : nullptr;
  std::string endpoint_id;
  if (shared != nullptr) {
    endpoint_id = federation_->id(static_cast<size_t>(ep));
    std::optional<sparql::ResultTable> hit =
        shared->GetResult(endpoint_id, cache_key);
    if (hit.has_value()) {
      obs::Tracer* tracer = metrics != nullptr ? metrics->tracer() : nullptr;
      if (tracer != nullptr) {
        obs::SpanId span =
            tracer->StartSpan("cache hit " + endpoint_id, "cache",
                              trace_parent);
        tracer->Annotate(span, "rows",
                         static_cast<uint64_t>(hit->rows.size()));
        tracer->EndSpan(span);
      }
      // The shared cache stores wire-format string rows (it outlives any
      // one dictionary), so a hit re-interns here.
      return EncodeResultTable(*hit, dict);
    }
  }
  // The string form of the response rides along exactly when the wire
  // path produced one anyway; the pure id path (parse-to-ids transport)
  // decodes only if a cache store actually needs it.
  std::optional<sparql::ResultTable> wire;
  Result<BindingTable> ids = federation_->ExecuteEncoded(
      static_cast<size_t>(ep), text, dict, metrics, cancel.deadline(), retry,
      trace_parent, shared != nullptr ? &wire : nullptr);
  if (shared != nullptr && ids.ok()) {
    if (wire.has_value()) {
      shared->PutResult(endpoint_id, cache_key, *wire);
    } else {
      shared->PutResult(endpoint_id, cache_key, DecodeIdTable(*ids, *dict));
    }
  }
  return ids;
}

Result<BindingTable> SapeExecutor::RunEverywhere(
    const Subquery& sq, const std::vector<TriplePattern>& triples,
    const sparql::ValuesClause* values,
    const std::vector<rdf::TermId>* bound_ids, fed::SharedDictionary* dict,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    obs::SpanId trace_parent, size_t row_limit) {
  std::string text = sq.ToSparql(triples, values);
  // The LIMIT rides inside the text, so the shared result cache keys a
  // limited fetch separately from the unlimited one — a capped answer
  // never masquerades as the full result on a later warm run.
  if (row_limit > 0) text += "\nLIMIT " + std::to_string(row_limit);
  const net::RetryPolicy* retry = RetryOf(options_);
  // Unbound texts key the shared result cache directly. Bound (VALUES)
  // fetches are keyed as base text + an id-space fingerprint of the
  // binding block (one precomputed 8-byte content hash mixed per binding
  // instead of serializing the block; content hashes keep the key stable
  // across engines sharing the cache), so re-running a query in a warm
  // serving process skips its bound joins too while giant VALUES
  // serializations stay out of the cache index.
  std::string cache_key = text;
  bool cacheable = true;
  if (values != nullptr) {
    if (bound_ids == nullptr || values->vars.empty()) {
      // No id-space identity for the block: skip the cache rather than
      // risk keying different blocks identically.
      cacheable = false;
    } else {
      cache_key = sq.ToSparql(triples, nullptr) + "\n#values-block:" +
                  FingerprintIdBindings(values->vars[0].name, *dict,
                                        bound_ids->data(), bound_ids->size());
    }
  }
  // Row budget: fired once the union already holds `row_limit` rows.
  // Fetches still queued behind the satisfied point skip the wire and
  // return empty — a budget hit is a cutoff, never a failure.
  CancelToken budget =
      row_limit > 0 ? CancelToken::Cancellable() : CancelToken();
  std::vector<std::future<Result<BindingTable>>> futures;
  futures.reserve(sq.sources.size());
  for (int ep : sq.sources) {
    futures.push_back(federation_->SubmitRequest(
        [this, ep, text, cache_key, cacheable, dict, metrics, cancel, retry,
         trace_parent, budget, projection = sq.projection]() {
          if (budget.CancelRequested()) {
            BindingTable skipped;
            skipped.vars = projection;
            return Result<BindingTable>(std::move(skipped));
          }
          return FetchEndpoint(ep, text, cache_key, cacheable, dict, metrics,
                               cancel, retry, trace_parent);
        }));
  }
  BindingTable merged;
  merged.vars = sq.projection;
  std::vector<EndpointFailure> failures;
  size_t successes = 0;
  for (size_t k = 0; k < futures.size(); ++k) {
    Result<BindingTable> table = futures[k].get();
    if (!table.ok()) {
      failures.push_back({sq.sources[k], table.status()});
      continue;
    }
    ++successes;
    AppendUnionIds(&merged, *table);
    if (row_limit > 0 && merged.NumRows() >= row_limit) budget.Cancel();
  }
  if (!failures.empty()) {
    if (!options_->partial_results) {
      return AggregateFailures(federation_, "subquery evaluation", failures,
                               futures.size());
    }
    // Graceful degradation: each per-endpoint result is one branch of the
    // subquery's UNION — dropping a branch yields a subset of the exact
    // answer, which is exactly what partial_results promises.
    if (metrics != nullptr) {
      for (const EndpointFailure& f : failures) {
        metrics->RecordEndpointDropped(
            federation_->id(static_cast<size_t>(f.endpoint)));
      }
      if (successes == 0) metrics->RecordSubqueryDropped();
    }
  }
  return merged;
}

Result<BindingTable> SapeExecutor::Execute(
    std::vector<Subquery> subqueries,
    const std::vector<TriplePattern>& triples, fed::SharedDictionary* dict,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    fed::ExecutionProfile* profile, size_t row_limit) {
  auto track_peak = [profile](const std::vector<BindingTable>& tables) {
    if (profile == nullptr) return;
    uint64_t total = 0;
    for (const BindingTable& t : tables) total += t.NumRows();
    profile->peak_intermediate_rows =
        std::max(profile->peak_intermediate_rows, total);
  };
  if (subqueries.empty()) {
    return Status::InvalidArgument("no subqueries to execute");
  }

  obs::Tracer* tracer = metrics != nullptr ? metrics->tracer() : nullptr;
  // Opens a "subquery" span under the current phase span. Spans are
  // created on this thread and handed to request tasks as explicit request
  // parents, so concurrent subqueries nest their requests correctly.
  auto start_sq_span = [&](size_t i, const char* mode) -> obs::SpanId {
    if (tracer == nullptr) return 0;
    obs::SpanId span = tracer->StartSpan("subquery " + std::to_string(i),
                                         "subquery", metrics->trace_parent());
    tracer->Annotate(span, "mode", mode);
    tracer->Annotate(span, "endpoints",
                     static_cast<uint64_t>(subqueries[i].sources.size()));
    tracer->Annotate(span, "estimated_cardinality",
                     subqueries[i].estimated_cardinality);
    return span;
  };

  // Single subquery: evaluate the whole query at every relevant endpoint
  // independently and union (Algorithm 3, lines 2-4).
  if (subqueries.size() == 1) {
    obs::SpanId span = start_sq_span(0, "whole query");
    if (tracer != nullptr && row_limit > 0) {
      tracer->Annotate(span, "limit_pushdown",
                       static_cast<uint64_t>(row_limit));
    }
    Result<BindingTable> table =
        RunEverywhere(subqueries[0], triples, nullptr, nullptr, dict, metrics,
                      cancel, span, row_limit);
    if (tracer != nullptr) tracer->EndSpan(span);
    if (table.ok() && cancel.Cancelled()) {
      return cancel.StatusAt("subquery evaluation");
    }
    return table;
  }

  // Delay decision (skipped entirely when SAPE is disabled).
  if (options_->enable_sape) {
    std::vector<double> cards, eps;
    for (const Subquery& sq : subqueries) {
      cards.push_back(sq.estimated_cardinality);
      eps.push_back(static_cast<double>(sq.sources.size()));
    }
    std::vector<bool> delayed =
        DecideDelayed(cards, eps, options_->delay_threshold);
    for (size_t i = 0; i < subqueries.size(); ++i) {
      subqueries[i].delayed = delayed[i];
    }
  } else {
    for (Subquery& sq : subqueries) sq.delayed = false;
  }

  // ---- Phase 1: non-delayed subqueries, all concurrent. ----
  // Every (subquery, endpoint) request is one flat request-pool task that
  // never waits on another (this thread is the only one that waits), so
  // all non-delayed subqueries are in flight at once, non-blocking, as in
  // Algorithm 3 lines 6-7.
  struct Fetch {
    size_t sq_index;
    int endpoint;
    std::future<Result<BindingTable>> result;
  };
  const net::RetryPolicy* retry = RetryOf(options_);
  std::vector<Fetch> fetches;
  std::vector<size_t> phase1_order;
  std::map<size_t, BindingTable> phase1_tables;
  std::map<size_t, size_t> phase1_successes;
  std::map<size_t, obs::SpanId> phase1_spans;
  std::map<size_t, size_t> phase1_pending;
  for (size_t i = 0; i < subqueries.size(); ++i) {
    if (subqueries[i].delayed) continue;
    phase1_order.push_back(i);
    BindingTable empty;
    empty.vars = subqueries[i].projection;
    phase1_tables.emplace(i, std::move(empty));
    phase1_successes.emplace(i, 0);
    obs::SpanId span = start_sq_span(i, "concurrent");
    phase1_spans.emplace(i, span);
    phase1_pending.emplace(i, subqueries[i].sources.size());
    std::string text = subqueries[i].ToSparql(triples, nullptr);
    for (int ep : subqueries[i].sources) {
      Fetch fetch;
      fetch.sq_index = i;
      fetch.endpoint = ep;
      fetch.result = federation_->SubmitRequest(
          [this, ep, text, dict, metrics, cancel, retry, span]() {
            return FetchEndpoint(ep, text, /*cache_key=*/text,
                                 /*cacheable=*/true, dict, metrics, cancel,
                                 retry, span);
          });
      fetches.push_back(std::move(fetch));
    }
  }
  std::vector<EndpointFailure> phase1_failures;
  std::set<size_t> phase1_failed_sqs;
  for (Fetch& fetch : fetches) {
    Result<BindingTable> part = fetch.result.get();
    if (!part.ok()) {
      phase1_failures.push_back({fetch.endpoint, part.status()});
      phase1_failed_sqs.insert(fetch.sq_index);
    } else {
      ++phase1_successes[fetch.sq_index];
      AppendUnionIds(&phase1_tables[fetch.sq_index], *part);
    }
    // The subquery span closes when its last endpoint result lands.
    if (tracer != nullptr && --phase1_pending[fetch.sq_index] == 0) {
      obs::SpanId span = phase1_spans[fetch.sq_index];
      tracer->Annotate(
          span, "rows",
          static_cast<uint64_t>(phase1_tables[fetch.sq_index].NumRows()));
      tracer->EndSpan(span);
    }
  }
  if (!phase1_failures.empty()) {
    if (!options_->partial_results) {
      return AggregateFailures(federation_, "SAPE phase 1 (concurrent "
                               "subqueries)", phase1_failures,
                               fetches.size());
    }
    if (metrics != nullptr) {
      for (const EndpointFailure& f : phase1_failures) {
        metrics->RecordEndpointDropped(
            federation_->id(static_cast<size_t>(f.endpoint)));
      }
      for (size_t sq_index : phase1_failed_sqs) {
        if (phase1_successes[sq_index] == 0) metrics->RecordSubqueryDropped();
      }
    }
  }
  std::vector<BindingTable> tables;
  for (size_t i : phase1_order) {
    tables.push_back(std::move(phase1_tables[i]));
  }

  // Eagerly join connected non-delayed results; this shrinks the found
  // bindings the delayed subqueries will be probed with.
  if (cancel.Cancelled()) return cancel.StatusAt("SAPE phase 1");
  track_peak(tables);
  tables = JoinConnected(std::move(tables), pool_, options_->join_partitions,
                         &cancel);
  if (cancel.Cancelled()) return cancel.StatusAt("SAPE phase 1 join");
  track_peak(tables);

  // ---- Phase 2: delayed subqueries via bound joins. ----
  std::vector<size_t> delayed_left;
  for (size_t i = 0; i < subqueries.size(); ++i) {
    if (subqueries[i].delayed) delayed_left.push_back(i);
  }

  auto found_bindings_for = [&](const Subquery& sq)
      -> std::pair<std::string, std::vector<rdf::TermId>> {
    // The shared variable with the fewest distinct found bindings.
    std::string best_var;
    std::vector<rdf::TermId> best;
    for (const std::string& v : sq.projection) {
      for (const BindingTable& t : tables) {
        if (t.VarIndex(v) < 0) continue;
        std::vector<rdf::TermId> vals = DistinctColumn(t, v);
        if (vals.empty()) continue;
        if (best_var.empty() || vals.size() < best.size()) {
          best_var = v;
          best = std::move(vals);
        }
      }
    }
    return {best_var, best};
  };

  while (!delayed_left.empty()) {
    if (cancel.Cancelled()) return cancel.StatusAt("delayed phase");
    // Most selective next: smallest refined cardinality, where the
    // refinement caps the estimate by the found bindings it can join on.
    size_t pick = 0;
    double pick_cost = std::numeric_limits<double>::infinity();
    for (size_t k = 0; k < delayed_left.size(); ++k) {
      const Subquery& sq = subqueries[delayed_left[k]];
      double refined = sq.estimated_cardinality;
      auto [var, bindings] = found_bindings_for(sq);
      if (!var.empty()) {
        refined = std::min(refined, static_cast<double>(bindings.size()));
      }
      if (refined < pick_cost) {
        pick_cost = refined;
        pick = k;
      }
    }
    size_t sq_index = delayed_left[pick];
    delayed_left.erase(delayed_left.begin() + pick);
    Subquery& sq = subqueries[sq_index];

    obs::SpanId sq_span = start_sq_span(sq_index, "delayed");
    auto end_sq_span = [&](size_t result_rows) {
      if (tracer == nullptr) return;
      tracer->Annotate(sq_span, "rows",
                       static_cast<uint64_t>(result_rows));
      tracer->EndSpan(sq_span);
    };

    // Empty-partner short-circuit: a join partner (a table sharing one of
    // this subquery's variables) with zero rows makes the inner join
    // empty no matter what the subquery returns. Without this check such
    // a subquery falls through found_bindings_for (no distinct bindings)
    // and is fetched unbound from every endpoint for nothing. Zero *rows*
    // is the test — a non-empty partner whose shared column is all
    // unbound still joins compatibly and must not short-circuit.
    bool empty_partner = false;
    for (const BindingTable& t : tables) {
      if (t.NumRows() != 0) continue;
      for (const std::string& v : sq.projection) {
        if (t.VarIndex(v) >= 0) {
          empty_partner = true;
          break;
        }
      }
      if (empty_partner) break;
    }
    if (empty_partner) {
      if (tracer != nullptr) {
        tracer->Annotate(sq_span, "empty_partner", true);
      }
      BindingTable empty;
      empty.vars = sq.projection;
      end_sq_span(0);
      tables.push_back(std::move(empty));
      tables = JoinConnected(std::move(tables), pool_,
                             options_->join_partitions, &cancel);
      continue;
    }

    auto [bind_var, bindings] = found_bindings_for(sq);
    if (bind_var.empty()) {
      // Nothing to bind with: evaluate unbound like phase 1.
      Result<BindingTable> t = RunEverywhere(sq, triples, nullptr, nullptr,
                                             dict, metrics, cancel, sq_span);
      if (!t.ok()) {
        end_sq_span(0);
        return t.status();
      }
      end_sq_span(t->NumRows());
      tables.push_back(std::move(t).value());
      tables = JoinConnected(std::move(tables), pool_,
                             options_->join_partitions, &cancel);
      continue;
    }
    if (tracer != nullptr) {
      tracer->Annotate(sq_span, "bind_var", bind_var);
      tracer->Annotate(sq_span, "bindings",
                       static_cast<uint64_t>(bindings.size()));
    }

    // Source refinement (Algorithm 3, line 13): for generic subqueries
    // (single pattern, >= 2 variables) probe each endpoint with a sampled
    // VALUES block and drop endpoints that answer no sample.
    std::vector<int> sources = sq.sources;
    if (sq.triple_indices.size() == 1 &&
        triples[sq.triple_indices[0]].VariableCount() >= 2 &&
        sources.size() > 1 && !bindings.empty()) {
      sparql::ValuesClause sample;
      sample.vars.push_back(sparql::Variable{bind_var});
      size_t n = std::min(options_->source_refinement_sample, bindings.size());
      for (size_t i = 0; i < n; ++i) {
        sample.rows.push_back({dict->term(bindings[i])});
      }
      sparql::Query ask;
      ask.form = sparql::QueryForm::kAsk;
      ask.where.triples.push_back(triples[sq.triple_indices[0]]);
      ask.where.values.push_back(sample);
      std::string ask_text = sparql::QueryToString(ask);
      cache::FederationCache* shared =
          options_->use_cache ? federation_->query_cache() : nullptr;
      std::vector<std::future<Result<bool>>> probes;
      for (int ep : sources) {
        probes.push_back(federation_->SubmitRequest([this, ep, ask_text,
                                                     metrics, cancel, retry,
                                                     sq_span, shared]() {
          if (cancel.Cancelled()) {
            return Result<bool>(cancel.StatusAt("source refinement"));
          }
          std::string endpoint_id;
          std::string key;
          if (shared != nullptr) {
            endpoint_id = federation_->id(static_cast<size_t>(ep));
            key = cache::FederationCache::Key(endpoint_id, ask_text);
            std::optional<bool> cached = shared->GetVerdict(key);
            if (cached.has_value()) return Result<bool>(*cached);
          }
          Result<bool> answer = federation_->Ask(
              static_cast<size_t>(ep), ask_text, metrics, cancel.deadline(),
              retry, sq_span);
          if (shared != nullptr && answer.ok()) {
            shared->PutVerdict(key, endpoint_id, *answer);
          }
          return answer;
        }));
      }
      std::vector<int> kept;
      for (size_t i = 0; i < probes.size(); ++i) {
        Result<bool> has = probes[i].get();
        // On sampling-probe failure, keep the endpoint (conservative).
        if (!has.ok() || *has) kept.push_back(sources[i]);
      }
      if (!kept.empty()) sources = std::move(kept);
    }

    // Bound join: ship the found bindings in VALUES blocks.
    Subquery bound_sq = sq;
    bound_sq.sources = sources;
    if (std::find(bound_sq.projection.begin(), bound_sq.projection.end(),
                  bind_var) == bound_sq.projection.end()) {
      bound_sq.projection.push_back(bind_var);
    }
    BindingTable merged;
    merged.vars = bound_sq.projection;
    const size_t block = std::max<size_t>(1, options_->bound_join_block_size);
    size_t values_blocks = 0;
    for (size_t start = 0; start < bindings.size(); start += block) {
      // Re-check per chunk: a bound join with many binding blocks must
      // stop at the first block past the deadline/cancel, not overshoot
      // by the full remaining chunk count.
      if (cancel.Cancelled()) {
        end_sq_span(merged.NumRows());
        return cancel.StatusAt("bound join");
      }
      sparql::ValuesClause values;
      values.vars.push_back(sparql::Variable{bind_var});
      size_t end = std::min(bindings.size(), start + block);
      std::vector<rdf::TermId> chunk_ids(bindings.begin() + start,
                                         bindings.begin() + end);
      for (rdf::TermId id : chunk_ids) {
        values.rows.push_back({dict->term(id)});
      }
      ++values_blocks;
      Result<BindingTable> part =
          RunEverywhere(bound_sq, triples, &values, &chunk_ids, dict, metrics,
                        cancel, sq_span);
      if (!part.ok()) {
        end_sq_span(merged.NumRows());
        return part.status();
      }
      AppendUnionIds(&merged, *part);
    }
    if (tracer != nullptr) {
      tracer->Annotate(sq_span, "values_blocks",
                       static_cast<uint64_t>(values_blocks));
    }
    end_sq_span(merged.NumRows());
    tables.push_back(std::move(merged));
    track_peak(tables);
    tables = JoinConnected(std::move(tables), pool_,
                           options_->join_partitions, &cancel);
    track_peak(tables);
  }

  // ---- Global join of whatever is left (disjoint groups: cartesian). ----
  tables = JoinConnected(std::move(tables), pool_, options_->join_partitions,
                         &cancel);
  while (tables.size() > 1) {
    if (cancel.Cancelled()) return cancel.StatusAt("global join");
    // Cartesian products, smallest first to bound growth; the join
    // splits the product across the pool when it is large.
    std::sort(tables.begin(), tables.end(),
              [](const BindingTable& a, const BindingTable& b) {
                return a.NumRows() < b.NumRows();
              });
    BindingTable joined =
        JoinIds(tables[0], tables[1], /*left_outer=*/false, pool_,
                options_->join_partitions, &cancel);
    tables.erase(tables.begin(), tables.begin() + 2);
    tables.insert(tables.begin(), std::move(joined));
  }
  if (cancel.Cancelled()) return cancel.StatusAt("global join");
  return std::move(tables[0]);
}

}  // namespace lusail::core
