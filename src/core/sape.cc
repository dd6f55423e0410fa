#include "core/sape.h"

#include <algorithm>
#include <limits>
#include <set>
#include <span>
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
    fed::SharedDictionary* dict,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    const net::RetryPolicy* retry, obs::SpanId trace_parent) {
  // Queued fetches whose token already fired bail before touching the
  // wire — crucial when many (subquery, endpoint) tasks are backed up
  // behind a cancelled query in the request pool.
  if (cancel.Cancelled()) return cancel.StatusAt("endpoint fetch");
  cache::FederationCache* shared =
      (options_->use_cache && options_->result_cache)
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

void SapeExecutor::Submit(const Subquery& sq, size_t slot,
                          const std::string& text,
                          const std::string& cache_key,
                          fed::SharedDictionary* dict,
                          fed::MetricsCollector* metrics,
                          const CancelToken& cancel, obs::SpanId trace_parent,
                          const CancelToken& budget,
                          std::vector<Fetch>* wave) {
  const net::RetryPolicy* retry = RetryOf(options_);
  for (int ep : sq.sources) {
    wave->push_back(
        {slot, ep,
         federation_->SubmitRequest([this, ep, text, cache_key, dict, metrics,
                                     cancel, retry, trace_parent, budget,
                                     projection = sq.projection]() {
           if (budget.CancelRequested()) {
             BindingTable skipped;
             skipped.vars = projection;
             return Result<BindingTable>(std::move(skipped));
           }
           return FetchEndpoint(ep, text, cache_key, dict, metrics, cancel,
                                retry, trace_parent);
         })});
  }
}

Status SapeExecutor::Collect(std::vector<Fetch>* wave,
                             std::vector<BindingTable>* tables,
                             const char* phase,
                             fed::MetricsCollector* metrics,
                             const std::function<void(const Fetch&)>& landed) {
  std::vector<EndpointFailure> failures;
  std::vector<size_t> successes(tables->size(), 0);
  std::vector<bool> failed(tables->size(), false);
  for (Fetch& fetch : *wave) {
    Result<BindingTable> part = fetch.result.get();
    if (part.ok()) {
      ++successes[fetch.slot];
      AppendUnionIds(&(*tables)[fetch.slot], *part);
    } else {
      failures.push_back({fetch.endpoint, part.status()});
      failed[fetch.slot] = true;
    }
    if (landed) landed(fetch);
  }
  if (failures.empty()) return Status::OK();
  if (!options_->partial_results) {
    return AggregateFailures(federation_, phase, failures, wave->size());
  }
  // Graceful degradation: each per-endpoint result is one branch of the
  // subquery's UNION — dropping a branch yields a subset of the exact
  // answer, which is exactly what partial_results promises.
  if (metrics != nullptr) {
    for (const EndpointFailure& f : failures) {
      metrics->RecordEndpointDropped(
          federation_->id(static_cast<size_t>(f.endpoint)));
    }
    for (size_t slot = 0; slot < tables->size(); ++slot) {
      if (failed[slot] && successes[slot] == 0) {
        metrics->RecordSubqueryDropped();
      }
    }
  }
  return Status::OK();
}

Result<BindingTable> SapeExecutor::RunEverywhere(
    const Subquery& sq, const std::vector<TriplePattern>& triples,
    fed::SharedDictionary* dict, fed::MetricsCollector* metrics,
    const CancelToken& cancel, obs::SpanId trace_parent, size_t row_limit) {
  std::string text = sq.ToSparql(triples, nullptr);
  // The LIMIT rides inside the text, so the shared result cache keys a
  // limited fetch separately from the unlimited one — a capped answer
  // never masquerades as the full result on a later warm run.
  if (row_limit > 0) text += "\nLIMIT " + std::to_string(row_limit);
  // Row budget: fired once the union already holds `row_limit` rows.
  // Fetches still queued behind the satisfied point skip the wire and
  // return empty — a budget hit is a cutoff, never a failure.
  CancelToken budget =
      row_limit > 0 ? CancelToken::Cancellable() : CancelToken();
  std::vector<Fetch> wave;
  Submit(sq, 0, text, text, dict, metrics, cancel, trace_parent, budget,
         &wave);
  std::vector<BindingTable> merged(1);
  merged[0].vars = sq.projection;
  LUSAIL_RETURN_NOT_OK(Collect(
      &wave, &merged, "subquery evaluation", metrics, [&](const Fetch&) {
        if (row_limit > 0 && merged[0].NumRows() >= row_limit) {
          budget.Cancel();
        }
      }));
  return std::move(merged[0]);
}

Result<BindingTable> SapeExecutor::Execute(
    std::vector<Subquery> subqueries,
    const std::vector<TriplePattern>& triples, fed::SharedDictionary* dict,
    fed::MetricsCollector* metrics, const CancelToken& cancel,
    fed::ExecutionProfile* profile, size_t row_limit) {
  auto track_peak = [profile](std::span<const BindingTable> tables) {
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
    fed::RequestWave wave(metrics, profile);
    Result<BindingTable> table = RunEverywhere(
        subqueries[0], triples, dict, metrics, cancel, span, row_limit);
    wave.End();
    if (tracer != nullptr) tracer->EndSpan(span);
    if (table.ok() && cancel.Cancelled()) {
      return cancel.StatusAt("subquery evaluation");
    }
    if (table.ok()) track_peak({&*table, 1});
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
  // Algorithm 3 lines 6-7. Slot k of the wave is the k-th non-delayed
  // subquery.
  std::vector<BindingTable> tables;
  std::vector<obs::SpanId> phase1_spans;
  std::vector<size_t> phase1_pending;
  std::vector<Fetch> wave;
  fed::RequestWave phase1_wave(metrics, profile);
  for (size_t i = 0; i < subqueries.size(); ++i) {
    if (subqueries[i].delayed) continue;
    size_t slot = tables.size();
    tables.emplace_back().vars = subqueries[i].projection;
    phase1_spans.push_back(start_sq_span(i, "concurrent"));
    phase1_pending.push_back(subqueries[i].sources.size());
    std::string text = subqueries[i].ToSparql(triples, nullptr);
    Submit(subqueries[i], slot, text, text, dict, metrics, cancel,
           phase1_spans.back(), CancelToken(), &wave);
  }
  LUSAIL_RETURN_NOT_OK(Collect(
      &wave, &tables, "SAPE phase 1 (concurrent subqueries)", metrics,
      [&](const Fetch& fetch) {
        // The subquery span closes when its last endpoint result lands.
        if (tracer == nullptr || --phase1_pending[fetch.slot] != 0) return;
        tracer->Annotate(
            phase1_spans[fetch.slot], "rows",
            static_cast<uint64_t>(tables[fetch.slot].NumRows()));
        tracer->EndSpan(phase1_spans[fetch.slot]);
      }));
  phase1_wave.End();

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
      fed::RequestWave delayed_wave(metrics, profile);
      Result<BindingTable> t =
          RunEverywhere(sq, triples, dict, metrics, cancel, sq_span);
      delayed_wave.End();
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

    // Bound join: ship the found bindings in VALUES blocks, every (block,
    // endpoint) fetch in one wave; the union stays block-major. Each block
    // keys the shared result cache as the unbound text plus an id-space
    // fingerprint of its bindings (one precomputed 8-byte content hash
    // per binding instead of the serialized block; content hashes keep
    // the key stable across engines sharing the cache), so a warm serving
    // process skips repeated bound joins too while giant VALUES
    // serializations stay out of the cache index. Fetches still queued
    // when the token fires skip the wire (FetchEndpoint).
    Subquery bound_sq = sq;
    if (std::find(bound_sq.projection.begin(), bound_sq.projection.end(),
                  bind_var) == bound_sq.projection.end()) {
      bound_sq.projection.push_back(bind_var);
    }
    const std::string base_text = bound_sq.ToSparql(triples, nullptr);
    const size_t block = std::max<size_t>(1, options_->bound_join_block_size);
    std::vector<Fetch> bound_wave;
    fed::RequestWave delayed_wave(metrics, profile);
    for (size_t start = 0; start < bindings.size(); start += block) {
      size_t n = std::min(bindings.size() - start, block);
      sparql::ValuesClause values;
      values.vars.push_back(sparql::Variable{bind_var});
      for (size_t k = start; k < start + n; ++k) {
        values.rows.push_back({dict->term(bindings[k])});
      }
      Submit(bound_sq, 0, bound_sq.ToSparql(triples, &values),
             base_text + "\n#values-block:" +
                 FingerprintIdBindings(bind_var, *dict,
                                       bindings.data() + start, n),
             dict, metrics, cancel, sq_span, CancelToken(), &bound_wave);
    }
    if (tracer != nullptr) {
      tracer->Annotate(
          sq_span, "values_blocks",
          static_cast<uint64_t>((bindings.size() + block - 1) / block));
    }
    std::vector<BindingTable> merged(1);
    merged[0].vars = bound_sq.projection;
    Status collected =
        Collect(&bound_wave, &merged, "subquery evaluation", metrics);
    delayed_wave.End();
    end_sq_span(merged[0].NumRows());
    if (cancel.Cancelled()) return cancel.StatusAt("bound join");
    LUSAIL_RETURN_NOT_OK(collected);
    tables.push_back(std::move(merged[0]));
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
