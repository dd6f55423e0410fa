#include "core/gjv_detector.h"

#include <algorithm>
#include <future>

#include "cache/federation_cache.h"
#include "core/query_graph.h"

namespace lusail::core {

namespace {

using sparql::TriplePattern;

std::pair<int, int> OrderedPair(int a, int b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

}  // namespace

GjvDetector::PendingChecks::~PendingChecks() {
  for (Request& request : requests) {
    if (request.nonempty.valid()) request.nonempty.wait();
  }
}

std::string GjvDetector::CheckQueryText(
    const std::string& var, const TriplePattern& outer,
    const TriplePattern& inner,
    const std::vector<TriplePattern>& type_patterns) {
  std::string text = "SELECT ?" + var + " WHERE { ";
  for (const TriplePattern& tp : type_patterns) {
    text += tp.ToString() + " . ";
  }
  text += outer.ToString() + " . ";
  text += "FILTER NOT EXISTS { SELECT ?" + var + " WHERE { " +
          inner.ToString() + " . } } }";
  text += " LIMIT 1";
  return text;
}

Result<GjvResult> GjvDetector::Detect(
    const std::vector<TriplePattern>& triples,
    const std::vector<std::vector<int>>& sources,
    fed::MetricsCollector* metrics, const Deadline& deadline,
    bool use_cache, const net::RetryPolicy* retry, bool tolerate_failures) {
  return CollectChecks(
      SubmitChecks(triples, sources, metrics, deadline, use_cache, retry),
      tolerate_failures);
}

GjvDetector::PendingChecks GjvDetector::SubmitChecks(
    const std::vector<TriplePattern>& triples,
    const std::vector<std::vector<int>>& sources,
    fed::MetricsCollector* metrics, const Deadline& deadline,
    bool use_cache, const net::RetryPolicy* retry) {
  PendingChecks pending;
  pending.use_cache = use_cache;
  GjvResult& result = pending.result;
  std::vector<JoinVariable> join_vars = QueryGraph::JoinVariables(triples);
  std::vector<PendingChecks::Check>& checks = pending.checks;

  for (const JoinVariable& jv : join_vars) {
    // Variables in the predicate position join data across predicates; we
    // conservatively make every pair with such a variable global.
    if (jv.HasPredicateRole()) {
      std::vector<int> all = jv.type_patterns;
      for (const VarOccurrence& occ : jv.occurrences) {
        all.push_back(occ.triple_index);
      }
      for (size_t i = 0; i < all.size(); ++i) {
        for (size_t j = i + 1; j < all.size(); ++j) {
          result.causes[jv.name].insert(OrderedPair(all[i], all[j]));
        }
      }
      continue;
    }

    // Step 1 (Algorithm 1, lines 8-11): source-list mismatch over every
    // pair of the variable's patterns (type patterns included) makes the
    // pair global with no endpoint communication.
    std::vector<int> all_patterns = jv.type_patterns;
    for (const VarOccurrence& occ : jv.occurrences) {
      all_patterns.push_back(occ.triple_index);
    }
    bool source_mismatch = false;
    for (size_t i = 0; i < all_patterns.size(); ++i) {
      for (size_t j = i + 1; j < all_patterns.size(); ++j) {
        if (sources[all_patterns[i]] != sources[all_patterns[j]]) {
          result.causes[jv.name].insert(
              OrderedPair(all_patterns[i], all_patterns[j]));
          source_mismatch = true;
        }
      }
    }
    if (source_mismatch) continue;  // Algorithm 1, line 12.

    // Step 2: formulate locality check queries.
    std::vector<TriplePattern> type_tps;
    for (int ti : jv.type_patterns) type_tps.push_back(triples[ti]);

    auto add_check = [&](int outer_idx, int inner_idx) {
      PendingChecks::Check check;
      check.var = jv.name;
      check.pair = OrderedPair(outer_idx, inner_idx);
      check.query_text = CheckQueryText(jv.name, triples[outer_idx],
                                        triples[inner_idx], type_tps);
      checks.push_back(std::move(check));
    };

    if (jv.SubjectOnly() || jv.ObjectOnly()) {
      // Both set differences must be empty: check each direction.
      for (size_t i = 0; i < jv.occurrences.size(); ++i) {
        for (size_t j = i + 1; j < jv.occurrences.size(); ++j) {
          add_check(jv.occurrences[i].triple_index,
                    jv.occurrences[j].triple_index);
          add_check(jv.occurrences[j].triple_index,
                    jv.occurrences[i].triple_index);
        }
      }
    } else {
      // Subject-and-object case (Figure 5): for every (object-occurrence,
      // subject-occurrence) pair, check object-side minus subject-side.
      for (const VarOccurrence& obj_occ : jv.occurrences) {
        if (obj_occ.role != VarRole::kObject) continue;
        for (const VarOccurrence& subj_occ : jv.occurrences) {
          if (subj_occ.role != VarRole::kSubject) continue;
          add_check(obj_occ.triple_index, subj_occ.triple_index);
        }
      }
    }
  }

  // Submit the checks to their relevant endpoints through the
  // federation's request pool.
  cache::FederationCache* shared =
      use_cache ? federation_->query_cache() : nullptr;
  obs::SpanId trace_parent =
      metrics != nullptr ? metrics->trace_parent() : 0;
  for (size_t ci = 0; ci < checks.size(); ++ci) {
    const PendingChecks::Check& check = checks[ci];
    // Both patterns of the pair have the same relevant sources here.
    const std::vector<int>& eps = sources[check.pair.first];
    for (int ep : eps) {
      std::string key = federation_->id(ep) + "|" + check.query_text;
      if (use_cache) {
        std::optional<bool> cached = cache_->Get(key);
        if (!cached.has_value() && shared != nullptr) {
          cached = shared->GetVerdict(key);
          if (cached.has_value()) cache_->Put(key, *cached);
        }
        if (cached.has_value()) {
          if (*cached) result.causes[check.var].insert(check.pair);
          continue;
        }
      }
      PendingChecks::Request request;
      request.check_index = ci;
      request.cache_key = key;
      request.endpoint_id = federation_->id(ep);
      request.nonempty = federation_->SubmitRequest(
          [this, ep, text = check.query_text, metrics, deadline, retry,
           trace_parent]() -> Result<bool> {
            LUSAIL_ASSIGN_OR_RETURN(
                sparql::ResultTable table,
                federation_->Execute(static_cast<size_t>(ep), text,
                                     fed::RequestKind::kProbe, metrics,
                                     deadline, retry, trace_parent));
            return !table.rows.empty();
          });
      pending.requests.push_back(std::move(request));
      ++result.check_queries;
    }
  }
  return pending;
}

Result<GjvResult> GjvDetector::CollectChecks(PendingChecks pending,
                                             bool tolerate_failures) {
  cache::FederationCache* shared =
      pending.use_cache ? federation_->query_cache() : nullptr;
  GjvResult& result = pending.result;
  std::vector<Status> failures;
  for (PendingChecks::Request& request : pending.requests) {
    const PendingChecks::Check& check = pending.checks[request.check_index];
    Result<bool> nonempty = request.nonempty.get();
    if (!nonempty.ok()) {
      if (tolerate_failures) {
        // Unverifiable locality: conservatively treat the pair as causing
        // (its variable goes global), which is always correct — it only
        // costs an extra federator-side join.
        result.causes[check.var].insert(check.pair);
      } else {
        failures.push_back(nonempty.status());
      }
      continue;
    }
    cache_->Put(request.cache_key, *nonempty);
    if (shared != nullptr) {
      shared->PutVerdict(request.cache_key, request.endpoint_id, *nonempty);
    }
    if (*nonempty) result.causes[check.var].insert(check.pair);
  }
  if (!failures.empty()) {
    std::string msg = std::to_string(failures.size()) + " of " +
                      std::to_string(pending.requests.size()) +
                      " locality check queries failed; first: " +
                      failures.front().ToString();
    return Status(failures.front().code(), std::move(msg));
  }
  return std::move(result);
}

}  // namespace lusail::core
