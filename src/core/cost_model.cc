#include "core/cost_model.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <set>

#include "cache/federation_cache.h"
#include "sparql/probe.h"

namespace lusail::core {

namespace {

struct MeanStd {
  double mean = 0.0;
  double std = 0.0;
};

MeanStd ComputeMeanStd(const std::vector<double>& xs,
                       const std::vector<bool>& exclude) {
  MeanStd ms;
  size_t n = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (!exclude[i]) {
      ms.mean += xs[i];
      ++n;
    }
  }
  if (n == 0) return ms;
  ms.mean /= static_cast<double>(n);
  for (size_t i = 0; i < xs.size(); ++i) {
    if (!exclude[i]) {
      ms.std += (xs[i] - ms.mean) * (xs[i] - ms.mean);
    }
  }
  ms.std = std::sqrt(ms.std / static_cast<double>(n));
  return ms;
}

}  // namespace

std::string CostModel::CountQueryText(
    const sparql::TriplePattern& tp,
    const std::vector<const sparql::Expr*>& pushed_filters) {
  std::string text = "SELECT (COUNT(*) AS ?c) WHERE { " + tp.ToString() + " . ";
  for (const sparql::Expr* f : pushed_filters) {
    text += "FILTER (" + sparql::ExprToString(*f) + ") ";
  }
  text += "}";
  return text;
}

CostModel::PendingProbes::~PendingProbes() {
  for (Probe& probe : probes) {
    if (probe.result.valid()) probe.result.wait();
  }
}

Status CostModel::CollectStatistics(
    const std::vector<sparql::TriplePattern>& triples,
    const std::vector<std::vector<int>>& sources,
    const std::vector<sparql::Expr>& filters,
    fed::MetricsCollector* metrics, const Deadline& deadline,
    const net::RetryPolicy* retry, bool tolerate_failures, bool use_cache) {
  return CollectProbes(SubmitProbes(triples, sources, filters, metrics,
                                    deadline, retry, use_cache),
                       tolerate_failures);
}

CostModel::PendingProbes CostModel::SubmitProbes(
    const std::vector<sparql::TriplePattern>& triples,
    const std::vector<std::vector<int>>& sources,
    const std::vector<sparql::Expr>& filters,
    fed::MetricsCollector* metrics, const Deadline& deadline,
    const net::RetryPolicy* retry, bool use_cache) {
  PendingProbes pending;
  pending.use_cache = use_cache;
  cache::FederationCache* shared =
      use_cache ? federation_->query_cache() : nullptr;
  obs::SpanId trace_parent =
      metrics != nullptr ? metrics->trace_parent() : 0;
  for (size_t ti = 0; ti < triples.size(); ++ti) {
    // Push filters whose variables all appear in this single pattern.
    std::vector<const sparql::Expr*> pushed;
    std::vector<std::string> tp_vars = triples[ti].VariableNames();
    for (const sparql::Expr& f : filters) {
      std::set<std::string> fvars;
      f.CollectVariables(&fvars);
      bool covered = !fvars.empty();
      for (const std::string& v : fvars) {
        if (std::find(tp_vars.begin(), tp_vars.end(), v) == tp_vars.end()) {
          covered = false;
          break;
        }
      }
      if (covered) pushed.push_back(&f);
    }
    std::string text = CountQueryText(triples[ti], pushed);
    for (int ep : sources[ti]) {
      std::string endpoint_id = federation_->id(static_cast<size_t>(ep));
      std::string key = cache::FederationCache::Key(endpoint_id, text);
      if (shared != nullptr) {
        std::optional<uint64_t> cached = shared->GetCount(key);
        if (cached.has_value()) {
          counts_[{static_cast<int>(ti), ep}] = *cached;
          continue;
        }
      }
      PendingProbes::Probe probe;
      probe.tp = static_cast<int>(ti);
      probe.ep = ep;
      probe.cache_key = std::move(key);
      probe.endpoint_id = std::move(endpoint_id);
      probe.result = federation_->SubmitRequest(
          [this, ep, text, metrics, deadline, retry, trace_parent]() {
            return federation_->Execute(static_cast<size_t>(ep), text,
                                        fed::RequestKind::kProbe, metrics,
                                        deadline, retry, trace_parent);
          });
      pending.probes.push_back(std::move(probe));
    }
  }
  return pending;
}

Status CostModel::CollectProbes(PendingProbes pending,
                                bool tolerate_failures) {
  cache::FederationCache* shared =
      pending.use_cache ? federation_->query_cache() : nullptr;
  size_t failed = 0;
  Status first_error;
  for (PendingProbes::Probe& probe : pending.probes) {
    Result<sparql::ResultTable> table = probe.result.get();
    if (!table.ok()) {
      ++failed;
      if (first_error.ok()) first_error = table.status();
      continue;
    }
    uint64_t count = 0;
    if (!table->rows.empty() && !table->rows[0].empty() &&
        table->rows[0][0].has_value()) {
      count = sparql::ParseCountLiteral(*table->rows[0][0]);
    }
    counts_[{probe.tp, probe.ep}] = count;
    if (shared != nullptr) {
      shared->PutCount(probe.cache_key, probe.endpoint_id, count);
    }
  }
  if (failed > 0 && !tolerate_failures) {
    return Status(first_error.code(),
                  std::to_string(failed) + " of " +
                      std::to_string(pending.probes.size()) +
                      " COUNT probes failed; first: " +
                      first_error.ToString());
  }
  return Status::OK();
}

uint64_t CostModel::PatternCount(int tp_index, int ep) const {
  auto it = counts_.find({tp_index, ep});
  return it == counts_.end() ? 0 : it->second;
}

uint64_t CostModel::PatternTotal(int tp_index) const {
  uint64_t total = 0;
  for (const auto& [key, count] : counts_) {
    if (key.first == tp_index) total += count;
  }
  return total;
}

double CostModel::SubqueryCardinality(
    const Subquery& sq,
    const std::vector<sparql::TriplePattern>& triples) const {
  std::vector<std::string> vars =
      sq.projection.empty() ? sq.Variables(triples) : sq.projection;
  double best = 0.0;
  bool any_var = false;
  for (const std::string& v : vars) {
    // Patterns of this subquery containing v.
    std::vector<int> with_v;
    for (int ti : sq.triple_indices) {
      const auto names = triples[ti].VariableNames();
      if (std::find(names.begin(), names.end(), v) != names.end()) {
        with_v.push_back(ti);
      }
    }
    if (with_v.empty()) continue;
    any_var = true;
    double total = 0.0;
    for (int ep : sq.sources) {
      uint64_t min_count = std::numeric_limits<uint64_t>::max();
      for (int ti : with_v) {
        min_count = std::min(min_count, PatternCount(ti, ep));
      }
      total += static_cast<double>(min_count);
    }
    best = std::max(best, total);
  }
  if (!any_var) {
    // Fully ground subquery: at most one row per endpoint.
    return static_cast<double>(sq.sources.size());
  }
  return best;
}

double CostModel::DecompositionCost(
    const std::vector<Subquery>& subqueries,
    const std::vector<sparql::TriplePattern>& triples) const {
  double total = 0.0;
  for (const Subquery& sq : subqueries) {
    total += SubqueryCardinality(sq, triples);
  }
  return total;
}

std::vector<bool> ChauvenetOutliers(const std::vector<double>& values) {
  std::vector<bool> outlier(values.size(), false);
  if (values.size() < 3) return outlier;
  const double n = static_cast<double>(values.size());
  // Iterate to a fixpoint (bounded by the sample size).
  for (size_t round = 0; round < values.size(); ++round) {
    MeanStd ms = ComputeMeanStd(values, outlier);
    if (ms.std <= 0.0) break;
    bool changed = false;
    for (size_t i = 0; i < values.size(); ++i) {
      if (outlier[i]) continue;
      double z = std::fabs(values[i] - ms.mean) / ms.std;
      double expected = n * std::erfc(z / std::sqrt(2.0));
      if (expected < 0.5) {
        outlier[i] = true;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return outlier;
}

std::vector<bool> DecideDelayed(const std::vector<double>& cardinalities,
                                const std::vector<double>& endpoint_counts,
                                DelayThreshold threshold) {
  const size_t n = cardinalities.size();
  std::vector<bool> delayed(n, false);
  if (n <= 1) return delayed;

  std::vector<bool> card_outliers = ChauvenetOutliers(cardinalities);
  std::vector<bool> ep_outliers = ChauvenetOutliers(endpoint_counts);

  if (threshold == DelayThreshold::kOutliersOnly) {
    for (size_t i = 0; i < n; ++i) {
      delayed[i] = card_outliers[i] || ep_outliers[i];
    }
  } else {
    double k = 0.0;
    if (threshold == DelayThreshold::kMuSigma) k = 1.0;
    if (threshold == DelayThreshold::kMu2Sigma) k = 2.0;
    MeanStd card_ms = ComputeMeanStd(cardinalities, card_outliers);
    MeanStd ep_ms = ComputeMeanStd(endpoint_counts, ep_outliers);
    // The comparison is >= so that with only two subqueries the larger one
    // is still delayed (for n = 2, max == mu + sigma exactly); the
    // strictly-above-minimum guard keeps equal-valued sets undelayed.
    double card_min = *std::min_element(cardinalities.begin(),
                                        cardinalities.end());
    double ep_min = *std::min_element(endpoint_counts.begin(),
                                      endpoint_counts.end());
    for (size_t i = 0; i < n; ++i) {
      bool by_cardinality =
          cardinalities[i] >= card_ms.mean + k * card_ms.std &&
          cardinalities[i] > card_min;
      bool by_endpoints = endpoint_counts[i] >= ep_ms.mean + k * ep_ms.std &&
                          endpoint_counts[i] > ep_min;
      delayed[i] = by_cardinality || by_endpoints;
    }
  }

  // At least one subquery must run in the concurrent phase to seed the
  // bound joins: un-delay the one with the smallest cardinality.
  if (std::all_of(delayed.begin(), delayed.end(), [](bool d) { return d; })) {
    size_t smallest = 0;
    for (size_t i = 1; i < n; ++i) {
      if (cardinalities[i] < cardinalities[smallest]) smallest = i;
    }
    delayed[smallest] = false;
  }
  return delayed;
}

}  // namespace lusail::core
